(** The dd workload (Sec. 7.1, Fig. 8): sequentially read a file from
    the file system (piping it into a checksum) while the disk driver
    may be crashing underneath.

    The paper pipes dd into sha1sum; here SHA-1 is opt-in (real
    wall-clock cost on large files) and a streaming XXH64 digest is
    always computed for the integrity comparison. *)

type result = {
  mutable finished : bool;
  mutable ok : bool;
  mutable bytes : int;
  mutable started_at : int;
  mutable finished_at : int;
  mutable digest : string;  (** streaming XXH64 digest of the data read *)
  mutable sha1 : string;
}

val fresh_result : unit -> result
(** All zeros. *)

val make : path:string -> ?with_sha1:bool -> result -> unit -> unit
(** Build the application body, which reads in 60 KB chunks. *)
