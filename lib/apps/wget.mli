(** The wget workload (Sec. 7.1, Fig. 7): download a file over TCP
    from the remote peer while the Ethernet driver may be crashing
    underneath, then verify the digest of what arrived. *)

type result = {
  mutable finished : bool;
  mutable ok : bool;  (** transfer completed without socket errors *)
  mutable bytes : int;  (** payload bytes received *)
  mutable started_at : int;
  mutable finished_at : int;
  mutable digest : string;  (** streaming XXH64 digest of the received data *)
  mutable md5 : string;  (** streaming MD5 (only when requested) *)
}

val fresh_result : unit -> result
(** All zeros. *)

val make :
  server:int ->
  port:int ->
  file:string ->
  ?with_md5:bool ->
  result ->
  unit ->
  unit
(** Build the application body, which receives in 32 KB recvs.  MD5
    costs real wall-clock on big files, so it is opt-in and the cheap
    XXH64 digest is always computed. *)
