(** The CD burning application (Sec. 6.3) — the case where recovery
    must {e not} be attempted: continuing a burn after the SCSI/CD
    driver failed would "most certainly produce a corrupted disc, so
    the error must be reported to the user". *)

type result = {
  mutable finished : bool;
  mutable success : bool;  (** the disc was burned and finalized *)
  mutable error_reported : bool;  (** the failure was surfaced to the user *)
  mutable blocks_burned : int;
}

val fresh_result : unit -> result
(** All zeros. *)

val make : data:string -> result -> unit -> unit
(** Burn [data] in 16 KB blocks. *)
