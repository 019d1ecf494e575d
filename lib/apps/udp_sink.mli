(** A UDP sink: the receive-side load of the DP8390 experiments. *)

val make : ?ack_every:int -> port:int -> int ref -> unit -> unit
(** [make ?ack_every ~port received] is an app body that listens on
    UDP [port] and counts every datagram in [received].  With
    [ack_every = k] it answers the 1st, (k+1)th, ... datagram with
    ["ack"] so the driver's transmit path runs too; by default it
    never answers.  A receive error sleeps 50 ms and retries. *)
