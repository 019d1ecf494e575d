(** Audio codec model (character device).

    Playback consumes samples from a 16 KB FIFO at a fixed byte rate.
    If the FIFO runs dry while playing — e.g. because the audio driver
    crashed and was restarted — the listener hears a hiccup; the
    device counts underruns so the mp3-player example can report them
    (Sec. 6.3: "an MP3 player could continue playing a song after a
    driver recovery at the risk of small hiccups").

    Register map:
    {v
      0  ID        RO  0xAD10
      1  CTRL      RW  bit0 play; 0x10 reset
      2  DATA      W   one 32-bit word of samples into the FIFO
      3  LEVEL     RO  bytes currently in the FIFO
      4  ISR       R/ack  0x1 low-water, 0x8 err
      5  UNDERRUNS RO  cumulative underrun periods
    v}

    Junk CTRL bits, a write to a full FIFO or to a read-only register
    set ERR.
*)

type t
(** An audio device. *)

val ports : int
(** Size of the claimed port window (6). *)

val create :
  kernel:Resilix_kernel.Kernel.t -> bus:Bus.t -> base:int -> irq:int -> ?byte_rate:int -> unit -> t
(** Claim [base..base+ports-1].  Default rate is 176400 bytes/s
    (CD-quality stereo). *)

val underruns : t -> int
(** Cumulative underrun (hiccup) count. *)

val bytes_played : t -> int
(** Total sample bytes consumed. *)
