(** A recovery-aware MP3 player (Sec. 6.3).

    Streams a "song" to [/dev/audio].  When the audio driver crashes,
    the write fails with an I/O error; instead of giving up (as
    historical applications would), the player reopens the device and
    continues from where it was — the listener hears a hiccup, the
    song still finishes. *)

type result = {
  mutable finished : bool;
  mutable completed : bool;  (** the whole song was eventually played *)
  mutable bytes : int;
  mutable recoveries : int;  (** times the player had to reopen the device *)
  mutable gave_up : bool;
}

val fresh_result : unit -> result
(** All zeros. *)

val make :
  song_bytes:int -> ?recovery_aware:bool -> result -> unit -> unit
(** Play in 8 KB writes, reopening the device after a driver failure
    (up to 50 times).  With [recovery_aware:false] the player behaves
    like a legacy application: the first driver failure aborts
    playback. *)
