(** The process manager (PM) server.

    PM owns the pid namespace and the POSIX-style process lifecycle:
    it spawns system processes on behalf of the reincarnation server,
    delivers signals, collects exit statuses from the kernel, and —
    per the paper's Sec. 5.1 — notifies the parent (RS) with SIGCHLD
    whenever a server or driver dies, which is defect-detection inputs
    1–3. *)

type t
(** Shared handle for introspection (readable from outside the
    simulation). *)

val create : unit -> t
(** Make a PM instance. *)

val body : t -> unit -> unit
(** The process body; boot code runs this at the well-known PM slot. *)

