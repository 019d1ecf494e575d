(** Source-code line counter, reproducing the methodology of the
    paper's Fig. 9 (which used the sclc.pl Perl script): count
    {e executable} lines — "blank lines, comments, and definitions in
    header files do not add to the code complexity, so these were
    omitted" — and, separately, the lines that exist only to support
    recovery.

    Recovery lines are identified by in-source markers:
    - a line containing [(*@recovery*)] counts as one recovery line;
    - everything between [(*@recovery-begin*)] and [(*@recovery-end*)]
      counts as recovery (the markers themselves do not). *)

type counts = {
  code : int;  (** executable (non-blank, non-comment) lines *)
  recovery : int;  (** the subset marked as recovery-specific *)
}

val count_string : string -> counts
(** Count OCaml source given as a string (handles nested comments and
    string literals). *)

val count_files : string list -> counts
(** Sum over files; nonexistent files count zero. *)

val find_repo_root : unit -> string option
(** Walk upward from the working directory looking for a
    [dune-project] — locates the repository so the Fig. 9 harness can
    run from any working directory. *)
