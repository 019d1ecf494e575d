(** Fig. 9 — source-code statistics and reengineering effort.

    The paper counted executable LoC per component and the subset
    specific to recovery, showing the changes are "both very limited
    and local": concentrated in the reincarnation server (30%), small
    in the servers, ~5 lines per driver (in the shared driver
    library), zero in the process manager and microkernel.

    This harness reruns that accounting over {e this} repository with
    {!Resilix_sclc}: recovery-specific code is delimited by in-source
    markers, so the table is regenerated from the actual sources. *)

type row = {
  component : string;
  files : string list;  (** repo-relative source files *)
  total : int;  (** executable LoC *)
  recovery : int;  (** recovery-specific LoC *)
  paper_total : int option;  (** the paper's corresponding numbers *)
  paper_recovery : int option;
}

val run :
  ?jobs:int ->
  ?on_progress:(Resilix_harness.Campaign.progress -> unit) ->
  ?root:string ->
  unit ->
  row list
(** Count.  [root] defaults to the repository root found by walking
    up from the working directory. *)

val print : row list -> unit
(** Print measured-vs-paper, with percentage columns. *)
