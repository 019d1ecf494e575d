type t = {
  name : string;
  program : string;
  args : string list;
  privileges : Privilege.t;
  heartbeat_period : int;
  max_heartbeat_misses : int;
  policy : string;
  mem_kb : int;
}
[@@deriving show, eq]

let make ~name ~program ?(args = []) ~privileges ?(heartbeat_period = 500_000)
    ?(max_heartbeat_misses = 4) ?(policy = "") ?(mem_kb = 256) () =
  {
    name;
    program;
    args;
    privileges;
    heartbeat_period;
    max_heartbeat_misses;
    policy;
    mem_kb;
  }
