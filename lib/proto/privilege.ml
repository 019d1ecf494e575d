type allow = All | Only of string list [@@deriving show, eq]

type t = {
  uid : int;
  ipc_to : allow;
  kcalls : allow;
  io_ports : (int * int) list;
  irqs : int list;
  may_complain : bool;
}
[@@deriving show, eq]

let none =
  { uid = 9999; ipc_to = Only []; kcalls = Only []; io_ports = []; irqs = []; may_complain = false }

let app =
  {
    none with
    ipc_to = Only [ "pm"; "rs"; "ds"; "vfs"; "inet" ];
    kcalls = Only [ "grant_create"; "grant_revoke"; "alarm" ];
  }

let server ~ipc_to =
  {
    uid = 10;
    ipc_to;
    kcalls =
      Only [ "safecopy"; "grant_create"; "grant_revoke"; "alarm"; "times"; "proc_kill_request" ];
    io_ports = [];
    irqs = [];
    may_complain = true;
  }

let driver ~ipc_to ~io_ports ~irqs =
  {
    uid = 20;
    ipc_to = Only (ipc_to @ [ "rs"; "ds" ]);
    kcalls =
      Only [ "safecopy"; "grant_create"; "grant_revoke"; "devio"; "irqctl"; "iommu_map"; "alarm" ];
    io_ports;
    irqs;
    may_complain = false;
  }

let allows a name = match a with All -> true | Only names -> List.mem name names
(* A plain walk: the kernel checks this on every port access, and a
   [List.exists] predicate would allocate a closure per call. *)
let rec port_in_ranges p = function
  | [] -> false
  | (lo, hi) :: rest -> (p >= lo && p <= hi) || port_in_ranges p rest

let allows_port t p = port_in_ranges p t.io_ports
let allows_irq t i = List.mem i t.irqs
