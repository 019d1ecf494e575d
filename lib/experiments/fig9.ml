module Sclc = Resilix_sclc.Sclc

type row = {
  component : string;
  files : string list;
  total : int;
  recovery : int;
  paper_total : int option;
  paper_recovery : int option;
}

(* Our components mapped onto the paper's Fig. 9 rows. *)
let components =
  [
    ( "Reinc. server",
      [ "lib/core/reincarnation.ml"; "lib/core/policy.ml"; "lib/core/service.ml" ],
      Some 2002, Some 593 );
    ("Data store", [ "lib/datastore/data_store.ml" ], Some 384, Some 59);
    ("VFS server", [ "lib/fs/vfs.ml" ], Some 5464, Some 274);
    ( "File server (MFS)",
      [ "lib/fs/mfs.ml"; "lib/fs/cache.ml"; "lib/fs/layout.ml"; "lib/fs/mkfs.ml" ],
      Some 3356, Some 22 );
    ("SATA driver", [ "lib/drivers/blockdriver_disk.ml" ], Some 2443, Some 5);
    ("RAM disk", [ "lib/drivers/blockdriver_ramdisk.ml" ], Some 454, Some 0);
    ( "Network server (INET)",
      [ "lib/net/inet.ml"; "lib/net/host.ml"; "lib/net/tcp.ml"; "lib/net/wire.ml";
        "lib/net/timerset.ml" ],
      Some 20019, Some 124 );
    ("RTL8139 driver", [ "lib/drivers/netdriver_rtl8139.ml" ], Some 2398, Some 5);
    ("DP8390 driver", [ "lib/drivers/netdriver_dp8390.ml" ], Some 2769, Some 5);
    ( "Shared driver library",
      [ "lib/drivers/driver_lib.ml"; "lib/drivers/image.ml" ],
      None, None );
    ("Process manager", [ "lib/pm/proc_manager.ml" ], Some 2954, Some 0);
    ( "Microkernel",
      [ "lib/kernel/kernel.ml"; "lib/kernel/memory.ml"; "lib/kernel/sysif.ml" ],
      Some 4832, Some 0 );
  ]

(* Components count independently, so the accounting is a small
   campaign of per-component trials (the counting is pure file
   scanning; seeds are nominal). *)
let trials ?root () =
  let root =
    match root with
    | Some r -> r
    | None -> ( match Sclc.find_repo_root () with Some r -> r | None -> ".")
  in
  List.map
    (fun (component, files, paper_total, paper_recovery) ->
      Resilix_harness.Trial.make ~name:("fig9/" ^ component) ~seed:0 (fun () ->
          let paths = List.map (Filename.concat root) files in
          let c = Sclc.count_files paths in
          {
            component;
            files;
            total = c.Sclc.code;
            recovery = c.Sclc.recovery;
            paper_total;
            paper_recovery;
          }))
    components

let run ?jobs ?on_progress ?root () =
  Resilix_harness.Campaign.(values (run ?jobs ?on_progress (trials ?root ())))

let print rows =
  Table.section "Fig. 9 — executable LoC and recovery-specific LoC per component";
  Table.note
    "Measured over this repository's sources (marker-delimited recovery code),\n\
     next to the paper's MINIX 3 numbers.  Shares are recovery/total.\n\n";
  let pct r t = if t = 0 then "-" else Printf.sprintf "%.0f%%" (100. *. float_of_int r /. float_of_int t) in
  let fmt_opt = function Some v -> string_of_int v | None -> "-" in
  Table.print
    ~header:[ "component"; "LoC"; "recovery"; "share"; "paper LoC"; "paper rec."; "paper share" ]
    (List.map
       (fun r ->
         [
           r.component;
           string_of_int r.total;
           string_of_int r.recovery;
           pct r.recovery r.total;
           fmt_opt r.paper_total;
           fmt_opt r.paper_recovery;
           (match (r.paper_total, r.paper_recovery) with
           | Some t, Some rec_ -> pct rec_ t
           | _ -> "-");
         ])
       rows);
  let total = List.fold_left (fun a r -> a + r.total) 0 rows in
  let recovery = List.fold_left (fun a r -> a + r.recovery) 0 rows in
  Table.note "\nTotal: %d LoC, %d recovery-specific (paper: 39,011 / 1,072)\n" total recovery
