(* The Resilix benchmark program: runs one workload in this process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   The process runs one untimed warm-up repeat, then timed repeats
   back to back, a closed loop with one client, each on its own input
   seed derived from N, until S seconds have passed (at least one
   repeat).  Before each timed repeat it sets the workload up: it
   builds the inputs and boots one machine until the workload's driver
   is up (setup_s is the median).  It then replays the warm-up's
   input, whose virtual-time report must be byte-identical: a seed
   fixes the simulation, only host time varies.  With --trace 1 it
   replays it once more with spans recorded around every call it
   makes into a layer, and runs the layer microbenches.  Every
   repeat's outputs are checked.

   Every layer is measured from outside, through public functions and
   the metric registry the program already keeps.  The last line of
   stdout is the run's record, one JSON object; run.py shapes it into
   the result line that BENCHMARK.json describes. *)

module E = Resilix_experiments
module Campaign = Resilix_harness.Campaign
module Dst = Resilix_dst
module System = Resilix_system.System
module Engine = Resilix_sim.Engine
module SimTrace = Resilix_sim.Trace
module Rng = Resilix_sim.Rng
module Kernel = Resilix_kernel.Kernel
module Sysif = Resilix_kernel.Sysif
module Api = Sysif.Api
module Privilege = Resilix_proto.Privilege
module Msg = Resilix_proto.Message
module Isa = Resilix_vm.Isa
module Interp = Resilix_vm.Interp
module Tcp = Resilix_net.Tcp
module Wire = Resilix_net.Wire
module Metrics = Resilix_obs.Metrics
module Span = Resilix_obs.Span
module Fnv = Resilix_checksum.Fnv
module Crc32 = Resilix_checksum.Crc32
module Md5 = Resilix_checksum.Md5
module Sha1 = Resilix_checksum.Sha1

let mb = 1024 * 1024
let now = Unix.gettimeofday
let t_origin = now ()

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, for the handful of trial times of one repeat. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* A span around each call this program makes into a layer: name,
   start, end and the enclosing span.  Recorded only while [tracing]
   (the traced repeat and the layers step), kept in memory and emitted
   with the record. *)
type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let tracing = ref false
let spans = ref []
let stack = ref [ 0 ]
let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let span name f =
  if not !tracing then f ()
  else begin
    let id = fresh_id () and parent = List.hd !stack and t0 = now () in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        spans := { id; parent; name; t0; t1 = now () } :: !spans)
      f
  end

(* Campaign trials report when they finish, with their own duration. *)
let on_progress (p : Campaign.progress) =
  if !tracing then begin
    let t1 = now () in
    spans :=
      {
        id = fresh_id ();
        parent = List.hd !stack;
        name = "trial:" ^ p.Campaign.p_name;
        t0 = t1 -. p.Campaign.p_elapsed_s;
        t1;
      }
      :: !spans
  end

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type outcome = {
  work : float;  (** units of work the repeat completed *)
  attempted : int;  (** operations attempted *)
  failed : int;  (** operations whose output was wrong or missing *)
  checks : (string * bool) list;
  report : string;  (** virtual-time-only rendering; must repeat exactly *)
  layer : (string * float) list;  (** simulated values and exact counts *)
}

type workload = {
  name : string;
  unit_name : string;  (** what one unit of [work] is *)
  setup : seed:int -> unit;
  repeat : seed:int -> outcome;
}

(* Counters of the machine's metric registry that the record carries. *)
let registry_counters =
  [
    "kernel.ipc.messages";
    "kernel.ipc.notifications";
    "kernel.safecopy.bytes";
    "kernel.devio.calls";
    "kernel.irq.raised";
    "kernel.proc.spawns";
    "driver.eth.rtl8139.requests";
    "driver.blk.sata.requests";
    "driver.eth.dp8390.requests";
  ]

(* Per-layer values a repeat can report.  A workload fills those its
   public interface exposes; the others read 0 (README.md lists which). *)
let repeat_layer_units =
  List.map (fun name -> (name, "count")) registry_counters
  @ [
    ("rs.recoveries", "count");
    ("mfs.reissued_ios", "count");
    ("storm.attempts", "count");
    ("storm.refused", "count");
    ("storm.accept_refused", "count");
    ("faultinj.injected", "count");
    ("faultinj.crashes", "count");
    ("faultinj.panics", "count");
    ("faultinj.exceptions", "count");
    ("faultinj.heartbeats", "count");
    ("dst.failing_signatures", "count");
    ("dst.crash_findings", "count");
    ("signatures", "count");
    ("workload.payload_bytes", "count");
    ("storm.useful_ratio", "ratio");
    ("kernel.copy_per_payload", "ratio");
    ("faultinj.detect_ratio", "ratio");
    ("sim_overhead_pct", "%_virtual");
    ("sim_restart_ms", "ms_virtual");
    ("sim_p50_ms", "ms_virtual");
    ("sim_p99_ms", "ms_virtual");
  ]

(* Registry counters from the JSONL export of every trial, summed. *)
let counters_of_lines lines =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun line ->
      match
        Scanf.sscanf line "{\"type\":\"counter\",\"label\":%S,\"name\":%S,\"value\":%d}"
          (fun _ name v -> (name, v))
      with
      | name, v ->
          Hashtbl.replace tbl name (v + Option.value ~default:0 (Hashtbl.find_opt tbl name))
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> ())
    lines;
  List.map (fun n -> (n, float (Option.value ~default:0 (Hashtbl.find_opt tbl n)))) registry_counters

let counters_of_snapshot snap =
  List.map (fun n -> (n, float (Metrics.counter_value snap n))) registry_counters

let mean_restart_ms spans =
  let closed = List.filter_map Span.total_us (Span.spans spans) in
  ratio (float (List.fold_left ( + ) 0 closed)) (float (List.length closed)) /. 1000.

(* Set-up as a user of the workload pays it: one machine booted with
   the workload's options until its driver is up. *)
let boot_until_up opts spec =
  let t = System.boot ~opts () in
  System.start_services t [ spec ]

(* The Fig. 7 and Fig. 8 repeats share a shape: a baseline trial and a
   trial with a driver SIGKILL every second, compared by the reducer.
   [view] maps a reduced row to what the record needs of it. *)
type kill_row = {
  bytes : int;
  integrity_ok : bool;
  overhead_pct : float;
  mean_restart_us : int;
  recoveries : int;
  reissued_ios : int;
  line : string;  (** the row rendered, virtual-time fields only *)
}

let kill_repeat ~trials ~reduce ~ok ~obs_lines ~view =
  let results = span "campaign" (fun () -> Campaign.(values (run ~jobs:1 ~on_progress trials))) in
  let rows = span "reduce" (fun () -> reduce results) in
  span "verify" (fun () ->
      let views = List.map view rows in
      let kill = List.nth views 1 in
      let sum f = float (List.fold_left (fun acc r -> acc + f r) 0 views) in
      let payload = sum (fun r -> r.bytes) in
      let counts = counters_of_lines (List.concat_map obs_lines results) in
      {
        work = payload /. float mb;
        attempted = List.length views;
        failed = List.length (List.filter (fun r -> not r.integrity_ok) views);
        checks = [ ("digests_ok", ok rows) ];
        report = String.concat "\n" (List.map (fun r -> r.line) views);
        layer =
          counts
          @ [
              ("workload.payload_bytes", payload);
              ("kernel.copy_per_payload", ratio (List.assoc "kernel.safecopy.bytes" counts) payload);
              ("rs.recoveries", sum (fun r -> r.recoveries));
              ("mfs.reissued_ios", sum (fun r -> r.reissued_ios));
              ("sim_overhead_pct", kill.overhead_pct);
              ("sim_restart_ms", float kill.mean_restart_us /. 1000.);
            ];
      })

let wget_kill ~smoke =
  let size = (if smoke then 2 else 16) * mb in
  let inputs ~seed = E.Fig7.trials ~size ~intervals:[ 1 ] ~seed () in
  {
    name = "wget-kill";
    unit_name = "MB";
    setup =
      (fun ~seed ->
        ignore (inputs ~seed);
        boot_until_up
          {
            System.default_opts with
            System.seed;
            peer_files = [ ("file.bin", (size, 77)) ];
            disk_mb = 8;
          }
          (System.spec_rtl8139 ~policy:"direct" ()));
    repeat =
      (fun ~seed ->
        kill_repeat ~trials:(inputs ~seed) ~reduce:E.Fig7.reduce ~ok:E.Fig7.ok
          ~obs_lines:(fun r -> r.E.Fig7.obs_lines)
          ~view:(fun (r : E.Fig7.row) ->
            {
              bytes = r.bytes;
              integrity_ok = r.integrity_ok;
              overhead_pct = r.overhead_pct;
              mean_restart_us = r.mean_restart_us;
              recoveries = r.recoveries;
              reissued_ios = 0;
              line =
                Printf.sprintf "%d %d %.6f %d %d %.6f %b" r.bytes r.duration_us r.throughput_mbs
                  r.recoveries r.mean_restart_us r.overhead_pct r.integrity_ok;
            }));
  }

let dd_kill ~smoke =
  let size = (if smoke then 8 else 128) * mb in
  let inputs ~seed = E.Fig8.trials ~size ~intervals:[ 1 ] ~seed () in
  {
    name = "dd-kill";
    unit_name = "MB";
    setup =
      (fun ~seed ->
        ignore (inputs ~seed);
        boot_until_up
          {
            System.default_opts with
            System.seed;
            fs_files = [ ("big.bin", size) ];
            disk_mb = (size / mb) + 8;
          }
          (System.spec_sata ~policy:"direct" ()));
    repeat =
      (fun ~seed ->
        kill_repeat ~trials:(inputs ~seed) ~reduce:E.Fig8.reduce ~ok:E.Fig8.ok
          ~obs_lines:(fun r -> r.E.Fig8.obs_lines)
          ~view:(fun (r : E.Fig8.row) ->
            {
              bytes = r.bytes;
              integrity_ok = r.integrity_ok;
              overhead_pct = r.overhead_pct;
              mean_restart_us = r.mean_restart_us;
              recoveries = r.recoveries;
              reissued_ios = r.reissued_ios;
              line =
                Printf.sprintf "%d %d %.6f %d %d %d %.6f %b" r.bytes r.duration_us r.throughput_mbs
                  r.recoveries r.reissued_ios r.mean_restart_us r.overhead_pct r.integrity_ok;
            }));
  }

(* Sized where no request is lost.  Larger storms now and then lose
   one to the client's 20 s deadline, with or without the NIC kill:
   about one storm in 75 at 500 requests and one in 6 at 1000, none of
   2,000 at this size. *)
let storm ~smoke =
  let requests, concurrency, workers, backlog =
    if smoke then (64, 32, 8, 16) else (128, 128, 16, 32)
  in
  let sc = Dst.Scenario.storm_sized ~requests ~concurrency ~workers ~backlog () in
  let plan ~seed = sc.Dst.Scenario.plan ~seed ~faults:sc.Dst.Scenario.default_faults in
  {
    name = "storm";
    unit_name = "requests";
    setup =
      (fun ~seed ->
        ignore (plan ~seed);
        boot_until_up
          { System.default_opts with System.seed; disk_mb = 8 }
          (System.spec_rtl8139 ~policy:"direct" ()));
    repeat =
      (fun ~seed ->
        let plan = plan ~seed in
        let r =
          span "trial:storm" (fun () -> sc.Dst.Scenario.run ~seed ~policy:Engine.Fifo ~plan)
        in
        span "verify" (fun () ->
            let open Dst.Scenario in
            let s = Option.get r.r_storm in
            let resolved = s.s_completed + s.s_mismatches + s.s_timeouts + s.s_failed in
            let attempts = s.s_requests + s.s_retries in
            {
              work = float s.s_completed;
              attempted = s.s_requests;
              failed = s.s_requests - s.s_completed;
              checks =
                [
                  ("all_resolved", r.r_completed && resolved = s.s_requests);
                  ("no_mismatches", s.s_mismatches = 0);
                ];
              report = String.concat "\n" (storm_lines r);
              layer =
                [
                  ("storm.attempts", float attempts);
                  ("storm.refused", float s.s_refused);
                  ("storm.accept_refused", float s.s_accept_refused);
                  ("storm.useful_ratio", ratio (float s.s_completed) (float attempts));
                  ("rs.recoveries", float r.r_recoveries);
                  ("workload.payload_bytes", float s.s_bytes_in);
                  ("sim_restart_ms", mean_restart_ms r.r_spans);
                  ("sim_p50_ms", float s.s_p50 /. 1000.);
                  ("sim_p99_ms", float s.s_p99 /. 1000.);
                ];
            }));
  }

(* The first shards of the paper's campaign (12,500 faults, seed 42),
   in an order the seed sets.  The faults themselves stay fixed: one
   500-fault shard takes from 0.02 s to 0.7 s of host time depending
   on which faults it draws, so a seeded draw of a few shards would
   measure the draw rather than the program. *)
let faultinj ~smoke =
  let shards = if smoke then 1 else 5 in
  let inputs ~seed =
    E.Sec72.trials ~seed:42 ()
    |> List.filteri (fun i _ -> i < shards)
    |> List.mapi (fun i t -> (Rng.derive ~seed ~index:i, t))
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  {
    name = "faultinj";
    unit_name = "faults";
    setup =
      (fun ~seed ->
        ignore (inputs ~seed);
        boot_until_up
          { System.default_opts with System.seed; disk_mb = 8; inet_driver = "eth.dp8390" }
          (System.spec_dp8390 ~policy:"direct" ~heartbeat_period:200_000 ()));
    repeat =
      (fun ~seed ->
        let shards =
          span "campaign" (fun () -> Campaign.(values (run ~jobs:1 ~on_progress (inputs ~seed))))
        in
        let o = span "reduce" (fun () -> E.Sec72.reduce shards) in
        span "verify" (fun () ->
            let open E.Sec72 in
            let snap = Metrics.merge_all (List.map (fun s -> s.snapshot) shards) in
            let restart = mean_restart_ms (Span.concat (List.map (fun s -> s.spans) shards)) in
            {
              work = float o.injected;
              attempted = o.crashes;
              failed = o.crashes - o.recovered;
              checks = [ ("crash_split_ok", ok o) ];
              report =
                Printf.sprintf "%d %d %d %d %d %d %d %d %d %s" o.injected o.crashes o.panics
                  o.exceptions o.heartbeats o.other o.recovered o.user_resets o.bios_resets
                  (String.concat ","
                     (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) o.by_fault_type));
              layer =
                counters_of_snapshot snap
                @ [
                    ("faultinj.injected", float o.injected);
                    ("faultinj.crashes", float o.crashes);
                    ("faultinj.panics", float o.panics);
                    ("faultinj.exceptions", float o.exceptions);
                    ("faultinj.heartbeats", float o.heartbeats);
                    ("faultinj.detect_ratio", ratio (float o.crashes) (float o.injected));
                    ("rs.recoveries", float o.recovered);
                    ("sim_restart_ms", restart);
                  ];
            }));
  }

(* Exploration with the coverage bench's settings (a 1 ms span bound,
   batches of 16), sampling fresh runs only: now and then a corpus
   mutant runs to the scenario's 60 s virtual timeout, which costs
   about 30 s of host time and 400 MB, so with mutation on a repeat's
   cost is set by whether its draw holds such a mutant.  Signatures
   and the corpus are still tracked.  A run that raises is one of the
   explorer's findings ("scenario-crash"), not a failed operation:
   finding them is what it is for. *)
let explore ~smoke =
  let runs = if smoke then 8 else 32 in
  let sc = if smoke then Dst.Scenario.wget_sized ~size:(64 * 1024) () else Dst.Scenario.wget_kills in
  {
    name = "explore";
    unit_name = "runs";
    setup =
      (fun ~seed ->
        boot_until_up
          {
            System.default_opts with
            System.seed;
            engine_policy = Engine.Seeded seed;
            peer_files = [ ("file.bin", (mb, 77)) ];
            disk_mb = 8;
          }
          (System.spec_rtl8139 ~policy:"direct" ()));
    repeat =
      (fun ~seed ->
        let crashes = ref 0 in
        let on_progress (p : Campaign.progress) =
          if p.Campaign.p_failed then incr crashes;
          on_progress p
        in
        let g =
          span "campaign" (fun () ->
              Dst.Explore.run_guided ~jobs:1 ~on_progress ~bound:1000 ~batch:16 ~fresh_only:true sc ~seed
                ~runs ())
        in
        span "verify" (fun () ->
            let open Dst.Explore in
            let judged = g.g_fresh + g.g_mutants in
            let signatures = List.length g.g_signatures in
            {
              work = float judged;
              attempted = runs;
              failed = runs - judged;
              checks = [ ("all_judged", judged = runs); ("signatures_found", signatures > 0) ];
              report = guided_summary g;
              layer =
                [
                  ("signatures", float signatures);
                  ("dst.failing_signatures", float (List.length g.g_failing));
                  ("dst.crash_findings", float !crashes);
                ];
            }));
  }

let workloads = [ wget_kill; dd_kill; storm; faultinj; explore ]

(* ------------------------------------------------------------------ *)
(* Layer microbenches                                                  *)
(* ------------------------------------------------------------------ *)

(* Timer storm: [timers] timers firing and rescheduling themselves
   across 7 colliding instants until [total] events have fired, so the
   same-instant path (and under Seeded, the decision trace) is part of
   the work. *)
let timer_storm ~policy ~timers ~total () =
  let engine = Engine.create ~policy () in
  let fired = ref 0 in
  let rec tick i () =
    incr fired;
    if !fired + timers <= total then
      ignore (Engine.schedule engine ~after:(1 + ((i + !fired) mod 7)) (tick i))
  in
  for i = 0 to timers - 1 do
    ignore (Engine.schedule engine ~after:(1 + (i mod 7)) (tick i))
  done;
  Engine.run engine;
  !fired

let all_priv = { Privilege.none with Privilege.ipc_to = Privilege.All; kcalls = Privilege.All }

let spawn kernel name body =
  Kernel.register_program kernel name body;
  match Kernel.spawn_dynamic kernel ~name ~program:name ~args:[] ~priv:all_priv ~mem_kb:64 with
  | Ok ep -> ep
  | Error _ -> failwith ("spawn " ^ name)

let fresh_kernel () =
  let engine = Engine.create () in
  (engine, Kernel.create ~engine ~trace:(SimTrace.create ()) ~rng:(Rng.create ~seed:7) ())

(* Kernel IPC ping-pong: [rounds] sendrec round trips to an echo
   server, each a rendezvous and a reply through the kernel. *)
let ipc_pingpong ~rounds () =
  let engine, kernel = fresh_kernel () in
  let echo =
    spawn kernel "echo" (fun () ->
        let rec loop () =
          (match Api.receive Sysif.Any with
          | Ok (Sysif.Rx_msg { src; _ }) -> ignore (Api.send src Msg.Ok_reply)
          | _ -> ());
          loop ()
        in
        loop ())
  in
  let done_rounds = ref 0 in
  ignore
    (spawn kernel "ping" (fun () ->
         for _ = 1 to rounds do
           match Api.sendrec echo Msg.Ok_reply with Ok _ -> incr done_rounds | Error _ -> ()
         done));
  Engine.run engine;
  !done_rounds

(* A counting loop of known length run by the driver-VM interpreter
   inside a kernel fiber, where driver code runs.  Returns the
   instructions executed per host second and whether r0 counted
   right. *)
let vm_loop ~iters () =
  let engine, kernel = fresh_kernel () in
  let result = ref None in
  ignore
    (spawn kernel "count" (fun () ->
         let code =
           Isa.
             [
               Movi (R1, iters);
               Movi (R2, 1);
               Movi (R0, 0);
               Label "loop";
               Addi (R0, 1);
               Sub (R1, R2);
               Jnz (R1, "loop");
               Ret;
             ]
         in
         let program = Interp.load ~base:0x1000 (Isa.assemble code) in
         result := Some (timed (fun () -> Interp.run program ~regs:(Array.make 8 0)))));
  Engine.run engine;
  match !result with
  | Some (secs, r0) -> (float (4 + (3 * iters)) /. secs, r0 = iters)
  | None -> (0., false)

(* Two Tcp.t ends joined back to back.  Every segment is encoded to
   link bytes and decoded (CRC-checked) on the way, as between a NIC
   and INET.  Delivery is instant and lossless, so no timer is due.
   The client sends [bytes] and closes; returns the segments carried
   and whether the server read exactly what was sent. *)
let tcp_flow ~isn ~bytes ~chunk =
  let q = Queue.create () in
  let clock = ref 0 and segments = ref 0 in
  let callbacks ~to_server =
    let src, dst = if to_server then (1, 2) else (2, 1) in
    {
      Tcp.emit =
        (fun seg ->
          Queue.push
            ( to_server,
              Wire.encode
                {
                  Wire.dst_mac = dst;
                  src_mac = src;
                  packet = { Wire.src_ip = src; dst_ip = dst; body = Wire.Tcp seg };
                } )
            q);
      set_timer = (fun _ -> ());
      notify = (fun _ -> ());
    }
  in
  let server =
    Tcp.create_passive
      (Tcp.default_config ~local_port:80 ~remote_port:40000 ~isn:(isn + 1))
      ~now:0 (callbacks ~to_server:false)
  in
  let client =
    Tcp.create_active
      (Tcp.default_config ~local_port:40000 ~remote_port:80 ~isn)
      ~now:0 (callbacks ~to_server:true)
  in
  let sent = ref 0 and got = ref 0 and closed = ref false in
  let h_sent = ref Fnv.start and h_got = ref Fnv.start in
  let rec loop () =
    if Tcp.is_established client && !sent < bytes then begin
      let n = Tcp.send client ~now:!clock chunk ~off:0 ~len:(min (Bytes.length chunk) (bytes - !sent)) in
      h_sent := Fnv.update !h_sent chunk ~off:0 ~len:n;
      sent := !sent + n
    end;
    if !sent = bytes && not !closed then begin
      Tcp.close client ~now:!clock;
      closed := true
    end;
    let data = Tcp.recv server ~max:(Tcp.rx_available server) in
    h_got := Fnv.update !h_got data ~off:0 ~len:(Bytes.length data);
    got := !got + Bytes.length data;
    if Tcp.peer_closed server then !got = bytes && !h_got = !h_sent
    else if Queue.is_empty q then false
    else begin
      let to_server, frame = Queue.pop q in
      incr segments;
      incr clock;
      match Wire.decode frame with
      | Ok { Wire.packet = { Wire.body = Wire.Tcp seg; _ }; _ } ->
          Tcp.handle_segment (if to_server then server else client) ~now:!clock seg;
          loop ()
      | _ -> false
    end
  in
  let ok = loop () in
  (!segments, ok)

let tcp_chunk = Bytes.init 65536 (fun i -> Char.chr ((i * 31) land 0xFF))

let tcp_bulk ~bytes () =
  let secs, (segments, ok) = timed (fun () -> tcp_flow ~isn:1000 ~bytes ~chunk:tcp_chunk) in
  (float segments /. secs, ok)

(* Flows that delivered exactly what was sent. *)
let tcp_flows ~flows () =
  List.length
    (List.filter
       (fun i -> snd (tcp_flow ~isn:(1000 + i) ~bytes:16384 ~chunk:tcp_chunk))
       (List.init flows Fun.id))

let checksum_data = String.init (4 * mb) (fun i -> Char.chr ((i * 7) land 0xFF))

(* MB/s over a 4 MB buffer; the check is the algorithm's published test
   vector, so a fast wrong digest cannot pass. *)
let checksum_mbs digest ~vector () =
  let secs, () = timed (fun () -> ignore (digest checksum_data)) in
  (4. /. secs, vector ())

let boot_ms () =
  let secs, () =
    timed (fun () -> boot_until_up System.default_opts (System.spec_rtl8139 ~policy:"direct" ()))
  in
  (secs *. 1000., true)

(* One sample of a microbench that should complete [n] operations:
   operations per host second, and whether all [n] completed. *)
let per_second n f () =
  let secs, completed = timed f in
  (float completed /. secs, completed = n)

(* Each microbench returns one sample of its metric and a check; the
   metric is the median of five samples. *)
let layer_benches ~smoke =
  let scale n = if smoke then max 1 (n / 50) else n in
  let events = scale 1_000_000 and seeded_events = scale 50_000 in
  let rounds = scale 50_000 and flows = scale 500 in
  [
    ( "sim.fifo_ev_per_s",
      "1/s",
      per_second events (timer_storm ~policy:Engine.Fifo ~timers:512 ~total:events) );
    ( "sim.seeded_ev_per_s",
      "1/s",
      per_second seeded_events (timer_storm ~policy:(Engine.Seeded 7) ~timers:512 ~total:seeded_events)
    );
    ("kernel.ipc_rt_per_s", "1/s", per_second rounds (ipc_pingpong ~rounds));
    ("vm.insn_per_s", "1/s", vm_loop ~iters:(scale 1_000_000));
    ("net.tcp_bulk_seg_per_s", "1/s", tcp_bulk ~bytes:(scale (8 * mb)));
    ("net.tcp_flow_per_s", "1/s", per_second flows (tcp_flows ~flows));
    ( "checksum.fnv_mbs",
      "MB/s",
      checksum_mbs Fnv.string ~vector:(fun () -> Fnv.string "a" = 0xaf63dc4c8601ec8cL) );
    ( "checksum.crc32_mbs",
      "MB/s",
      checksum_mbs Crc32.string ~vector:(fun () -> Crc32.string "123456789" = 0xCBF43926) );
    ( "checksum.md5_mbs",
      "MB/s",
      checksum_mbs Md5.digest_string ~vector:(fun () ->
          Md5.digest_string "abc" = "900150983cd24fb0d6963f7d28e17f72") );
    ( "checksum.sha1_mbs",
      "MB/s",
      checksum_mbs Sha1.digest_string ~vector:(fun () ->
          Sha1.digest_string "abc" = "a9993e364706816aba3e25717850c26c9cd0d89d") );
    ("system.boot_ms", "ms", boot_ms);
  ]

let run_layers ~smoke =
  List.map
    (fun (name, unit, bench) ->
      span ("layer:" ^ name) (fun () ->
          let samples = List.init 5 (fun _ -> bench ()) in
          (name, unit, median (List.map fst samples), List.for_all snd samples)))
    (layer_benches ~smoke)

(* ------------------------------------------------------------------ *)
(* Record                                                              *)
(* ------------------------------------------------------------------ *)

type json = Num of float | Int of int | Str of string | Bool of bool | Obj of (string * json) list | Arr of json list

let rec add_json buf = function
  | Num f -> Buffer.add_string buf (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Str s -> Buffer.add_string buf (Printf.sprintf "\"%s\"" (Resilix_obs.Event.json_escape s))
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri (fun i x -> if i > 0 then Buffer.add_char buf ','; add_json buf x) xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_json buf (Str k);
          Buffer.add_char buf ':';
          add_json buf v)
        kvs;
      Buffer.add_char buf '}'

(* The samples of an end-to-end metric; run.py summarizes them. *)
let samples unit xs = Obj [ ("unit", Str unit); ("samples", Arr (List.map (fun x -> Num x) xs)) ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line -> (
        try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> find ())
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Timed from a collected heap, so no measurement pays for garbage an
   earlier one left behind. *)
let measured f =
  Gc.full_major ();
  timed f

(* Repeat [i] of a run works on input seed [derive seed i], so one run
   samples many inputs: host cost depends on the input as well as on
   the program, and a run on one input would measure the input. *)
let input ~seed i = Rng.derive ~seed ~index:i

let run (w : workload) ~seed ~seconds ~trace ~smoke =
  let attempted = ref 0 and failed = ref 0 in
  let checks = Hashtbl.create 8 in
  let check name ok =
    Hashtbl.replace checks name (ok && Option.value ~default:true (Hashtbl.find_opt checks name))
  in
  let account (o : outcome) =
    attempted := !attempted + o.attempted;
    failed := !failed + o.failed;
    List.iter (fun (name, ok) -> check name ok) o.checks
  in
  let warm = w.repeat ~seed:(input ~seed 0) in
  account warm;
  (* A set-up before each timed repeat spreads the set-up samples over
     the run: one takes under a millisecond, short enough that a few
     samples taken together can all land in one stall of the host. *)
  let setups = ref [] and rates = ref [] in
  let t_start = now () in
  while !rates = [] || now () -. t_start < seconds do
    let seed = input ~seed (List.length !rates + 1) in
    setups := fst (measured (fun () -> w.setup ~seed)) :: !setups;
    let secs, o = measured (fun () -> w.repeat ~seed) in
    account o;
    rates := (o.work /. secs) :: !rates
  done;
  let rss = peak_rss_mb () in
  (* The warm-up's input once more, untraced and then (when asked)
     traced: each report must be byte-identical to the warm-up's.  The
     traced replay gives the per-layer counts, and its time against the
     untraced replay's is the tracing overhead. *)
  let replay () =
    let secs, o = measured (fun () -> span "repeat" (fun () -> w.repeat ~seed:(input ~seed 0))) in
    account o;
    check "deterministic" (String.equal o.report warm.report);
    (secs, o)
  in
  let untraced_secs, _ = replay () in
  let per_layer =
    if not trace then []
    else begin
      tracing := true;
      span "setup" (fun () -> w.setup ~seed:(input ~seed 0));
      let secs, traced = replay () in
      let trials =
        List.filter_map
          (fun (s : span) ->
            if String.starts_with ~prefix:"trial:" s.name then Some (s.t1 -. s.t0) else None)
          !spans
      in
      let layers = span "layers" (fun () -> run_layers ~smoke) in
      List.iter (fun (name, _, _, ok) -> check name ok) layers;
      tracing := false;
      let value name = Option.value ~default:0. (List.assoc_opt name traced.layer) in
      List.map (fun (name, unit) -> (name, unit, value name)) repeat_layer_units
      @ [
          ("harness.trial_s_p50", "s", percentile trials 0.5);
          ("harness.trial_s_p90", "s", percentile trials 0.9);
          ("bench.trace_overhead_pct", "%", 100. *. ratio (secs -. untraced_secs) untraced_secs);
          ("error_rate", "ratio", ratio (float !failed) (float !attempted));
        ]
      @ List.map (fun (name, unit, v, _) -> (name, unit, v)) layers
    end
  in
  let checks = Hashtbl.fold (fun k v acc -> (k, v) :: acc) checks [] |> List.sort compare in
  Printf.printf "%s: %d timed repeat(s) of %.3f %s each, %s\n" w.name (List.length !rates) warm.work
    w.unit_name
    (if List.for_all snd checks then "all checks passed" else "CHECK FAILED");
  let record =
    Obj
      [
        ("workload", Str w.name);
        ("unit_of_work", Str w.unit_name);
        ("seed", Int seed);
        ("seconds", Num seconds);
        ("smoke", Bool smoke);
        ("cores", Int (Domain.recommended_domain_count ()));
        ("jobs", Int 1);
        ("repeats", Int (List.length !rates));
        ("attempted", Int !attempted);
        ("failed", Int !failed);
        ("checks", Obj (List.map (fun (k, v) -> (k, Bool v)) checks));
        ("sim_fingerprint", Str (Printf.sprintf "%016Lx" (Fnv.string warm.report)));
        ( "end_to_end",
          Obj
            [
              ("work_per_s", samples "units/s" !rates);
              ("setup_s", samples "s" !setups);
              ("peak_rss_mb", samples "MB" [ rss ]);
            ] );
        ( "per_layer",
          Obj (List.map (fun (name, unit, v) -> (name, Obj [ ("unit", Str unit); ("value", Num v) ])) per_layer)
        );
        ( "spans",
          Arr
            (List.rev_map
               (fun s ->
                 Obj
                   [
                     ("id", Int s.id);
                     ("parent", Int s.parent);
                     ("name", Str s.name);
                     ("start_s", Num (s.t0 -. t_origin));
                     ("end_s", Num (s.t1 -. t_origin));
                   ])
               !spans) );
      ]
  in
  let buf = Buffer.create 4096 in
  add_json buf record;
  print_endline (Buffer.contents buf);
  List.for_all snd checks

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n\
     workloads: wget-kill dd-kill storm faultinj explore";
  exit 2

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 15. and trace = ref false in
  let smoke = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> (match int_of_string_opt n with Some s -> seed := s | None -> usage ()); go rest
    | "--seconds" :: s :: rest -> (match float_of_string_opt s with Some s when s >= 0. -> seconds := s | _ -> usage ()); go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; go rest
    | "--smoke" :: rest -> smoke := true; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let smoke = !smoke in
  match List.find_opt (fun w -> Some w.name = !workload) (List.map (fun w -> w ~smoke) workloads) with
  | None -> usage ()
  | Some w -> if not (run w ~seed:!seed ~seconds:!seconds ~trace:!trace ~smoke) then exit 1
