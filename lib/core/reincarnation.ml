module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Endpoint = Resilix_proto.Endpoint
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Privilege = Resilix_proto.Privilege
module Signal = Resilix_proto.Signal
module Spec = Resilix_proto.Spec
module Status = Resilix_proto.Status
module Wellknown = Resilix_proto.Wellknown
module Event = Resilix_obs.Event
module Metrics = Resilix_obs.Metrics
module Span = Resilix_obs.Span

type service_status = Up | Restarting | Down | Degraded

(*@recovery-begin*)
(* After this much stable uptime the failure count resets, so an old
   crash does not inflate the backoff of an unrelated one much later. *)
let failure_count_decay = 60_000_000

(* Circuit breaker (policy v2).  The state machine lives here and not
   in the policy script: scripts are a fresh child process per failure
   and cannot carry state across invocations. *)
type breaker_state = B_closed | B_open | B_half_open

(* A liveness probe: the heartbeat and the breaker's health probe.  A
   request left unanswered when the next one is due is a miss. *)
type probe = { mutable outstanding : bool; mutable misses : int }

let fresh_probe () = { outstanding = false; misses = 0 }

let reset_probe p =
  p.outstanding <- false;
  p.misses <- 0

let breaker_state_name = function
  | B_closed -> "closed"
  | B_open -> "open"
  | B_half_open -> "half-open"

(* Gauge encoding: 0 closed / 1 open / 2 half-open. *)
let breaker_state_gauge = function B_closed -> 0 | B_open -> 1 | B_half_open -> 2

type breaker = {
  bk_config : Policy.breaker_config;
  mutable bk_state : breaker_state;
  mutable bk_window : int list; (* failure times inside the window, newest first *)
  mutable bk_trips : int; (* closed->open and half-open->open transitions *)
  mutable bk_probes : int; (* half-open probe restarts attempted *)
  mutable bk_opened_at : int; (* time of the most recent trip *)
  mutable bk_degraded_since : int; (* first trip of the current degraded episode *)
  mutable bk_probe_started_at : int; (* when the probe incarnation came up *)
  (* proactive health probe (between heartbeats) *)
  bk_hp : probe;
  mutable bk_hp_cycle : int; (* heartbeat cycle already probed (hb_last_request) *)
  (* state-gauge handle, resolved on first transition (the gauge name
     embeds the service name) and bumped directly thereafter *)
  mutable bk_gauge : Metrics.gauge option;
}

let fresh_breaker config =
  {
    bk_config = config;
    bk_state = B_closed;
    bk_window = [];
    bk_trips = 0;
    bk_probes = 0;
    bk_opened_at = 0;
    bk_degraded_since = 0;
    bk_probe_started_at = 0;
    bk_hp = fresh_probe ();
    bk_hp_cycle = 0;
    bk_gauge = None;
  }

(*@recovery-end*)
type service = {
  spec : Spec.t;
  mutable endpoint : Endpoint.t option;
  mutable pid : int;
  mutable status : service_status;
  mutable failures : int;
  mutable last_failure_at : int;
(*@recovery-begin*)
  (* heartbeat machinery *)
  hb : probe;
  mutable hb_last_request : int;
  (* defect-class override for kills RS initiated itself *)
  mutable pending_defect : Status.defect option;
(*@recovery-end*)
  (* dynamic update: binary to use on next restart *)
  mutable pending_program : string option;
  mutable term_deadline : int option;
  (* circuit breaker, when the service's policy requests one *)
  breaker : breaker option;
}

type t = {
  register_program : string -> (unit -> unit) -> unit;
  policies : (string, Policy.t) Hashtbl.t;
  complainers : Endpoint.t list;
  services : (string, service) Hashtbl.t;
  mutable script_counter : int;
  mutable reboots : int;
  spans : Span.t;
  c_hp_misses : Metrics.counter;
  c_hp_sent : Metrics.counter;
  h_degraded_us : Metrics.histogram;
}

(* RS's polling period, and how long a SIGTERMed component gets before
   SIGKILL. *)
let heartbeat_tick = 100_000
let term_grace = 2_000_000

let create ~register_program ?(policies = []) ?(complainers = []) ~spans ~metrics () =
  let table = Hashtbl.create 8 in
  List.iter (fun (name, p) -> Hashtbl.replace table name p) policies;
  {
    register_program;
    policies = table;
    complainers;
    services = Hashtbl.create 16;
    script_counter = 0;
    reboots = 0;
    spans;
    c_hp_misses = Metrics.counter metrics "rs.health_probe.misses";
    c_hp_sent = Metrics.counter metrics "rs.health_probe.sent";
    h_degraded_us = Metrics.histogram metrics "rs.degraded_us";
  }

let reboots t = t.reboots
let spans t = t.spans

let service_up t name =
  match Hashtbl.find_opt t.services name with Some s -> s.status = Up | None -> false

let service_state t name =
  match Hashtbl.find_opt t.services name with
  | Some { status = Up; _ } -> `Up
  | Some { status = Restarting; _ } -> `Restarting
  | Some { status = Down; _ } -> `Down
  | Some { status = Degraded; _ } -> `Degraded
  | None -> `Unknown

let degraded_components t =
  List.sort String.compare
    (Hashtbl.fold
       (fun name s acc -> if s.status = Degraded then name :: acc else acc)
       t.services [])

(* Read-only breaker snapshot for the DST invariants and the health
   tooling; callable from outside the simulation (no [Api]). *)
type breaker_stat = {
  bs_component : string;
  bs_state : breaker_state;
  bs_trips : int;
  bs_probes : int;
  bs_threshold : int;
  bs_window_us : int;
  bs_cooldown_us : int;
  bs_opened_at : int; (* time of the most recent trip; 0 if never tripped *)
  bs_degraded_since : int option; (* current degraded episode, if any *)
}

let breaker_stats t =
  List.sort
    (fun a b -> String.compare a.bs_component b.bs_component)
    (Hashtbl.fold
       (fun name s acc ->
         match s.breaker with
         | None -> acc
         | Some b ->
             {
               bs_component = name;
               bs_state = b.bk_state;
               bs_trips = b.bk_trips;
               bs_probes = b.bk_probes;
               bs_threshold = b.bk_config.Policy.trip_threshold;
               bs_window_us = b.bk_config.Policy.window_us;
               bs_cooldown_us = b.bk_config.Policy.cooldown_us;
               bs_opened_at = b.bk_opened_at;
               bs_degraded_since =
                 (match b.bk_state with
                 | B_open | B_half_open -> Some b.bk_degraded_since
                 | B_closed -> None);
             }
             :: acc)
       t.services [])

(* A restart is a closed span that got as far as a respawn; a failure
   the breaker absorbed closes at the trip without one. *)
let restarted (s : Span.span) =
  s.Span.closed_at <> None && List.mem_assoc Span.Respawn s.Span.marks

let restarts_of t name =
  List.length
    (List.filter
       (fun s -> String.equal s.Span.component name && restarted s)
       (Span.spans t.spans))

let log fmt = Api.trace "rs" fmt

(* ------------------------------------------------------------------ *)
(* Talking to the process manager                                      *)
(* ------------------------------------------------------------------ *)

let pm_spawn ~name ~program ~args ~priv ~mem_kb =
  Api.call Wellknown.pm (Message.Pm_spawn { name; program; args; priv; mem_kb }) (function
    | Message.Pm_spawn_reply { result } -> Some result
    | _ -> None)

let pm_kill ~pid ~signal =
  Api.call Wellknown.pm (Message.Pm_kill { pid; signal }) (function
    | Message.Pm_reply { result } -> Some result
    | _ -> None)

let pm_wait_any () =
  Api.call Wellknown.pm (Message.Pm_waitpid { pid = -1 }) (function
    | Message.Pm_wait_reply { result } -> Some result
    | _ -> None)

let ds_publish key value = ignore (Api.ds_publish key value)
let ds_delete key = ignore (Api.ds_delete key)

(* ------------------------------------------------------------------ *)
(* Starting and restarting services                                    *)
(* ------------------------------------------------------------------ *)

(* Start (or restart) the service's process and publish the new
   endpoint so dependents can reintegrate it (Sec. 5.3). *)
let start_process t service ~program =
  let spec = service.spec in
  match
    pm_spawn ~name:spec.Spec.name ~program ~args:spec.Spec.args ~priv:spec.Spec.privileges
      ~mem_kb:spec.Spec.mem_kb
  with
  | Error e ->
      log "failed to start %s: %s" spec.Spec.name (Errno.to_string e);
      service.status <- Down;
      service.endpoint <- None;
      Error e
  | Ok (ep, pid) ->
      service.endpoint <- Some ep;
      service.pid <- pid;
      service.status <- Up;
      reset_probe service.hb;
      service.hb_last_request <- Api.now ();
      service.term_deadline <- None;
      Option.iter (fun b -> reset_probe b.bk_hp) service.breaker;
      Span.mark_component t.spans spec.Spec.name Span.Respawn ~now:(Api.now ());
      (* Publication is what triggers dependent recovery. *)
      ds_publish spec.Spec.name (Message.V_endpoint ep);
      Span.mark_component t.spans spec.Spec.name Span.Republish ~now:(Api.now ());
      Api.emit "rs" (Event.Restart { component = spec.Spec.name; ep; pid });
      Ok (ep, pid)

(*@recovery-begin*)
(* The binary for the next incarnation: a pending dynamic update's, or
   the spec's own. *)
let take_program service =
  let program = Option.value service.pending_program ~default:service.spec.Spec.program in
  service.pending_program <- None;
  program

let restart_now t service =
  let program = take_program service in
  (* The policy phase ends the moment the restart is actually ordered
     (directly or via the policy script's Rs_service_restart). *)
  Span.mark_component t.spans service.spec.Spec.name Span.Policy ~now:(Api.now ());
  match start_process t service ~program with
  | Ok _ ->
      Span.close_component t.spans service.spec.Spec.name ~now:(Api.now ());
      Ok ()
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Circuit breaker transitions (policy v2)                             *)
(* ------------------------------------------------------------------ *)

let breaker_gauge name = Printf.sprintf "rs.breaker.%s.state" name
let degraded_key name = "degraded." ^ name

let set_breaker_state t service b to_ =
  let name = service.spec.Spec.name in
  let from_ = b.bk_state in
  if from_ <> to_ then begin
    b.bk_state <- to_;
    (let g =
       match b.bk_gauge with
       | Some g -> g
       | None ->
           let g = Api.metric_gauge (breaker_gauge name) in
           b.bk_gauge <- Some g;
           g
     in
     Metrics.set g (breaker_state_gauge to_));
    Api.emit ~level:Event.Warn "rs"
      (Event.Breaker
         {
           component = name;
           from_state = breaker_state_name from_;
           to_state = breaker_state_name to_;
         });
    match Span.current t.spans name with
    | Some span ->
        Span.tag span "policy" service.spec.Spec.policy;
        Span.tag span "breaker" (breaker_state_name to_)
    | None -> ()
  end

(* Open the breaker: park the service [Degraded], unpublish its
   endpoint, and publish a ["degraded.<name>"] record so VFS/INET and
   applications can fail new work cleanly instead of blocking. *)
let breaker_trip t service b =
  let name = service.spec.Spec.name in
  let now = Api.now () in
  b.bk_trips <- b.bk_trips + 1;
  if b.bk_state = B_closed then b.bk_degraded_since <- now;
  b.bk_opened_at <- now;
  b.bk_window <- [];
  service.status <- Degraded;
  service.endpoint <- None;
  set_breaker_state t service b B_open;
  log "breaker for %s tripped (%d failures within %dus); degrading" name
    b.bk_config.Policy.trip_threshold b.bk_config.Policy.window_us;
  ds_delete name;
  ds_publish (degraded_key name) (Message.V_int now);
  (* The recovery span ends here: degradation is this failure's
     terminal state.  The half-open probe opens no span of its own. *)
  Span.mark_component t.spans name Span.Policy ~now;
  Span.close_component t.spans name ~now

(* One failure landed on a breaker-guarded service.  Returns [true]
   when the breaker absorbed it (tripped or re-opened) and no policy
   script should run. *)
let breaker_on_failure t service b =
  let now = Api.now () in
  match b.bk_state with
  | B_half_open ->
      (* The probe incarnation failed: straight back to open, with a
         fresh cooldown. *)
      breaker_trip t service b;
      true
  | B_open ->
      (* A straggler defect while already parked; stay open. *)
      breaker_trip t service b;
      true
  | B_closed ->
      b.bk_window <-
        now :: List.filter (fun ts -> now - ts <= b.bk_config.Policy.window_us) b.bk_window;
      if List.length b.bk_window >= b.bk_config.Policy.trip_threshold then begin
        breaker_trip t service b;
        true
      end
      else false

(* Cooldown expired: half-open, restart the component once as a probe.
   [handle_tick] closes the breaker if the probe survives
   [confirm_us]; a failure in between re-opens it. *)
let breaker_probe t service b =
  let name = service.spec.Spec.name in
  let now = Api.now () in
  b.bk_probes <- b.bk_probes + 1;
  set_breaker_state t service b B_half_open;
  log "breaker for %s half-open: probing with a fresh incarnation" name;
  let program = take_program service in
  service.status <- Restarting;
  match start_process t service ~program with
  | Ok _ -> b.bk_probe_started_at <- Api.now ()
  | Error _ ->
      (* Could not even spawn: back to open, retry after another
         cooldown. *)
      service.status <- Degraded;
      b.bk_opened_at <- now;
      set_breaker_state t service b B_open

(* The probe incarnation survived [confirm_us]: close the breaker and
   lift the degradation.  Publishing a 0 value before deleting lets
   subscribers (VFS, INET) observe the clearing — deletions alone do
   not fan out. *)
let breaker_close t service b =
  let name = service.spec.Spec.name in
  let now = Api.now () in
  set_breaker_state t service b B_closed;
  b.bk_window <- [];
  Metrics.observe t.h_degraded_us (now - b.bk_degraded_since);
  ds_publish (degraded_key name) (Message.V_int 0);
  ds_delete (degraded_key name);
  log "breaker for %s closed after %dus degraded" name (now - b.bk_degraded_since)

(* Lift a parked service's degradation outright (stop, reboot), without
   a probe: publish 0 first so subscribers see the clearing. *)
let clear_degraded t service b =
  if b.bk_state <> B_closed then begin
    let name = service.spec.Spec.name in
    ds_publish (degraded_key name) (Message.V_int 0);
    ds_delete (degraded_key name);
    set_breaker_state t service b B_closed
  end;
  b.bk_window <- []

(* Launch the policy script in its own child process, mirroring the
   shell scripts of Sec. 5.2. *)
let run_policy_script t service policy ~reason =
  let spec = service.spec in
  t.script_counter <- t.script_counter + 1;
  let key = Printf.sprintf "policy#%s#%d" spec.Spec.name t.script_counter in
  let ctx =
    {
      Policy.component = spec.Spec.name;
      reason;
      repetition = service.failures;
    }
  in
  t.register_program key (fun () -> Policy.run ctx policy);
  let script_priv =
    {
      Privilege.none with
      Privilege.uid = 30;
      ipc_to = Privilege.Only [ Wellknown.name_rs; Wellknown.name_ds ];
      kcalls = Privilege.Only [ "alarm" ];
    }
  in
  match pm_spawn ~name:key ~program:key ~args:[] ~priv:script_priv ~mem_kb:16 with
  | Ok _ -> ()
  | Error e ->
      (* Cannot run the script (out of slots?): recover directly rather
         than leaving the system headless. *)
      Api.emit ~level:Event.Warn "rs"
        (Event.Policy_decision
           {
             component = spec.Spec.name;
             policy = spec.Spec.policy;
             decision =
               Printf.sprintf "script failed to start (%s); restarting directly"
                 (Errno.to_string e);
           });
      ignore (restart_now t service)

(* A defect was detected: record it and initiate policy-driven
   recovery (Sec. 5.2). *)
let initiate_recovery t service ~defect =
  let spec = service.spec in
  if service.failures > 0 && Api.now () - service.last_failure_at > failure_count_decay then
    service.failures <- 0;
  service.failures <- service.failures + 1;
  service.last_failure_at <- Api.now ();
  service.status <- Restarting;
  service.endpoint <- None;
  reset_probe service.hb;
  let span =
    Span.open_span t.spans ~component:spec.Spec.name ~defect ~repetition:service.failures
      ~now:(Api.now ())
  in
  (match service.breaker with
  | Some b ->
      Span.tag span "policy" spec.Spec.policy;
      Span.tag span "breaker" (breaker_state_name b.bk_state)
  | None -> ());
  Api.emit ~level:Event.Warn "rs"
    (Event.Defect { component = spec.Spec.name; defect; repetition = service.failures });
  let absorbed =
    match service.breaker with Some b -> breaker_on_failure t service b | None -> false
  in
  if absorbed then ()
  else if String.equal spec.Spec.policy "" then ignore (restart_now t service)
  else
    match Hashtbl.find_opt t.policies spec.Spec.policy with
    | Some policy -> run_policy_script t service policy ~reason:defect
    | None ->
        Api.emit ~level:Event.Warn "rs"
          (Event.Policy_decision
             {
               component = spec.Spec.name;
               policy = spec.Spec.policy;
               decision = "unknown policy; restarting directly";
             });
        ignore (restart_now t service)

(*@recovery-end*)
(* ------------------------------------------------------------------ *)
(* Defect detection                                                    *)
(* ------------------------------------------------------------------ *)

(*@recovery-begin*)
let find_service_by_pid t pid =
  Hashtbl.fold
    (fun _name s acc -> if s.pid = pid && s.status <> Down then Some s else acc)
    t.services None

(* SIGCHLD: drain every zombie the process manager has for us. *)
let handle_sigchld t =
  let rec drain () =
    match pm_wait_any () with
    | Error _ -> ()
    | Ok (pid, name, status) ->
        (match find_service_by_pid t pid with
        | None ->
            (* A policy script or an unmanaged process ended; nothing
               to recover. *)
            if not (String.length name >= 7 && String.sub name 0 7 = "policy#") then
              log "untracked process %s (pid %d) exited" name pid
        | Some service ->
            if service.status = Down then () (* deliberate stop *)
            else begin
              let defect =
                match service.pending_defect with
                | Some d -> d
                | None -> Status.defect_of_exit status
              in
              service.pending_defect <- None;
              initiate_recovery t service ~defect
            end);
        drain ()
  in
  drain ()

(* A probe went unanswered for a whole period; enough misses in a row
   mean the component is stuck (defect class 4). *)
let probe_missed service p ~what =
  let name = service.spec.Spec.name in
  p.misses <- p.misses + 1;
  Api.emit ~level:Event.Warn "rs" (Event.Heartbeat_miss { component = name; misses = p.misses });
  if p.misses >= service.spec.Spec.max_heartbeat_misses then begin
    log "%s missed %d %s; killing for recovery" name p.misses what;
    service.pending_defect <- Some Status.D_heartbeat;
    ignore (pm_kill ~pid:service.pid ~signal:Signal.Sig_kill)
  end

(* Heartbeat + SIGTERM-grace bookkeeping, run every tick. *)
let handle_tick t =
  let now = Api.now () in
  Hashtbl.iter
    (fun _name service ->
      (* Escalate dynamic updates that ignored SIGTERM. *)
      (match service.term_deadline with
      | Some deadline when now >= deadline && service.status = Up ->
          Api.emit ~level:Event.Warn "rs"
            (Event.Policy_decision
               {
                 component = service.spec.Spec.name;
                 policy = "update";
                 decision = "ignored SIGTERM; escalating to SIGKILL";
               });
          service.term_deadline <- None;
          ignore (pm_kill ~pid:service.pid ~signal:Signal.Sig_kill)
      | Some _ | None -> ());
      (* Heartbeats (defect class 4). *)
      let period = service.spec.Spec.heartbeat_period in
      if service.status = Up && period > 0 && now - service.hb_last_request >= period then begin
        if service.hb.outstanding then probe_missed service service.hb ~what:"heartbeats";
        match service.endpoint with
        | Some ep when service.status = Up ->
            service.hb.outstanding <- true;
            service.hb_last_request <- now;
            (match Api.notify ep Message.N_heartbeat_request with
            | Ok () -> ()
            | Error _ ->
                (* Endpoint already dead; SIGCHLD is on its way. *)
                ())
        | Some _ | None -> ()
      end;
      (* Circuit breaker (policy v2): cooldown expiry, probe
         confirmation, and proactive health probes between
         heartbeats. *)
      match service.breaker with
      | None -> ()
      | Some b -> (
          match b.bk_state with
          | B_open
            when service.status = Degraded
                 && now - b.bk_opened_at >= b.bk_config.Policy.cooldown_us ->
              breaker_probe t service b
          | B_half_open
            when service.status = Up
                 && now - b.bk_probe_started_at >= b.bk_config.Policy.confirm_us ->
              breaker_close t service b
          | _ ->
              (* Health probe at the midpoint of each heartbeat cycle:
                 catches a stuck component about half a period before
                 the heartbeat machinery would. *)
              if
                service.status = Up && period > 0
                && service.hb_last_request > b.bk_hp_cycle
                && now - service.hb_last_request >= period / 2
              then begin
                if b.bk_hp.outstanding then begin
                  Metrics.incr t.c_hp_misses;
                  probe_missed service b.bk_hp ~what:"health probes"
                end;
                match service.endpoint with
                | Some ep when service.status = Up ->
                    b.bk_hp.outstanding <- true;
                    b.bk_hp_cycle <- service.hb_last_request;
                    Metrics.incr t.c_hp_sent;
                    ignore (Api.notify ep Message.N_health_probe)
                | Some _ | None -> ()
              end))
    t.services;
  ignore (Api.alarm heartbeat_tick)

(* A heartbeat or health-probe reply from [src]: [probe_of] picks which
   of the sender's probes it answers. *)
let handle_probe_reply t src probe_of =
  Hashtbl.iter
    (fun _name service ->
      match (service.endpoint, probe_of service) with
      | Some ep, Some p when Endpoint.equal ep src -> reset_probe p
      | _ -> ())
    t.services

(*@recovery-end*)
(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let rs_reply src result = ignore (Api.send src (Message.Rs_reply { result }))

let handle_up t ~src spec =
  match Hashtbl.find_opt t.services spec.Spec.name with
  | Some existing when existing.status <> Down -> rs_reply src (Error Errno.E_busy)
  | Some _ | None ->
      let breaker =
        match Hashtbl.find_opt t.policies spec.Spec.policy with
        | Some policy -> Option.map fresh_breaker (Policy.breaker_config policy)
        | None -> None
      in
      let service =
        {
          spec;
          endpoint = None;
          pid = -1;
          status = Down;
          failures = 0;
          last_failure_at = 0;
          hb = fresh_probe ();
          hb_last_request = 0;
          pending_defect = None;
          pending_program = None;
          term_deadline = None;
          breaker;
        }
      in
      Hashtbl.replace t.services spec.Spec.name service;
      (match start_process t service ~program:spec.Spec.program with
      | Ok _ -> rs_reply src (Ok ())
      | Error e -> rs_reply src (Error e))

let handle_down t ~src name =
  match Hashtbl.find_opt t.services name with
  | None -> rs_reply src (Error Errno.E_noent)
  | Some service ->
      service.status <- Down;
      if service.pid >= 0 then ignore (pm_kill ~pid:service.pid ~signal:Signal.Sig_kill);
      ds_delete name;
      (* A deliberately stopped service is no longer degraded. *)
      Option.iter (clear_degraded t service) service.breaker;
      rs_reply src (Ok ())

(*@recovery-begin*)
(* Kill a live service so SIGCHLD drives its recovery as [defect]. *)
let kill_for_recovery ~src service defect =
  service.pending_defect <- Some defect;
  match pm_kill ~pid:service.pid ~signal:Signal.Sig_kill with
  | Ok () ->
      (* The old instance is gone the moment the kill lands; stop
         advertising its endpoint so lookups wait for the fresh one. *)
      service.status <- Restarting;
      service.endpoint <- None;
      rs_reply src (Ok ())
  | Error e -> rs_reply src (Error e)

let handle_restart t ~src name =
  match Hashtbl.find_opt t.services name with
  | None -> rs_reply src (Error Errno.E_noent)
  | Some service when service.status = Up ->
      kill_for_recovery ~src service Status.D_killed_by_user
  | Some _ -> rs_reply src (Error Errno.E_busy)

(* Dynamic update (defect class 6): ask the component to exit cleanly,
   escalate to SIGKILL after the grace period, then restart — possibly
   with a new binary ("we can also start a newer or patched version of
   the driver", Sec. 3). *)
let handle_refresh t ~src name program =
  match Hashtbl.find_opt t.services name with
  | None -> rs_reply src (Error Errno.E_noent)
  | Some service when service.status = Up ->
      service.pending_defect <- Some Status.D_update;
      service.pending_program <- program;
      service.term_deadline <- Some (Api.now () + term_grace);
      (match pm_kill ~pid:service.pid ~signal:Signal.Sig_term with
      | Ok () -> rs_reply src (Ok ())
      | Error e -> rs_reply src (Error e))
  | Some _ -> rs_reply src (Error Errno.E_busy)

let handle_complain t ~src name reason =
  if not (List.exists (Endpoint.equal src) t.complainers) then rs_reply src (Error Errno.E_no_perm)
  else
    match Hashtbl.find_opt t.services name with
    | None -> rs_reply src (Error Errno.E_noent)
    | Some service when service.status = Up ->
        log "complaint about %s: %s" name reason;
        kill_for_recovery ~src service Status.D_complaint
    | Some _ ->
        (* Already being recovered; the complaint is moot. *)
        rs_reply src (Ok ())

let handle_service_restart t ~src name =
  match Hashtbl.find_opt t.services name with
  | Some service when service.status = Restarting -> (
      match restart_now t service with
      | Ok () -> rs_reply src (Ok ())
      | Error e -> rs_reply src (Error e))
  | Some _ -> rs_reply src (Error Errno.E_busy)
  | None -> rs_reply src (Error Errno.E_noent)

(*@recovery-begin*)
(* Full system reboot: tear every guarded service down and bring each
   back up from a clean binary — the policy script's last resort. *)
let handle_reboot t ~src =
  t.reboots <- t.reboots + 1;
  log "policy script requested a system reboot";
  (* Phase 1: stop everything (Down suppresses per-service recovery of
     the kills). *)
  Hashtbl.iter
    (fun _name service ->
      let was_live = service.pid >= 0 && service.endpoint <> None in
      service.status <- Down;
      if was_live then ignore (pm_kill ~pid:service.pid ~signal:Signal.Sig_kill))
    t.services;
  (* Phase 2: boot every service afresh with a clean slate. *)
  Hashtbl.iter
    (fun _name service ->
      service.failures <- 0;
      service.pending_defect <- None;
      service.pending_program <- None;
      service.term_deadline <- None;
      Option.iter
        (fun b ->
          clear_degraded t service b;
          reset_probe b.bk_hp)
        service.breaker;
      ignore (start_process t service ~program:service.spec.Spec.program))
    t.services;
  rs_reply src (Ok ())

(*@recovery-end*)
let handle_lookup t ~src name =
  let result =
    match Hashtbl.find_opt t.services name with
    | Some { endpoint = Some ep; pid; _ } -> Ok (ep, pid)
    | Some _ -> Error Errno.E_again
    | None -> Error Errno.E_noent
  in
  ignore (Api.send src (Message.Rs_lookup_reply { result }))

(*@recovery-end*)
(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let body t () =
  ignore (Api.alarm heartbeat_tick);
  let rec loop () =
    (match Api.receive Sysif.Any with
    | Error _ -> ()
    | Ok (Sysif.Rx_notify { kind = Message.N_sig Signal.Sig_chld; _ }) -> handle_sigchld t
    | Ok (Sysif.Rx_notify { kind = Message.N_alarm; _ }) -> handle_tick t
    | Ok (Sysif.Rx_notify { src; kind = Message.N_heartbeat_reply }) ->
        handle_probe_reply t src (fun s -> Some s.hb)
    | Ok (Sysif.Rx_notify { src; kind = Message.N_health_reply }) ->
        handle_probe_reply t src (fun s -> Option.map (fun b -> b.bk_hp) s.breaker)
    | Ok (Sysif.Rx_notify _) -> ()
    | Ok (Sysif.Rx_msg { src; body }) -> begin
        match body with
        | Message.Rs_up spec -> handle_up t ~src spec
        | Message.Rs_down { name } -> handle_down t ~src name
        | Message.Rs_restart { name } -> handle_restart t ~src name
        | Message.Rs_refresh { name; program } -> handle_refresh t ~src name program
        | Message.Rs_complain { name; reason } -> handle_complain t ~src name reason
        | Message.Rs_service_restart { name } -> handle_service_restart t ~src name
        | Message.Rs_reboot -> handle_reboot t ~src
        | Message.Rs_lookup { name } -> handle_lookup t ~src name
        | _ -> rs_reply src (Error Errno.E_inval)
      end);
    loop ()
  in
  loop ()
