(*@recovery-begin*)
module Api = Resilix_kernel.Sysif.Api
module Message = Resilix_proto.Message
module Status = Resilix_proto.Status
module Wellknown = Resilix_proto.Wellknown
module Event = Resilix_obs.Event

type action =
  | Backoff of { cap_sec : int }
  | Restart
  | Alert of string
  | Log of string
  | Give_up_after of { max_failures : int }
  | Restart_dependents of string list
  | Reboot_after of { max_failures : int }

type breaker_config = {
  trip_threshold : int;
  window_us : int;
  cooldown_us : int;
  confirm_us : int;
}

type t =
  | Script of action list
  | Breaker of { config : breaker_config; script : action list }

type ctx = {
  component : string;
  reason : Status.defect;
  repetition : int;
}

let script actions = Script actions
let actions = function Script actions -> actions | Breaker { script; _ } -> script
let breaker_config = function Script _ -> None | Breaker { config; _ } -> Some config

let default_breaker_config =
  { trip_threshold = 3; window_us = 10_000_000; cooldown_us = 5_000_000; confirm_us = 1_000_000 }

let direct = Script [ Restart ]

let generic ?alert () =
  let base = [ Backoff { cap_sec = 32 }; Restart ] in
  match alert with None -> Script base | Some a -> Script (base @ [ Alert a ])

let guarded ~max_failures ?alert () =
  Script (Give_up_after { max_failures } :: actions (generic ?alert ()))

let breaker ?(trip_threshold = default_breaker_config.trip_threshold)
    ?(window_us = default_breaker_config.window_us)
    ?(cooldown_us = default_breaker_config.cooldown_us)
    ?(confirm_us = default_breaker_config.confirm_us) () =
  Breaker { config = { trip_threshold; window_us; cooldown_us; confirm_us }; script = [ Restart ] }

let action_name = function
  | Backoff _ -> "backoff"
  | Restart -> "restart"
  | Alert _ -> "alert"
  | Log _ -> "log"
  | Give_up_after _ -> "give-up-after"
  | Restart_dependents _ -> "restart-dependents"
  | Reboot_after _ -> "reboot-after"

let request_restart ctx =
  match
    Api.call Wellknown.rs (Message.Rs_service_restart { name = ctx.component }) (function
      | Message.Rs_reply { result } -> Some result
      | _ -> None)
  with
  | Ok () -> true
  | Error _ ->
      Api.emit ~level:Event.Warn "policy"
        (Event.Policy_decision
           { component = ctx.component; policy = "script"; decision = "restart request failed" });
      false

let publish_alert ctx addr status =
  let text =
    Printf.sprintf "failure: %s, %d, %d; restart status: %s" ctx.component
      (Status.defect_number ctx.reason) ctx.repetition status
  in
  ignore
    (Api.ds_publish
       (Printf.sprintf "alert.%s.%d" ctx.component ctx.repetition)
       (Message.V_str (Printf.sprintf "to:%s %s" addr text)))

let run ctx t =
  (* [restart_status] mirrors the $status variable of Fig. 2. *)
  let restart_status = ref "not-attempted" in
  let rec go = function
    | [] -> ()
    | action :: rest -> (
        Api.emit "policy"
          (Event.Policy_action
             {
               component = ctx.component;
               action = action_name action;
               repetition = ctx.repetition;
             });
        match action with
        | Backoff { cap_sec } ->
            (* "Binary exponential backoff is used before restarting,
               except for dynamic updates." *)
            if ctx.reason <> Status.D_update then begin
              let seconds = min cap_sec (1 lsl max 0 (ctx.repetition - 1)) in
              Api.sleep (seconds * 1_000_000)
            end;
            go rest
        | Restart ->
            restart_status := (if request_restart ctx then "0" else "1");
            go rest
        | Alert addr ->
            publish_alert ctx addr !restart_status;
            go rest
        | Log note ->
            Api.emit "policy"
              (Event.Policy_decision
                 {
                   component = ctx.component;
                   policy = "script";
                   decision =
                     Printf.sprintf "log: failed (reason %d, repetition %d): %s"
                       (Status.defect_number ctx.reason) ctx.repetition note;
                 });
            go rest
        | Give_up_after { max_failures } ->
            if ctx.repetition > max_failures then begin
              Api.emit ~level:Event.Warn "policy"
                (Event.Policy_decision
                   {
                     component = ctx.component;
                     policy = "script";
                     decision =
                       Printf.sprintf "failed %d times; giving up" ctx.repetition;
                   });
              ignore (Service.down ctx.component);
              publish_alert ctx "root" "gave-up"
            end
            else go rest
        | Restart_dependents names ->
            List.iter (fun name -> ignore (Service.restart name)) names;
            go rest
        | Reboot_after { max_failures } ->
            if ctx.repetition > max_failures then begin
              Api.emit ~level:Event.Warn "policy"
                (Event.Policy_decision
                   {
                     component = ctx.component;
                     policy = "script";
                     decision =
                       Printf.sprintf "failed %d times; rebooting the system" ctx.repetition;
                   });
              ignore (Api.sendrec Wellknown.rs Message.Rs_reboot)
            end
            else go rest)
  in
  go (actions t)
