module Fault = Resilix_vm.Fault
module Json = Resilix_obs.Json

type t = {
  scenario : string;
  seed : int;
  bound : int;
  plan : Fault_plan.t;
  decisions : int array;
  violations : Invariant.violation list;
}

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let line ty fields = Json.to_string (Obj (("type", String ty) :: fields))

let fault_line (e : Fault_plan.entry) =
  let action =
    match e.action with
    | Fault_plan.Kill -> Json.[ ("action", String "kill") ]
    | Fault_plan.Inject fi -> Json.[ ("action", String "inject"); ("fault", Int fi) ]
  in
  line "fault" Json.(("at", Int e.at) :: ("target", String e.target) :: action)

let to_lines r =
  let header =
    line "dst-repro"
      Json.
        [
          ("version", Int 1); ("scenario", String r.scenario); ("seed", Int r.seed);
          ("bound", Int r.bound);
        ]
  in
  let values = Json.List (List.map (fun d -> Json.Int d) (Array.to_list r.decisions)) in
  let violation v =
    line "violation"
      Json.[ ("invariant", String v.Invariant.v_invariant); ("detail", String v.Invariant.v_detail) ]
  in
  (header :: List.map fault_line r.plan)
  @ (line "decisions" [ ("values", values) ] :: List.map violation r.violations)

let save r path =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) (to_lines r))

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let str j key =
  match Json.field key j with Some (Json.String s) -> s | _ -> bad "missing string field %S" key

let int j key =
  match Json.field key j with Some (Json.Int i) -> i | _ -> bad "missing integer field %S" key

let parse_line l = match Json.of_string l with Ok j -> j | Error m -> bad "%s" m

let of_lines lines =
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  try
    match List.map parse_line lines with
    | [] -> Error "empty repro file"
    | header :: rest ->
        if Json.field "type" header <> Some (Json.String "dst-repro") then
          bad "not a dst-repro file";
        if Json.field "version" header <> Some (Json.Int 1) then bad "unsupported repro version";
        let scenario = str header "scenario" in
        let seed = int header "seed" in
        let bound = int header "bound" in
        let plan = ref [] and decisions = ref [||] and violations = ref [] in
        List.iter
          (fun j ->
            match str j "type" with
            | "fault" ->
                let at = int j "at" in
                let target = str j "target" in
                let action =
                  match str j "action" with
                  | "kill" -> Fault_plan.Kill
                  | "inject" ->
                      let fi = int j "fault" in
                      if fi < 0 || fi >= Array.length Fault.all then
                        bad "fault index %d out of range" fi;
                      Fault_plan.Inject fi
                  | a -> bad "unknown fault action %S" a
                in
                plan := { Fault_plan.at; target; action } :: !plan
            | "decisions" -> (
                match Json.field "values" j with
                | Some (Json.List vs) ->
                    decisions :=
                      Array.of_list
                        (List.map
                           (function Json.Int d -> d | _ -> bad "non-integer decision")
                           vs)
                | _ -> bad "decisions line without values")
            | "violation" ->
                violations :=
                  { Invariant.v_invariant = str j "invariant"; v_detail = str j "detail" }
                  :: !violations
            | ty -> bad "unknown line type %S" ty)
          rest;
        Ok
          {
            scenario;
            seed;
            bound;
            plan = List.rev !plan;
            decisions = !decisions;
            violations = List.rev !violations;
          }
  with Bad m -> Error m

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_lines (String.split_on_char '\n' text)
  | exception Sys_error m -> Error m
