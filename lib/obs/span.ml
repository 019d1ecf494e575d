module Status = Resilix_proto.Status

type phase = Detect | Policy | Respawn | Republish | Reopen

let phase_name = function
  | Detect -> "detect"
  | Policy -> "policy"
  | Respawn -> "respawn"
  | Republish -> "republish"
  | Reopen -> "reopen"

let phase_rank = function
  | Detect -> 0
  | Policy -> 1
  | Respawn -> 2
  | Republish -> 3
  | Reopen -> 4

type span = {
  id : int;
  component : string;
  defect : Status.defect;
  repetition : int;
  opened_at : int;
  mutable marks : (phase * int) list;
  mutable closed_at : int option;
  mutable span_tags : (string * string) list;
}

type t = { mutable next_id : int; mutable all : span list (* newest first *) }

let create () = { next_id = 0; all = [] }

let open_span t ~component ~defect ~repetition ~now =
  let s =
    {
      id = t.next_id;
      component;
      defect;
      repetition;
      opened_at = now;
      marks = [ (Detect, now) ];
      closed_at = None;
      span_tags = [];
    }
  in
  t.next_id <- t.next_id + 1;
  t.all <- s :: t.all;
  s

let mark s phase ~now =
  if not (List.mem_assoc phase s.marks) then s.marks <- (phase, now) :: s.marks

let tag s key value = s.span_tags <- (key, value) :: List.remove_assoc key s.span_tags
let tags s = List.sort compare s.span_tags

let latest t component =
  List.find_opt (fun s -> String.equal s.component component) t.all

let current t component =
  match latest t component with
  | Some s when s.closed_at = None -> Some s
  | _ -> None

let mark_component t component phase ~now =
  match latest t component with
  | None -> ()
  | Some s ->
      if s.closed_at = None then mark s phase ~now
      else if phase = Reopen then
        (* Dependents re-bind after RS has already declared the
           recovery complete; accept one Reopen mark post-close. *)
        mark s Reopen ~now

let close s ~now = if s.closed_at = None then s.closed_at <- Some now

let close_component t component ~now =
  match current t component with None -> () | Some s -> close s ~now

let spans t = List.rev t.all

(* Invariant probes for the DST layer: a recovery campaign is complete
   when every span the run opened was also closed within [within] us
   of detection. *)
let open_spans t = List.rev (List.filter (fun s -> s.closed_at = None) t.all)

let incomplete ~within t =
  List.rev
    (List.filter
       (fun s -> match s.closed_at with None -> true | Some c -> c - s.opened_at > within)
       t.all)

(* Campaign aggregation: one collector holding every source's spans,
   sources in list order, each source's spans oldest-first within it.
   Span ids keep their per-source values (they only disambiguate spans
   within one run); [next_id] is bumped past the largest so spans
   opened on the concatenation stay unique. *)
let concat ts =
  let all =
    List.fold_left (fun acc t -> List.rev_append (List.rev t.all) acc) [] ts
  in
  let next_id = List.fold_left (fun m s -> max m (s.id + 1)) 0 all in
  { next_id; all }

(* DST coverage probe: an order-sensitive FNV-1a fingerprint of the
   run's recovery-span *shape* — which components failed how, in what
   order, through which phases — excluding every timestamp, so two
   runs that recover the same way at different speeds share a shape
   while a different failure order, defect kind, phase set or an
   unclosed span produces a different one.  Fields are separated by a
   0x1f byte so adjacent strings cannot alias. *)
let fp h s = Resilix_checksum.Fnv.update_string (Resilix_checksum.Fnv.update_string h s) "\x1f"

let shape_fingerprint t =
  List.fold_left
    (fun h s ->
      let h = fp h "span" in
      let h = fp h s.component in
      let h = fp h (Status.defect_name s.defect) in
      let h = fp h (string_of_int s.repetition) in
      let marks =
        List.sort (fun (a, _) (b, _) -> compare (phase_rank a) (phase_rank b)) s.marks
      in
      let h = List.fold_left (fun h (p, _) -> fp h (phase_name p)) h marks in
      fp h (match s.closed_at with Some _ -> "closed" | None -> "open"))
    Resilix_checksum.Fnv.start (spans t)

let total_us s = Option.map (fun c -> c - s.opened_at) s.closed_at

let phases s =
  List.sort
    (fun (a, _) (b, _) -> compare (phase_rank a) (phase_rank b))
    (List.map (fun (p, at) -> (p, at - s.opened_at)) s.marks)

type mttr = {
  m_component : string;
  n : int;
  mean_us : int;
  min_us : int;
  max_us : int;
  p95_us : int;
  phase_mean_us : (phase * int) list;
}

let report t =
  let by_component = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match total_us s with
      | None -> ()
      | Some _ ->
          let prev = Option.value (Hashtbl.find_opt by_component s.component) ~default:[] in
          Hashtbl.replace by_component s.component (s :: prev))
    t.all;
  Hashtbl.fold
    (fun component closed acc ->
      let totals = List.sort compare (List.filter_map total_us closed) in
      let n = List.length totals in
      let sum = List.fold_left ( + ) 0 totals in
      let p95 =
        (* index of the 95th percentile in the sorted list (nearest-rank) *)
        let rank = max 0 (((n * 95) + 99) / 100 - 1) in
        List.nth totals (min rank (n - 1))
      in
      let phase_mean_us =
        List.filter_map
          (fun p ->
            let deltas =
              List.filter_map (fun s -> List.assoc_opt p (phases s)) closed
            in
            match deltas with
            | [] -> None
            | ds -> Some (p, List.fold_left ( + ) 0 ds / List.length ds))
          [ Detect; Policy; Respawn; Republish; Reopen ]
      in
      {
        m_component = component;
        n;
        mean_us = sum / n;
        min_us = List.hd totals;
        max_us = List.nth totals (n - 1);
        p95_us = p95;
        phase_mean_us;
      }
      :: acc)
    by_component []
  |> List.sort (fun a b -> String.compare a.m_component b.m_component)
