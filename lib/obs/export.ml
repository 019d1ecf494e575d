module Status = Resilix_proto.Status

let line ty label fields =
  Json.to_string (Obj (("type", String ty) :: ("label", String label) :: fields))

let metric_lines ?(label = "run") (snap : Metrics.snapshot) =
  let named ty name fields = line ty label (("name", Json.String name) :: fields) in
  let counter (name, v) = named "counter" name [ ("value", Int v) ] in
  let gauge (name, (g : Metrics.gauge_snapshot)) =
    named "gauge" name
      [
        ("value", Int g.g_last); ("min", Int g.g_min); ("max", Int g.g_max);
        ("shards", Int g.g_sources);
      ]
  in
  (* min/max need no count=0 guard: empty snapshots are normalized to
     all-zero by [Metrics.snapshot]. *)
  let histogram (name, (h : Metrics.hist_snapshot)) =
    let buckets = List.map (fun (i, c) -> Json.List [ Int i; Int c ]) h.buckets in
    named "histogram" name
      [
        ("count", Int h.count); ("sum", Int h.sum); ("min", Int h.min_v); ("max", Int h.max_v);
        ("buckets", List buckets);
      ]
  in
  (line "meta" label [ ("at_us", Int snap.taken_at) ] :: List.map counter snap.counters)
  @ List.map gauge snap.gauges
  @ List.map histogram snap.histograms

let phase_obj deltas = Json.Obj (List.map (fun (p, d) -> (Span.phase_name p, Json.Int d)) deltas)

let span_lines ?(label = "run") spans =
  let span_line (s : Span.span) =
    let total = match Span.total_us s with None -> Json.Null | Some u -> Int u in
    (* Tags appended only when present, so runs that never tag a span
       export byte-identical lines to the pre-tag format. *)
    let tags =
      match Span.tags s with
      | [] -> []
      | kvs -> [ ("tags", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) kvs)) ]
    in
    line "span" label
      Json.(
        [
          ("id", Int s.id); ("component", String s.component);
          ("defect", String (Status.defect_name s.defect)); ("repetition", Int s.repetition);
          ("opened_at_us", Int s.opened_at); ("total_us", total);
          ("phases", phase_obj (Span.phases s));
        ]
        @ tags)
  in
  let mttr_line (m : Span.mttr) =
    line "mttr" label
      [
        ("component", String m.m_component); ("n", Int m.n); ("mean_us", Int m.mean_us);
        ("min_us", Int m.min_us); ("max_us", Int m.max_us); ("p95_us", Int m.p95_us);
        ("phase_mean_us", phase_obj m.phase_mean_us);
      ]
  in
  List.map span_line (Span.spans spans) @ List.map mttr_line (Span.report spans)
