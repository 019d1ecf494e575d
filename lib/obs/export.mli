(** JSONL export of metrics and spans.

    Each function renders one JSON object per line through
    {!Json.to_string} — the format written by the CLI's
    [--metrics-out].  Line shapes ("type"
    discriminates):

    - [{"type":"meta","label":L,"at_us":T}]
    - [{"type":"counter","label":L,"name":N,"value":V}]
    - [{"type":"gauge","label":L,"name":N,"value":V,"min":m,"max":M,
        "shards":K}] — [value] is the highest-indexed shard's write;
      [min]/[max]/[shards] describe the per-shard distribution a
      campaign merge produced ([min = max], [shards = 1] for a
      single-registry snapshot)
    - [{"type":"histogram","label":L,"name":N,"count":C,"sum":S,
        "min":M,"max":X,"buckets":[[i,c],...]}]
    - [{"type":"span","label":L,"id":I,"component":C,"defect":D,
        "repetition":R,"opened_at_us":T,"total_us":U|null,
        "phases":{"detect":d,...}}]
    - [{"type":"mttr","label":L,"component":C,"n":N,"mean_us":U,
        "min_us":..,"max_us":..,"p95_us":..,
        "phase_mean_us":{"policy":..,...}}] *)

val metric_lines : ?label:string -> Metrics.snapshot -> string list
(** A ["meta"] line followed by one line per counter, gauge and
    histogram in the snapshot. *)

val span_lines : ?label:string -> Span.t -> string list
(** One ["span"] line per span (open spans have ["total_us":null]),
    then one ["mttr"] line per component with closed spans. *)
