(* Stderr progress rendering for campaign observers.

   Two styles share one formatter: a live single line (carriage
   return + erase, for interactive ttys) and an append-only line per
   trial (for logs/CI).  Both are driven entirely by the
   Campaign.progress events, which arrive serialized under the
   campaign's observer mutex — the reporter keeps plain mutable state
   without further locking. *)

let fmt_eta s =
  if s < 0. then "?"
  else if s < 60. then Printf.sprintf "%.0fs" s
  else if s < 3600. then Printf.sprintf "%dm%02ds" (int_of_float s / 60) (int_of_float s mod 60)
  else Printf.sprintf "%dh%02dm" (int_of_float s / 3600) (int_of_float s mod 3600 / 60)

(* A fresh observer per campaign: it carries the campaign's start time
   and failure count.  On a tty it keeps one line updated in place
   (newline-terminated when the campaign completes); otherwise it
   appends one line per trial. *)
let reporter ~label =
  let live = Unix.isatty Unix.stderr in
  let started_at = ref None in
  let failed = ref 0 in
  fun (p : Campaign.progress) ->
    let now = Unix.gettimeofday () in
    let t0 =
      match !started_at with
      | Some t -> t
      | None ->
          (* First event: the campaign started roughly when the first
             finishing trial began. *)
          let t = now -. p.Campaign.p_elapsed_s in
          started_at := Some t;
          t
    in
    if p.Campaign.p_failed then incr failed;
    let elapsed = now -. t0 in
    let eta =
      if p.Campaign.p_completed = 0 then -1.
      else
        elapsed /. float_of_int p.Campaign.p_completed
        *. float_of_int (p.Campaign.p_total - p.Campaign.p_completed)
    in
    let line =
      Printf.sprintf "[%s] %d/%d trials (%.0f%%)%s  last %s (%.1fs)  elapsed %s  eta %s" label
        p.Campaign.p_completed p.Campaign.p_total
        (100. *. float_of_int p.Campaign.p_completed /. float_of_int p.Campaign.p_total)
        (if !failed > 0 then Printf.sprintf "  %d FAILED" !failed else "")
        p.Campaign.p_name p.Campaign.p_elapsed_s (fmt_eta elapsed) (fmt_eta eta)
    in
    if live then begin
      (* \027[K erases the remnant of a longer previous line. *)
      Printf.eprintf "\r\027[K%s%!" line;
      if p.Campaign.p_completed >= p.Campaign.p_total then Printf.eprintf "\n%!"
    end
    else Printf.eprintf "%s\n%!" line

let make ~when_ ~label () =
  match when_ with
  | `Never -> None
  | `Always -> Some (reporter ~label)
  | `Auto -> if Unix.isatty Unix.stderr then Some (reporter ~label) else None
