let default_jobs () = Domain.recommended_domain_count ()

type progress = {
  p_index : int;
  p_name : string;
  p_elapsed_s : float;
  p_failed : bool;
  p_completed : int;
  p_total : int;
}

type failure = { f_index : int; f_name : string; f_error : exn }

exception Partial of failure list

let failures_summary fs =
  String.concat "\n"
    (Printf.sprintf "campaign: %d trial(s) failed" (List.length fs)
    :: List.map
         (fun f -> Printf.sprintf "  trial #%d %s: %s" f.f_index f.f_name (Printexc.to_string f.f_error))
         fs)

let () =
  Printexc.register_printer (function
    | Partial fs -> Some ("Campaign.Partial\n" ^ failures_summary fs)
    | _ -> None)

(* Workers store per-index results; Domain.join establishes the
   happens-before edge that makes the array reads on the caller safe.
   The progress observer runs on worker domains under one mutex, so a
   user callback never needs its own synchronization — and it writes
   to stderr (or a buffer), never stdout, keeping the table/JSONL
   byte-stream identical for every [jobs] value. *)
let collect ?jobs ?on_progress ?(progress_offset = 0) ?progress_total trials =
  let arr = Array.of_list trials in
  let n = Array.length arr in
  let report_total =
    max (n + progress_offset) (Option.value progress_total ~default:0)
  in
  let jobs =
    match jobs with
    | Some j when j < 1 -> invalid_arg "Campaign.run: jobs must be >= 1"
    | Some j -> min j (max n 1)
    | None -> min (default_jobs ()) (max n 1)
  in
  if n = 0 then []
  else begin
    let results = Array.make n None in
    let completed = Atomic.make 0 in
    let emit =
      match on_progress with
      | None -> fun _ -> ()
      | Some f ->
          let m = Mutex.create () in
          fun p ->
            Mutex.lock m;
            Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> f p)
    in
    let run_one i =
      let t0 = Unix.gettimeofday () in
      let r = match arr.(i).Trial.run () with v -> Ok v | exception e -> Error e in
      results.(i) <- Some r;
      let done_ = 1 + Atomic.fetch_and_add completed 1 in
      emit
        {
          p_index = i + progress_offset;
          p_name = arr.(i).Trial.name;
          p_elapsed_s = Unix.gettimeofday () -. t0;
          p_failed = (match r with Error _ -> true | Ok _ -> false);
          p_completed = done_ + progress_offset;
          p_total = report_total;
        }
    in
    if jobs <= 1 then
      for i = 0 to n - 1 do
        run_one i
      done
    else begin
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            run_one i;
            loop ()
          end
        in
        loop ()
      in
      let others = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      List.iter Domain.join others
    end;
    List.init n (fun i ->
        match results.(i) with
        | Some r -> r
        | None -> assert false (* every index was claimed *))
  end

type 'a run_result = { outcomes : ('a, exn) result list; failures : failure list }

let run ?jobs ?on_progress ?progress_offset ?progress_total trials =
  let names = Array.of_list (List.map (fun t -> t.Trial.name) trials) in
  let outcomes = collect ?jobs ?on_progress ?progress_offset ?progress_total trials in
  (* Every failed trial is reported, lowest index first — never just
     the first exception a worker happened to hit. *)
  let failures = ref [] in
  List.iteri
    (fun i r ->
      match r with
      | Ok _ -> ()
      | Error e -> failures := { f_index = i; f_name = names.(i); f_error = e } :: !failures)
    outcomes;
  { outcomes; failures = List.rev !failures }

let values r =
  match r.failures with
  | [] -> List.map (function Ok v -> v | Error e -> raise e) r.outcomes
  | fs -> raise (Partial fs)
