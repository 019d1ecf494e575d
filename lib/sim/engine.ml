type handle = { mutable cancelled : bool }

(* Representation of a far-future event parked in the overflow heap;
   near-future events are stored unpacked in the wheel's parallel
   arrays and never get a record at all. *)
type event = { fire : unit -> unit; handle : handle }

type policy = Fifo | Seeded of int | Scripted of int array

(* Inert values used to blank pooled slots (heap backing store, wheel
   buckets and the candidate scratch buffers); the handle is
   permanently cancelled so a leaked slot can never fire. *)
let dummy_handle = { cancelled = true }
let dummy_event = { fire = ignore; handle = dummy_handle }
let no_fire : unit -> unit = ignore

(* ------------------------------------------------------------------ *)
(* Timing wheel                                                        *)
(* ------------------------------------------------------------------ *)

(* Events scheduled within [wheel_size] instants of the clock go into
   a ring of per-instant FIFO buckets: append and pop are O(1) int-
   indexed array operations, versus O(log n) sifts in the heap.  A
   bucket holds at most one instant's events at a time (anything one
   whole revolution ahead is past the horizon and parks in the
   overflow heap), so a non-empty bucket's instant is implied by its
   index and needs no per-entry key. *)
let wheel_bits = 10
let wheel_size = 1 lsl wheel_bits
let wheel_mask = wheel_size - 1

type bucket = {
  mutable b_seqs : int array;
  mutable b_fires : (unit -> unit) array;
  mutable b_handles : handle array;
  mutable b_head : int; (* next entry to pop *)
  mutable b_len : int; (* append position *)
}

let fresh_bucket () = { b_seqs = [||]; b_fires = [||]; b_handles = [||]; b_head = 0; b_len = 0 }

let bucket_grow b =
  let cap = Array.length b.b_seqs in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let nseqs = Array.make ncap 0 in
  let nfires = Array.make ncap no_fire in
  let nhandles = Array.make ncap dummy_handle in
  Array.blit b.b_seqs 0 nseqs 0 cap;
  Array.blit b.b_fires 0 nfires 0 cap;
  Array.blit b.b_handles 0 nhandles 0 cap;
  b.b_seqs <- nseqs;
  b.b_fires <- nfires;
  b.b_handles <- nhandles

(* Entries are always appended in ascending seq order (the global seq
   is monotone, and a choice-policy re-push refills a just-drained
   bucket in candidate order), so popping from the head is exactly
   FIFO-by-seq. *)
let bucket_append b ~seq fire handle =
  let i = b.b_len in
  if i = Array.length b.b_seqs then bucket_grow b;
  Array.unsafe_set b.b_seqs i seq;
  Array.unsafe_set b.b_fires i fire;
  Array.unsafe_set b.b_handles i handle;
  b.b_len <- i + 1

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  wheel : bucket array;
  mutable ring_count : int; (* events stored in the wheel *)
  overflow : event Heap.t; (* events beyond the wheel horizon *)
  policy : policy;
  (* Decision trace: one entry per instant at which >= 2 live events
     competed, stored in a growable int buffer (no per-decision
     allocation).  Empty under [Fifo] (no overhead on the default
     path). *)
  mutable decisions : int array;
  mutable n_decisions : int;
  mutable script_pos : int;
  (* Reusable scratch buffers for same-instant candidate collection
     under choice policies; [cand_*] slots are blanked after each
     choice so fired events are not retained. *)
  mutable cand_seqs : int array;
  mutable cand_fires : (unit -> unit) array;
  mutable cand_handles : handle array;
  (* What the active driving loop ([run] or [run_until]) checks before
     it fires one more event, read by [advance_inline]: events it may
     still fire, the latest instant it fires at, the clock at which it
     gives up, and its stop predicate.  [budget] is 0 outside a loop
     and during a bare [step], so nothing inlines there. *)
  mutable budget : int;
  mutable stop : Time.t;
  mutable deadline : Time.t;
  mutable halt : unit -> bool;
  mutable inlined : int; (* events fired by [advance_inline] *)
}

let never () = false

let create ?(policy = Fifo) () =
  {
    clock = Time.zero;
    seq = 0;
    wheel = Array.init wheel_size (fun _ -> fresh_bucket ());
    ring_count = 0;
    overflow = Heap.create ~dummy:dummy_event ();
    policy;
    decisions = [||];
    n_decisions = 0;
    script_pos = 0;
    cand_seqs = [||];
    cand_fires = [||];
    cand_handles = [||];
    budget = 0;
    stop = max_int;
    deadline = max_int;
    halt = never;
    inlined = 0;
  }

let now t = t.clock
let policy t = t.policy
let decisions t = Array.sub t.decisions 0 t.n_decisions

let record_decision t d =
  let cap = Array.length t.decisions in
  if t.n_decisions >= cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let nd = Array.make ncap 0 in
    Array.blit t.decisions 0 nd 0 t.n_decisions;
    t.decisions <- nd
  end;
  t.decisions.(t.n_decisions) <- d;
  t.n_decisions <- t.n_decisions + 1

let schedule_at t ~at fire =
  if at < t.clock then
    invalid_arg
      (Format.asprintf "Engine.schedule_at: %a is before now (%a)" Time.pp at Time.pp t.clock);
  let handle = { cancelled = false } in
  t.seq <- t.seq + 1;
  if at - t.clock < wheel_size then begin
    bucket_append (Array.unsafe_get t.wheel (at land wheel_mask)) ~seq:t.seq fire handle;
    t.ring_count <- t.ring_count + 1
  end
  else Heap.push t.overflow ~key:at ~seq:t.seq { fire; handle };
  handle

let schedule t ~after fire =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(Time.add t.clock after) fire

let cancel handle = handle.cancelled <- true

let has_pending t = t.ring_count > 0 || not (Heap.is_empty t.overflow)
let pending t = t.ring_count + Heap.length t.overflow

(* Earliest instant with a wheel entry.  Only call with
   [ring_count > 0]; every ring entry lies in [clock, clock + wheel_size),
   so the scan terminates, and its cost is the clock distance to the
   next event (amortized O(1) under load). *)
let next_ring_time t =
  let i = ref t.clock in
  let rec scan () =
    let b = Array.unsafe_get t.wheel (!i land wheel_mask) in
    if b.b_head < b.b_len then !i
    else begin
      incr i;
      scan ()
    end
  in
  scan ()

(* The next instant at which an event fires.  On a same-instant tie
   between the overflow heap and the wheel, the heap's entries were
   scheduled before the wheel's horizon reached that instant, so they
   necessarily carry the smaller seqs and must be drained first. *)
let next_key t =
  if t.ring_count = 0 then Heap.min_key t.overflow
  else begin
    let rt = next_ring_time t in
    if (not (Heap.is_empty t.overflow)) && Heap.min_key t.overflow < rt then
      Heap.min_key t.overflow
    else rt
  end

let grow_cand t =
  let cap = Array.length t.cand_seqs in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let nseqs = Array.make ncap 0 in
  let nfires = Array.make ncap no_fire in
  let nhandles = Array.make ncap dummy_handle in
  Array.blit t.cand_seqs 0 nseqs 0 cap;
  Array.blit t.cand_fires 0 nfires 0 cap;
  Array.blit t.cand_handles 0 nhandles 0 cap;
  t.cand_seqs <- nseqs;
  t.cand_fires <- nfires;
  t.cand_handles <- nhandles

(* Which of the [k] live candidates (in scheduling/seq order in the
   scratch buffer) fires next.  [Fifo] would be 0; [Seeded] orders
   same-instant events by the derived rank of their scheduling seq,
   i.e. a seeded permutation that is a pure function of (seed, seq);
   [Scripted] replays a recorded trace, falling back to FIFO when it
   runs out. *)
let choose t ~k =
  match t.policy with
  | Fifo -> 0
  | Seeded seed ->
      let best = ref 0 and best_rank = ref max_int in
      for i = 0 to k - 1 do
        let r = Rng.derive ~seed ~index:t.cand_seqs.(i) in
        if r < !best_rank then begin
          best := i;
          best_rank := r
        end
      done;
      !best
  | Scripted arr ->
      let d = if t.script_pos < Array.length arr then arr.(t.script_pos) else 0 in
      t.script_pos <- t.script_pos + 1;
      if d < 0 then 0 else min d (k - 1)

let step_choice t =
  if not (has_pending t) then false
  else begin
    let at = next_key t in
    t.clock <- at;
    (* Collect every live event scheduled for [at] into the scratch
       buffers, in scheduling (seq) order: overflow entries first (they
       predate the wheel covering [at], hence smaller seqs), then the
       bucket, whose entries are already seq-sorted.  Cancelled entries
       are reaped here: they never fire, so dropping them changes only
       the [pending] count. *)
    let k = ref 0 in
    let add seq fire handle =
      if not handle.cancelled then begin
        if Array.length t.cand_seqs = !k then grow_cand t;
        t.cand_seqs.(!k) <- seq;
        t.cand_fires.(!k) <- fire;
        t.cand_handles.(!k) <- handle;
        incr k
      end
    in
    while (not (Heap.is_empty t.overflow)) && Heap.min_key t.overflow = at do
      let s = Heap.min_seq t.overflow in
      let e = Heap.pop_min t.overflow in
      add s e.fire e.handle
    done;
    if t.ring_count > 0 then begin
      let b = Array.unsafe_get t.wheel (at land wheel_mask) in
      let n = b.b_len - b.b_head in
      if n > 0 then begin
        (* A non-empty bucket under the clock's index holds exactly
           this instant's events (one instant per bucket at a time). *)
        for i = b.b_head to b.b_len - 1 do
          add b.b_seqs.(i) b.b_fires.(i) b.b_handles.(i);
          b.b_fires.(i) <- no_fire;
          b.b_handles.(i) <- dummy_handle
        done;
        b.b_head <- 0;
        b.b_len <- 0;
        t.ring_count <- t.ring_count - n
      end
    end;
    let k = !k in
    (match k with
    | 0 -> () (* every event at this instant was cancelled *)
    | 1 ->
        let chosen = t.cand_fires.(0) in
        t.cand_fires.(0) <- no_fire;
        t.cand_handles.(0) <- dummy_handle;
        (* forced: no decision recorded *)
        chosen ()
    | _ ->
        let choice = choose t ~k in
        record_decision t choice;
        (* Re-park the losers at the same instant with their original
           seqs; the bucket was just drained, and iterating in
           ascending candidate order keeps it seq-sorted. *)
        let b = Array.unsafe_get t.wheel (at land wheel_mask) in
        for i = 0 to k - 1 do
          if i <> choice then begin
            bucket_append b ~seq:t.cand_seqs.(i) t.cand_fires.(i) t.cand_handles.(i);
            t.ring_count <- t.ring_count + 1
          end
        done;
        let chosen = t.cand_fires.(choice) in
        (* Blank the scratch before firing so the buffers neither
           retain fired events nor carry state across a reentrant
           step. *)
        Array.fill t.cand_fires 0 k no_fire;
        Array.fill t.cand_handles 0 k dummy_handle;
        chosen ());
    true
  end

let step_fifo t =
  if t.ring_count = 0 then
    if Heap.is_empty t.overflow then false
    else begin
      t.clock <- Heap.min_key t.overflow;
      let e = Heap.pop_min t.overflow in
      if not e.handle.cancelled then e.fire ();
      true
    end
  else begin
    let rt = next_ring_time t in
    if (not (Heap.is_empty t.overflow)) && Heap.min_key t.overflow <= rt then begin
      (* Earlier instant, or same-instant tie: the overflow entry was
         scheduled before the wheel covered [rt] and has the smaller
         seq either way. *)
      t.clock <- Heap.min_key t.overflow;
      let e = Heap.pop_min t.overflow in
      if not e.handle.cancelled then e.fire ();
      true
    end
    else begin
      t.clock <- rt;
      let b = Array.unsafe_get t.wheel (rt land wheel_mask) in
      let h = b.b_head in
      let fire = Array.unsafe_get b.b_fires h in
      let handle = Array.unsafe_get b.b_handles h in
      Array.unsafe_set b.b_fires h no_fire;
      Array.unsafe_set b.b_handles h dummy_handle;
      let h = h + 1 in
      if h = b.b_len then begin
        b.b_head <- 0;
        b.b_len <- 0
      end
      else b.b_head <- h;
      t.ring_count <- t.ring_count - 1;
      if not handle.cancelled then fire ();
      true
    end
  end

let step_any t = match t.policy with Seeded _ | Scripted _ -> step_choice t | Fifo -> step_fifo t

(* Run [f] as the active driving loop with the given limits, restoring
   the enclosing loop's (if any) afterwards. *)
let with_drive t ~budget ~stop ~deadline ~halt f =
  let b = t.budget and s = t.stop and d = t.deadline and h = t.halt in
  let restore () =
    t.budget <- b;
    t.stop <- s;
    t.deadline <- d;
    t.halt <- h
  in
  t.budget <- budget;
  t.stop <- stop;
  t.deadline <- deadline;
  t.halt <- halt;
  match f () with
  | r ->
      restore ();
      r
  | exception e ->
      restore ();
      raise e

let step t = with_drive t ~budget:0 ~stop:max_int ~deadline:max_int ~halt:never (fun () -> step_any t)

let run ?until ?max_events t =
  let stop = match until with Some s -> s | None -> max_int in
  let budget = match max_events with Some m -> m | None -> max_int in
  (* The budget is charged before the event fires, so an event that
     inlines its successor ([advance_inline]) sees what is left. *)
  let left =
    with_drive t ~budget ~stop ~deadline:max_int ~halt:never (fun () ->
        (* [next_key] reads the head's instant in place (no allocation);
           the removal happens inside [step_any]. *)
        while t.budget > 0 && has_pending t && next_key t <= stop do
          t.budget <- t.budget - 1;
          ignore (step_any t)
        done;
        t.budget)
  in
  let stopped_by_budget = left <= 0 in
  match until with
  | Some stop when (not stopped_by_budget) && Time.compare t.clock stop < 0 -> t.clock <- stop
  | Some _ | None -> ()

let run_until t ~deadline pred =
  with_drive t ~budget:max_int ~stop:max_int ~deadline ~halt:pred (fun () ->
      let rec loop () =
        if pred () then true
        else if t.clock >= deadline then false
        else if step_any t then loop ()
        else pred ()
      in
      loop ())

(* Are the wheel buckets for instants [i..at] all empty? *)
let rec buckets_empty wheel i at =
  i > at
  ||
  let b = Array.unsafe_get wheel (i land wheel_mask) in
  b.b_head = b.b_len && buckets_empty wheel (i + 1) at

(* How far ahead of the clock [advance_inline] scans the wheel; a
   longer delay while the wheel holds entries is left to the queue. *)
let inline_scan_limit = 64

let advance_inline t ~after =
  let at = t.clock + after in
  if
    at >= t.clock (* neither a negative delay nor an overflow *)
    && t.budget > 0
    && at <= t.stop
    && t.clock < t.deadline
    && (Heap.is_empty t.overflow || Heap.min_key t.overflow > at)
    && (t.ring_count = 0 || (after < inline_scan_limit && buckets_empty t.wheel t.clock at))
    && not (t.halt ())
  then begin
    t.budget <- t.budget - 1;
    t.seq <- t.seq + 1;
    t.clock <- at;
    t.inlined <- t.inlined + 1;
    true
  end
  else false

let inline_counts t = (t.inlined, t.seq - t.inlined)
