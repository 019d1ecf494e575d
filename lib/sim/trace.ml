module Event = Resilix_obs.Event

type level = Event.level = Debug | Info | Warn | Error

type event = Event.t = {
  time : Time.t;
  level : level;
  subsystem : string;
  payload : Event.payload;
}

(* Bounded ring over a plain array: recording is one store + index
   bump (the Queue representation allocated a cell per event).  The
   array grows geometrically up to [capacity] so small traces stay
   small; once full, the oldest slot is overwritten in place. *)
type t = {
  capacity : int;
  mutable buf : event array;
  mutable head : int; (* index of the oldest retained event *)
  mutable len : int;
}

let create ?(capacity = 65536) () = { capacity; buf = [||]; head = 0; len = 0 }

let pp_event = Event.pp

let record t e =
  if t.len < t.capacity then begin
    let cap = Array.length t.buf in
    if t.len = cap then begin
      (* Not yet full: [head] is still 0, so a straight blit keeps
         order while the ring grows toward [capacity]. *)
      let ncap = min t.capacity (max 64 (cap * 2)) in
      let nbuf = Array.make ncap e in
      Array.blit t.buf 0 nbuf 0 t.len;
      t.buf <- nbuf
    end;
    t.buf.(t.len) <- e;
    t.len <- t.len + 1
  end
  else begin
    t.buf.(t.head) <- e;
    t.head <- (t.head + 1) mod t.capacity
  end

let emit_event t ~now ?(level = Info) subsystem payload =
  record t { time = now; level; subsystem; payload }

let emit t ~now level subsystem fmt =
  Format.kasprintf
    (fun text -> record t { time = now; level; subsystem; payload = Event.Log { text } })
    fmt

let events t =
  let n = Array.length t.buf in
  List.init t.len (fun i -> t.buf.((t.head + i) mod n))

let message e = Event.message e.payload

let query t ~pred = List.filter pred (events t)

(* A throwaway event used to blank vacated slots, so cleared events
   become collectable without giving up the ring's allocation. *)
let blank : event =
  { time = 0; level = Debug; subsystem = ""; payload = Event.Log { text = "" } }

let allocated_slots t = Array.length t.buf

let clear t =
  (* Keep the array: re-paying geometric growth after every clear
     would put allocation back on the hot path (same contract as
     [Sim.Heap.clear]).  Blank the occupied slots so the cleared
     events are not retained through the ring. *)
  Array.fill t.buf 0 (Array.length t.buf) blank;
  t.head <- 0;
  t.len <- 0
