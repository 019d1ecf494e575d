module Engine = Resilix_sim.Engine
module Rng = Resilix_sim.Rng

type side = A | B

type endpoint = { mutable deliver : (bytes -> unit) option; mutable busy_until : int }

type t = {
  engine : Engine.t;
  rng : Rng.t;
  latency : int;
  bytes_per_us : int;
  drop_prob : float;
  corrupt_prob : float;
  a : endpoint;
  b : endpoint;
  mutable dropped : int;
}

let create ~engine ~rng ?(latency = 200) ?(bytes_per_us = 100) ?(drop_prob = 0.) ?(corrupt_prob = 0.)
    () =
  {
    engine;
    rng;
    latency;
    bytes_per_us;
    drop_prob;
    corrupt_prob;
    a = { deliver = None; busy_until = 0 };
    b = { deliver = None; busy_until = 0 };
    dropped = 0;
  }

let side_ep t = function A -> t.a | B -> t.b
let other_ep t = function A -> t.b | B -> t.a

let attach t side callback = (side_ep t side).deliver <- Some callback

let send t side frame =
  let src = side_ep t side and dst = other_ep t side in
  let now = Engine.now t.engine in
  let start = max now src.busy_until in
  let tx_time = max 1 (Bytes.length frame / t.bytes_per_us) in
  src.busy_until <- start + tx_time;
  if Rng.bool t.rng t.drop_prob then t.dropped <- t.dropped + 1
  else begin
    let frame =
      if Rng.bool t.rng t.corrupt_prob && Bytes.length frame > 0 then begin
        let copy = Bytes.copy frame in
        let i = Rng.int t.rng (Bytes.length copy) in
        Bytes.set copy i (Char.chr (Char.code (Bytes.get copy i) lxor (1 lsl Rng.int t.rng 8)));
        copy
      end
      else Bytes.copy frame
    in
    let deliver_at = start + tx_time + t.latency in
    ignore
      (Engine.schedule_at t.engine ~at:deliver_at (fun () ->
           match dst.deliver with Some f -> f frame | None -> ()))
  end

let frames_dropped t = t.dropped
