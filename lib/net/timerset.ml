(* Lazy deletion on the engine's heap: [armed] maps each key to its
   current arming generation; a heap entry is (deadline, key) carrying
   the generation it was armed with, and stale entries (re-armed or
   cancelled keys) are recognized by a generation mismatch and dropped
   when they reach the top.  The heap's (key, seq) order is exactly
   (deadline, timer key), so ties never depend on insertion history. *)

module Heap = Resilix_sim.Heap

type t = { armed : (int, int) Hashtbl.t; heap : int Heap.t; mutable gen : int }

let create () = { armed = Hashtbl.create 64; heap = Heap.create ~dummy:0 (); gen = 0 }

let armed t = Hashtbl.length t.armed

(* Is the top entry the live arming of its key? *)
let top_live t =
  match Hashtbl.find_opt t.armed (Heap.min_seq t.heap) with
  | Some g -> g = Heap.min_value t.heap
  | None -> false

(* Drop stale entries until the top is live (or the heap is empty). *)
let rec settle t =
  if not (Heap.is_empty t.heap || top_live t) then begin
    ignore (Heap.pop_min t.heap);
    settle t
  end

let set t ~key ~deadline =
  t.gen <- t.gen + 1;
  Hashtbl.replace t.armed key t.gen;
  Heap.push t.heap ~key:deadline ~seq:key t.gen

let cancel t ~key = Hashtbl.remove t.armed key

let next_deadline t =
  settle t;
  if Heap.is_empty t.heap then None else Some (Heap.min_key t.heap)

let take_due t ~now =
  let due = ref [] in
  settle t;
  while (not (Heap.is_empty t.heap)) && Heap.min_key t.heap <= now do
    let key = Heap.min_seq t.heap in
    Hashtbl.remove t.armed key;
    ignore (Heap.pop_min t.heap);
    due := key :: !due;
    settle t
  done;
  List.sort Int.compare !due
