(* Pooled binary min-heap: keys and sequence numbers live in inline int
   arrays (unboxed), values in a parallel array.  Nothing is allocated
   on push/pop except when the backing arrays grow, and vacated value
   slots are overwritten with [dummy] so popped elements do not leak
   through the heap's backing store.

   The sift loops are hole-based: the moving element is held in locals
   while parents (or children) shift into the hole, so each level costs
   one 3-array move instead of a 3-array swap.  Indices are bounded by
   [size] (checked at every entry point), so the internal accesses use
   [unsafe_get]/[unsafe_set] — this heap sits on the hot path of every
   simulated event. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  dummy : 'a;
}

let create ~dummy () = { keys = [||]; seqs = [||]; vals = [||]; size = 0; dummy }
let length h = h.size
let is_empty h = h.size = 0

(* Move the hole at [i] rootward past every parent larger than
   [(key, seq)], then drop the element in. *)
let sift_up h i key seq v =
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pk = Array.unsafe_get keys p in
    if pk > key || (pk = key && Array.unsafe_get seqs p > seq) then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set vals !i (Array.unsafe_get vals p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i v

(* Move the hole at the root leafward, pulling the smaller child up,
   until [(key, seq)] dominates both children; drop the element in. *)
let sift_down h key seq v =
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let n = h.size in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      (* index of the smaller child *)
      let c =
        if r < n then begin
          let lk = Array.unsafe_get keys l and rk = Array.unsafe_get keys r in
          if rk < lk || (rk = lk && Array.unsafe_get seqs r < Array.unsafe_get seqs l) then r
          else l
        end
        else l
      in
      let ck = Array.unsafe_get keys c in
      if ck < key || (ck = key && Array.unsafe_get seqs c < seq) then begin
        Array.unsafe_set keys !i ck;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set vals !i (Array.unsafe_get vals c);
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i v

let ensure_capacity h =
  let cap = Array.length h.keys in
  if h.size >= cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nkeys = Array.make ncap 0 and nseqs = Array.make ncap 0 in
    let nvals = Array.make ncap h.dummy in
    Array.blit h.keys 0 nkeys 0 h.size;
    Array.blit h.seqs 0 nseqs 0 h.size;
    Array.blit h.vals 0 nvals 0 h.size;
    h.keys <- nkeys;
    h.seqs <- nseqs;
    h.vals <- nvals
  end

let push h ~key ~seq value =
  ensure_capacity h;
  let i = h.size in
  h.size <- i + 1;
  sift_up h i key seq value

let min_key h =
  if h.size = 0 then invalid_arg "Heap.min_key: empty heap";
  h.keys.(0)

let min_seq h =
  if h.size = 0 then invalid_arg "Heap.min_seq: empty heap";
  h.seqs.(0)

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let vals = h.vals in
  let v = Array.unsafe_get vals 0 in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    let lk = Array.unsafe_get h.keys n and ls = Array.unsafe_get h.seqs n in
    let lv = Array.unsafe_get vals n in
    (* The vacated slot must not keep the moved value alive. *)
    Array.unsafe_set vals n h.dummy;
    sift_down h lk ls lv
  end
  else Array.unsafe_set vals 0 h.dummy;
  v

let min_value h =
  if h.size = 0 then invalid_arg "Heap.min_value: empty heap";
  h.vals.(0)

let pop h =
  if h.size = 0 then None
  else
    let key = h.keys.(0) and seq = h.seqs.(0) in
    Some (key, seq, pop_min h)

let clear h =
  (* Keep the backing arrays (capacity is sticky across runs of the
     same engine) but drop every retained value. *)
  Array.fill h.vals 0 h.size h.dummy;
  h.size <- 0
