(** Imperative binary min-heap used by the event queue.

    Elements carry an integer primary key (the event time) and an
    integer secondary key (a monotonically increasing sequence number)
    so that ties are broken deterministically in FIFO order.

    The representation is pooled: keys and sequence numbers live in
    inline [int] arrays and values in a parallel array, so the hot
    path ([push]/[pop_min]) allocates nothing, and vacated slots are
    overwritten with the creation-time [dummy] so popped values become
    collectable immediately. *)

type 'a t
(** A heap of values of type ['a]. *)

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is a fresh empty heap.  [dummy] is an inert
    value of the element type used to blank vacated slots; it is never
    returned by any accessor. *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : 'a t -> key:int -> seq:int -> 'a -> unit
(** [push h ~key ~seq v] inserts [v] with priority [(key, seq)].
    Allocation-free except when the backing arrays grow. *)

val min_key : 'a t -> int
(** Key of the minimum element, without allocating.
    @raise Invalid_argument on an empty heap. *)

val min_seq : 'a t -> int
(** Sequence number of the minimum element, without allocating.
    @raise Invalid_argument on an empty heap. *)

val pop_min : 'a t -> 'a
(** Removes and returns the minimum element's value, without boxing
    the result.  Read {!min_key}/{!min_seq} first if the priority is
    needed.
    @raise Invalid_argument on an empty heap. *)

val min_value : 'a t -> 'a
(** Value of the minimum element, without removing it.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> (int * int * 'a) option
(** [pop h] removes and returns the minimum element.  Allocates;
    prefer {!pop_min} on hot paths. *)

val clear : 'a t -> unit
(** Removes every element.  Capacity is retained; every vacated value
    slot is blanked with the dummy so cleared values can be
    collected. *)
