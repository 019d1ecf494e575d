module Errno = Resilix_proto.Errno

type access = Read | Write of int

type claim = {
  base : int;
  len : int;
  handler : reg:int -> access -> (int, Errno.t) result;
}

type t = { mutable claims : claim list }

let create () = { claims = [] }

let overlaps a b = a.base < b.base + b.len && b.base < a.base + a.len

let register t ~base ~len handler =
  let claim = { base; len; handler } in
  if List.exists (overlaps claim) t.claims then invalid_arg "Bus.register: overlapping port range";
  t.claims <- claim :: t.claims

(* Route one access to the claim covering [port], or answer
   [unclaimed].  A plain walk: this runs on every port access, and a
   [List.find_opt] predicate would allocate a closure and an option. *)
let rec route claims port access ~unclaimed =
  match claims with
  | [] -> unclaimed
  | c :: rest ->
      if port >= c.base && port < c.base + c.len then c.handler ~reg:(port - c.base) access
      else route rest port access ~unclaimed

let floating_read = Ok 0xFFFF_FFFF
let dropped_write = Ok 0

let io t op =
  match op with
  | `In port -> route t.claims port Read ~unclaimed:floating_read
  | `Out (port, value) -> route t.claims port (Write value) ~unclaimed:dropped_write

let attach t kernel = Resilix_kernel.Kernel.set_io_handler kernel (io t)
