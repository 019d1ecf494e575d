type claim = { base : int; len : int; read : int -> int; write : int -> int -> unit }
type t = { mutable claims : claim list }

let create () = { claims = [] }

let overlaps a b = a.base < b.base + b.len && b.base < a.base + a.len

let register t ~base ~len ~read ~write =
  let claim = { base; len; read; write } in
  if List.exists (overlaps claim) t.claims then invalid_arg "Bus.register: overlapping port range";
  t.claims <- claim :: t.claims

(* Route one access to the claim covering [port].  Plain walks: they
   run on every port access, and a [List.find_opt] predicate would
   allocate a closure and an option. *)
let rec read claims port =
  match claims with
  | [] -> 0xFFFF_FFFF
  | c :: rest -> if port >= c.base && port < c.base + c.len then c.read (port - c.base) else read rest port

let rec write claims port v =
  match claims with
  | [] -> ()
  | c :: rest ->
      if port >= c.base && port < c.base + c.len then c.write (port - c.base) v else write rest port v

let written = Ok 0

let io t op =
  match op with
  | `In port -> Ok (read t.claims port)
  | `Out (port, v) ->
      write t.claims port v;
      written

let attach t kernel = Resilix_kernel.Kernel.set_io_handler kernel (io t)
