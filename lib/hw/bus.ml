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
let rec read_claims claims port =
  match claims with
  | [] -> 0xFFFF_FFFF
  | c :: rest ->
      if port >= c.base && port < c.base + c.len then c.read (port - c.base)
      else read_claims rest port

let rec write_claims claims port v =
  match claims with
  | [] -> ()
  | c :: rest ->
      if port >= c.base && port < c.base + c.len then c.write (port - c.base) v
      else write_claims rest port v

let read t port = read_claims t.claims port
let write t port v = write_claims t.claims port v

(* Closures of their own: a partial application [read t] would go
   through a currying stub on every access. *)
let attach t kernel =
  Resilix_kernel.Kernel.set_bus kernel
    ~read:(fun port -> read_claims t.claims port)
    ~write:(fun port v -> write_claims t.claims port v)
