type t = int

let zero = 0
let usec n = n
let msec n = n * 1_000
let add = ( + )
let compare = Int.compare

let pp ppf t =
  if t >= 1_000_000 || t <= -1_000_000 then
    Format.fprintf ppf "%.6fs" (float_of_int t /. 1_000_000.)
  else if t >= 1_000 || t <= -1_000 then Format.fprintf ppf "%.3fms" (float_of_int t /. 1_000.)
  else Format.fprintf ppf "%dus" t
