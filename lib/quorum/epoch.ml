type t = int

let initial = 1

let of_int i =
  if i < 1 then invalid_arg "Epoch.of_int: must be positive" else i

let to_int t = t
let next t = t + 1
let compare = Int.compare
let equal = Int.equal
let is_stale (e : t) ~(current : t) = e < current
let pp fmt t = Format.fprintf fmt "e%d" t

type check = Ok | Stale of { current : t }

let check e ~current = if e < current then Stale { current } else Ok
