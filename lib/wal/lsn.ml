type t = int

let none = 0
let first = 1

let of_int i =
  if i < 0 then invalid_arg "Lsn.of_int: negative" else i

let to_int t = t
let next t = t + 1
let add t n = t + n
let diff a b = a - b
let compare = Int.compare
let equal = Int.equal
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b
let max = Stdlib.max
let min = Stdlib.min
let is_none t = t = 0
let pp fmt t = Format.fprintf fmt "%d" t
let to_string = string_of_int

module Outcome = struct
  type nonrec t = t

  let make lsn ~aborted = (lsn lsl 1) lor Bool.to_int aborted
  let lsn o = o asr 1
  let aborted o = o land 1 = 1
  let of_int o = if o < 0 then invalid_arg "Lsn.Outcome.of_int: negative" else o
end

module Allocator = struct
  type nonrec t = { mutable last : t }

  let create () = { last = none }

  let reset_above t lsn =
    if Stdlib.( < ) lsn t.last then
      invalid_arg "Lsn.Allocator.reset_above: would move backwards";
    t.last <- lsn
  let last t = t.last

  let take t =
    t.last <- t.last + 1;
    t.last
end
