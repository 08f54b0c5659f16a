(* Fixture: the generic table on the commit path; functor instances pass. *)
let t = Hashtbl.create 16
let get k = Hashtbl.find_opt t k
let put k v = Stdlib.Hashtbl.replace t k v
module Ints = Hashtbl.Make (struct type t = int let equal = Int.equal let hash k = k end)
module type Table = Hashtbl.S
let ints : int Ints.t = Ints.create 16
let find k = Ints.find_opt ints k
(* Fixes the table's weak key and value types, which a unit without an
   interface must not leave open. *)
let (_ : (int, int) Hashtbl.t) = t
