(* Typed poly-compare fixture: polymorphic equality at [Wal.Lsn.t] must be
   flagged even with no syntactic module hint at the call site, and so must
   [<] at a type variable in [bad_var]; [good] and [good_int] must not be. *)

let bad (a : Wal.Lsn.t) b = a = b
let good a b = Wal.Lsn.compare a b = 0
let bad_var a b = a < b
let good_int (a : int) b = a < b
