(* Fixture: polymorphic comparison operators on protocol-typed operands. *)
let is_start l = l = Wal.Lsn.none
let stale e = e <> Quorum.Epoch.initial
let third_wins b = compare (Wal.Txn_id.of_int 3) b > 0
let newest a = max a (Wal.Lsn.of_int 9)
let oldest a b = min (a : Wal.Lsn.t) b
(* Only the second operand's type names the protocol type. *)
type lsn = Wal.Lsn.t
let is_first (x : lsn) = x = Wal.Lsn.first
