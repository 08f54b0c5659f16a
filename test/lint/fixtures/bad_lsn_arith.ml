(* Fixture: raw integer arithmetic on LSN-carrying values; counts pass. *)
let bump l = Wal.Lsn.to_int l + 1
let gap a b = Wal.Lsn.to_int a - Wal.Lsn.to_int b
let scaled n l = n * Wal.Lsn.to_int l
let next l = Wal.Lsn.to_int l + 1
let held (lsns : Wal.Lsn.t list) = List.length lsns + 1
let spread (lsns : Wal.Lsn.t array) l = Array.length lsns - List.length l
