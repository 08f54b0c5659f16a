(* Fixture: raw integer arithmetic on LSN-carrying values. *)
let bump l = Lsn.to_int l + 1
let gap a b = Lsn.to_int a - Lsn.to_int b
let scaled n l = n * Lsn.to_int l
let next l = Lsn.to_int l + 1
let held tbl = Lsn.Tbl.length tbl + 1
let spread set = Lsn.Set.cardinal set - Lsn.Tbl.length set
