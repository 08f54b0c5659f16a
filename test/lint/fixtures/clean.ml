(* Fixture: the disciplined versions of everything the bad fixtures do.
   Linted under a logical path where every expression rule is active; must
   produce zero findings. *)
let is_start l = Wal.Lsn.equal l Wal.Lsn.none
let stale e = not (Quorum.Epoch.equal e Quorum.Epoch.initial)
let order a b = Quorum.Epoch.compare a b
let newest a b = Wal.Lsn.max a b
let bump l = Wal.Lsn.add l 1
let lag a b = Wal.Lsn.diff a b
let render tbl = Obs.Stable.sorted_bindings ~cmp:String.compare tbl
