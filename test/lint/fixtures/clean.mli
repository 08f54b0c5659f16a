(* Disciplined code has an interface too. *)
val is_start : Wal.Lsn.t -> bool
val stale : Quorum.Epoch.t -> bool
val order : Quorum.Epoch.t -> Quorum.Epoch.t -> int
val newest : Wal.Lsn.t -> Wal.Lsn.t -> Wal.Lsn.t
val bump : Wal.Lsn.t -> Wal.Lsn.t
val lag : Wal.Lsn.t -> Wal.Lsn.t -> int
val render : (string, 'v) Hashtbl.t -> (string * 'v) list
