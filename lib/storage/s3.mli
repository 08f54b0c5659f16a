(** Simulated object store for segment backups (Figure 2, step 6).

    Storage nodes push point-in-time snapshots here in the background; once
    a snapshot covering an LSN range is durable, the hot log below it
    becomes garbage-collectable (step 7).  A single [S3.t] is shared by a
    whole cluster, giving the experiments a place to measure backup
    traffic. *)

type snapshot = {
  pg : Pg_id.t;
  seg : Quorum.Member_id.t;
  upto : Wal.Lsn.t;  (** All log/pages at or below this LSN are captured. *)
  bytes : int;
  taken_at : Simcore.Time_ns.t;
}

type t

val create : sim:Simcore.Sim.t -> latency:Simcore.Distribution.t -> rng:Simcore.Rng.t -> t

val upload : t -> snapshot -> on_durable:(unit -> unit) -> unit
(** Asynchronously persist a snapshot; [on_durable] fires when the upload
    completes. *)

val durable_upto : t -> Pg_id.t -> Quorum.Member_id.t -> Wal.Lsn.t
(** Highest LSN covered by a durable snapshot for the segment
    ({!Wal.Lsn.none} if none). *)

val snapshots : t -> snapshot list
val uploads_in_flight : t -> int
