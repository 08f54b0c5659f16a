(** Aurora read replicas (§3.2–3.4).

    Replicas attach to the same storage volume as the writer and learn
    from one thing only: the writer's physical redo stream
    ({!Replication_stream}), which carries atomic MTR chunks, the writer's
    VDL and the commit notices of the Commit records it ships.  The first
    message also hands the replica every commit made before its stream
    started, and a stream from a new writer generation (a higher volume
    epoch) empties its cache, since the old writer may have died with redo
    for cached blocks unshipped.  The replica applies redo only to
    blocks already in its cache — uncached blocks can always be fetched
    from shared storage — and anchors every read view at the writer VDL it
    has seen, so it never observes a structurally or transactionally
    inconsistent state.  Its reads take the writer's read path
    ({!Reader.get}) with that anchor as the read point.  It reports its
    read floor back to the writer, which folds it into PGMRPL so storage
    never garbage collects a version the replica might still need.

    A replica has no settings of its own: it hashes keys to blocks with
    the writer's config, caches 128 blocks, reads with the writer's
    default strategy and reports its floor every 100 ms.

    Because durable state is shared, a replica can be promoted to writer
    with no data loss for acknowledged commits: promotion is exactly the
    §2.4 crash-recovery procedure run from the replica's address. *)

open Wal

type metrics = {
  mutable chunks_applied : int;
  mutable records_applied : int;
  mutable records_skipped : int;  (** Redo for uncached blocks (discarded). *)
  mutable commits_seen : int;
  mutable gets : int;
  mutable cache_hit_reads : int;
  mutable storage_reads : int;
  mutable stale_streams_dropped : int;
  stream_lag : Simcore.Histogram.t;
      (** Network + apply delay of stream batches. *)
}

type t

val create :
  sim:Simcore.Sim.t ->
  rng:Simcore.Rng.t ->
  net:Storage.Protocol.t Simnet.Net.t ->
  addr:Simnet.Addr.t ->
  writer:Database.t ->
  ?obs:Obs.Ctx.t ->
  ?rings:Recorder.Rings.t ->
  unit ->
  t
(** A replica of [writer]: it shares the writer's volume read-only
    (routing, rosters and epochs; it never allocates from it), hashes keys
    with the writer's config and sends its floor to the writer's address.
    It keeps no reference to [writer] itself.  [obs]
    registers the [replica_*] instruments labelled with this node's
    address.  [rings] is the cluster's flight recorder, which a writer
    made by {!promote} records into. *)

val start : t -> unit
val addr : t -> Simnet.Addr.t
val vdl_seen : t -> Lsn.t
(** The replica's current read anchor. *)

val metrics : t -> metrics
val cache : t -> Buffer_cache.t
val is_running : t -> bool

val get : t -> key:string -> ((string option, string) result -> unit) -> unit
(** Snapshot read anchored at {!vdl_seen}. *)

val committed : t -> Txn_id.t -> Lsn.t option
(** Commit SCN as known from the stream's notices and hand-offs. *)

val read_floor : t -> Lsn.t
(** The anchor of the oldest storage read in flight, or {!vdl_seen} if
    none is older ({!Reader.floor}): the lowest LSN a read on this replica
    might still need. *)

val stop : t -> unit

val promote :
  t ->
  config:Database.config ->
  ((Database.t * Recovery.outcome, string) result -> unit) ->
  unit
(** Promote to writer: stop replica service and run crash recovery against
    the shared volume from this address.  On success the returned database
    is open for writes and no acknowledged commit has been lost (§3.2). *)
