(** The read path: avoiding quorum reads (§3.1).

    "Aurora does not do quorum reads.  Through its bookkeeping of writes
    and consistency points, the database instance knows which segments have
    the last durable version of a data block and can request it directly
    from any of those segments."  The instance tracks per-node response
    times, usually reads from the lowest-latency candidate, occasionally
    probes another in parallel to keep latency estimates fresh, and hedges
    a second request when a reply is slow — capping tail latency without
    quorum amplification.

    The [Quorum_read] strategy is the baseline the paper argues against:
    read from [read_threshold] candidates and wait for all of them (the
    classical newest-version-wins quorum read); it costs Vr I/Os and its
    latency is the max of Vr draws.

    {!get} is the one read path of the writer and its replicas (§3.1-3.2):
    a cache lookup, else one segment read, anchored at the caller's read
    point.  The two differ only in what they pass it. *)

open Wal
open Quorum

type strategy =
  | Direct_tracked of {
      hedge_after : Simcore.Time_ns.t option;
          (** Issue a second read if no reply within this bound. *)
      explore_probability : float;
          (** Chance of an extra parallel probe to a non-best candidate,
              keeping latency estimates fresh. *)
    }
  | Quorum_read of { read_threshold : int }

type metrics = {
  mutable reads : int;
  mutable ios_issued : int;
  mutable hedges : int;
  mutable explores : int;
  mutable retries : int;
  mutable failures : int;
  latency : Simcore.Histogram.t;
}

type t

val create :
  sim:Simcore.Sim.t ->
  rng:Simcore.Rng.t ->
  net:Storage.Protocol.t Simnet.Net.t ->
  my_addr:Simnet.Addr.t ->
  strategy:strategy ->
  ?obs:Obs.Ctx.t ->
  ?obs_labels:Obs.Registry.labels ->
  unit ->
  t
(** [obs] registers the [read_*] counters and latency histogram.
    [obs_labels] distinguishes readers sharing one
    registry (e.g. [("node", ...)] on a replica's reader, so it does not
    supersede the writer's).  A reader rebuilt after crash recovery
    re-registers under the same identity, superseding the dead instance's
    callbacks. *)

val renew : t -> rng:Simcore.Rng.t -> t
(** A reader for the same node built as {!create} builds one (empty
    latency table, no reads in flight, fresh metrics re-registered) except
    that its request ids continue after [t]'s: a reply to one of [t]'s
    reads, arriving late, can never complete one of its reads. *)

val read :
  t ->
  pg:Storage.Pg_id.t ->
  candidates:(Member_id.t * Simnet.Addr.t) list ->
  block:Block_id.t ->
  as_of:Lsn.t ->
  epochs:Storage.Protocol.epochs ->
  callback:((Storage.Protocol.block_image, string) result -> unit) ->
  unit
(** Fetch a block image at [as_of] from one of [candidates] — the segments
    the consistency tracker knows hold it durably.  The callback fires
    exactly once. *)

val get :
  t ->
  cache:Buffer_cache.t ->
  volume:Volume.t ->
  read_point:(unit -> Lsn.t) ->
  ?owner:Txn_id.t ->
  txns:Txn_table.t ->
  candidates:(Lsn.t -> Volume.pg -> (Member_id.t * Simnet.Addr.t) list) ->
  epochs:(Volume.pg -> Storage.Protocol.epochs) ->
  on_hit:(unit -> unit) ->
  on_fetch:(unit -> unit) ->
  block:Block_id.t ->
  key:string ->
  ((string option, string) result -> unit) ->
  unit
(** Snapshot read of [key] in [block] at a view anchored on [read_point ()]
    (VDL on the writer, the last VDL seen on a replica) and owned by
    [owner], with commit SCNs read from [txns] (the writer's table, or the
    replica's copy), so the visibility check allocates nothing.  Served
    from [cache] when the block was installed from
    storage, or when it holds only blind writes but one of them is
    visible ([on_hit] fires first).  Otherwise [on_fetch] fires and the
    block is read through {!read} from [candidates as_of group] with
    [epochs group].  The image is installed in [cache], with
    [read_point ()] at reply time gating eviction, and the merged cache
    entry answers, so versions written locally since the image are not
    shadowed. *)

val on_reply :
  t ->
  req:int ->
  seg:Member_id.t ->
  from:Simnet.Addr.t ->
  result:(Storage.Protocol.block_image, Storage.Protocol.read_error) result ->
  unit
(** Feed a [Read_reply] delivered to the owner's address. *)

val observed_latency : t -> Simnet.Addr.t -> float option
(** Current EWMA estimate (ns) for a node, if any observations exist. *)

val metrics : t -> metrics
val outstanding : t -> int

val floor : t -> default:Lsn.t -> Lsn.t
(** The lowest anchor ([as_of]) among in-flight reads, or [default] if it
    is lower or no read is in flight: the read floor the owner reports
    for PGMRPL (§3.4).  A read leaves the table just before its callback
    fires, and {!drop_all} forgets every one. *)

val drop_all : t -> unit
(** Crash: forget in-flight reads (their callbacks never fire). *)
