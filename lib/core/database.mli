(** The Aurora writer database instance.

    A transactional key-value engine standing in for the SQL front end: it
    owns the components the paper's mechanisms live in — buffer cache, MVCC
    read views, mini-transactions, the asynchronous boxcar write path, the
    commit queue, consistency-point bookkeeping, the tracked/hedged read
    path, crash recovery, the physical replication stream to read replicas,
    and the protection-group membership machinery.

    Everything a client calls returns immediately; durability and reads
    complete through callbacks as simulated acknowledgements arrive.  The
    instance is an actor on the simulated network; storage traffic uses
    {!Storage.Protocol}. *)

open Wal
open Quorum

type config = {
  n_blocks : int;  (** Keys hash onto this many data blocks. *)
  cache_capacity : int;  (** Buffer cache size, in blocks. *)
  boxcar : Boxcar.policy;
  read_strategy : Reader.strategy;
  replication_interval : Simcore.Time_ns.t;
      (** Cadence of Redo_stream batches to replicas. *)
  pgmrpl_interval : Simcore.Time_ns.t;
      (** Cadence of GC-floor pushes to storage (§3.4). *)
}

val default_config : config

type metrics = {
  commit_latency : Simcore.Histogram.t;
      (** Client-observed commit-to-ack latency. *)
  record_durable_latency : Simcore.Histogram.t;
      (** Record write to VCL coverage. *)
  mutable txns_started : int;
  mutable txns_committed : int;
  mutable txns_aborted : int;
  mutable commit_acks : int;
  mutable puts : int;
  mutable deletes : int;
  mutable gets : int;
  mutable cache_hit_reads : int;
  mutable storage_reads : int;
  mutable records_written : int;
  mutable write_rejects : int;
  mutable fenced : int;  (** Times this instance found itself boxed out. *)
}

type t

val create :
  sim:Simcore.Sim.t ->
  rng:Simcore.Rng.t ->
  net:Storage.Protocol.t Simnet.Net.t ->
  addr:Simnet.Addr.t ->
  volume:Volume.t ->
  config:config ->
  ?obs:Obs.Ctx.t ->
  ?rings:Recorder.Rings.t ->
  unit ->
  t
(** [obs] wires the instance into a shared observability context: the
    [db_*] instruments are registered and every submitted record is marked
    through the context's commit-path ledger.  A private context is
    created when omitted, so standalone instances stay self-contained.
    [rings] is the cluster's flight recorder; without it the instance
    records no events. *)

val start : t -> unit
(** Register on the network and begin serving (a fresh, empty volume). *)

val sim : t -> Simcore.Sim.t
val addr : t -> Simnet.Addr.t
val obs : t -> Obs.Ctx.t
val volume : t -> Volume.t
val config : t -> config
val consistency : t -> Consistency.t
val reader : t -> Reader.t
val metrics : t -> metrics
val cache : t -> Buffer_cache.t
val txn_table : t -> Txn_table.t
val is_open : t -> bool
val vcl : t -> Lsn.t
val vdl : t -> Lsn.t

val commit_queue_depth : t -> int
(** Transactions waiting for SCN <= VCL (the health monitor's
    commit-queue-depth signal). *)

val open_writers : t -> int
(** Transactions that have written and not yet committed or aborted: the
    writer's per-transaction bookkeeping, which {!commit} and {!abort}
    release. *)

val block_of_key : config -> string -> Block_id.t
(** The data block a key hashes to under [config]'s [n_blocks]; the
    writer's replicas hash with the writer's config. *)

val mean_batch_size : t -> float
(** Records per flushed network write across all boxcars — the §2.2
    packing-efficiency metric. *)

(* ---- client API ---- *)

val begin_txn : t -> Txn_id.t
(** @raise Failure if the instance is not open. *)

val put : t -> txn:Txn_id.t -> key:string -> value:string -> unit
(** Buffered write: applies to the cache, allocates redo, streams it
    asynchronously.  One single-record MTR. *)

val delete : t -> txn:Txn_id.t -> key:string -> unit

val put_multi : t -> txn:Txn_id.t -> (string * string) list -> unit
(** One mini-transaction spanning several keys (and typically several
    blocks/protection groups) — the analogue of a B-tree split whose redo
    must become visible atomically (§3.3). *)

val get :
  t ->
  ?txn:Txn_id.t ->
  key:string ->
  ((string option, string) result -> unit) ->
  unit
(** Snapshot read at a view anchored on the current VDL, through
    {!Reader.get}: served from cache when possible, otherwise from one
    segment whose SCL covers the view.  The reader's in-flight reads are
    this instance's share of the PGMRPL floor (§3.4). *)

val commit : t -> txn:Txn_id.t -> ((unit, string) result -> unit) -> unit
(** Write the commit record, park the transaction on the commit queue, and
    return; the callback fires when VCL covers the SCN (§2.3).  Read-only
    transactions acknowledge immediately. *)

val abort : t -> txn:Txn_id.t -> unit

(* ---- replicas (§3.2-3.4) ---- *)

val attach_replica : t -> Simnet.Addr.t -> unit
(** Start streaming redo to a replica after the last record of the log
    ({!Volume.tail}, see {!Replication_stream.attach}): it reads older
    blocks from storage, and its first message, once VDL covers that LSN,
    hands it the commits made before it. *)

val detach_replica : t -> Simnet.Addr.t -> unit
(** Stop streaming to a replica; the last one to detach drops the stream's
    backlog. *)

val replicas : t -> Simnet.Addr.t list

val stream_backlog : t -> int
(** Records queued for the replication stream, not yet shipped. *)

val replication_stream : t -> Replication_stream.t
(** The stream's whole state: its queue and its attached replicas. *)

(* ---- lifecycle / faults ---- *)

val crash : t -> unit
(** Instantly lose all ephemeral state: cache, consistency points, commit
    queue, in-flight reads and writes, transaction table.  Unacknowledged
    commits are abandoned; acknowledged ones are storage's problem — which
    is the whole point. *)

val recover : t -> ((Recovery.outcome, string) result -> unit) -> unit
(** §2.4: bump the volume epoch, re-derive VCL/VDL from storage SCLs,
    truncate the ragged edge, rebuild local state, and reopen.  Works both
    after {!crash} on the same instance and on a fresh instance attached to
    an existing volume (replica promotion).  A still-open instance is
    fenced ({!crash}) first: recovery truncates above its point-in-time
    VCL poll, so commits acked during the poll would otherwise be lost. *)

(* ---- membership changes (§4.1), exercised by the harness ---- *)

val begin_segment_replacement :
  t ->
  Storage.Pg_id.t ->
  suspect:Member_id.t ->
  replacement:Membership.member ->
  replacement_addr:Simnet.Addr.t ->
  (unit, string) result
(** First epoch increment of Figure 5: dual quorums, I/O continues.  The
    new roster (with addresses) is pushed to all member segments. *)

val commit_segment_replacement :
  t -> Storage.Pg_id.t -> suspect:Member_id.t -> (unit, string) result

val revert_segment_replacement :
  t -> Storage.Pg_id.t -> suspect:Member_id.t -> (unit, string) result

val broadcast_membership : t -> Storage.Pg_id.t -> unit
(** Re-push the current roster/epoch for a group (e.g. after restarting a
    storage node). *)
