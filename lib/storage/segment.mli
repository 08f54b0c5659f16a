(** One segment replica: the durable state a storage node keeps per
    protection group it participates in.

    Couples the hot log (gap-tracked redo, SCL) with the block store
    (materialized versions, full segments only) and the fencing state
    (volume epoch, membership epoch, PGMRPL floor, backup progress).
    Pure state + transitions; all scheduling/IO pacing lives in
    {!Storage_node}. *)

type t

val create :
  pg:Pg_id.t ->
  seg:Quorum.Member_id.t ->
  kind:Quorum.Membership.segment_kind ->
  t

val pg : t -> Pg_id.t
val seg_id : t -> Quorum.Member_id.t
val kind : t -> Quorum.Membership.segment_kind
val hot_log : t -> Wal.Hot_log.t
val store : t -> Block_store.t
val scl : t -> Wal.Lsn.t
val coalesced_upto : t -> Wal.Lsn.t
val volume_epoch : t -> Quorum.Epoch.t
val membership_epoch : t -> Quorum.Epoch.t
val pgmrpl : t -> Wal.Lsn.t
val backup_upto : t -> Wal.Lsn.t
val set_backup_upto : t -> Wal.Lsn.t -> unit
val peers : t -> (Quorum.Member_id.t * Simnet.Addr.t) list
val set_peers : t -> (Quorum.Member_id.t * Simnet.Addr.t) list -> unit

val note_pgcl : t -> Wal.Lsn.t -> unit
(** Adopt a (monotone) writer-advertised group durable point; bounds read
    acceptance (§3.1 bookkeeping, pushed to the segment). *)

val check_epochs : t -> Protocol.epochs -> (unit, Protocol.reject_reason) result
(** Reject stale volume or membership epochs; adopt newer volume epochs (the
    new writer proves itself by carrying a higher epoch it installed through
    a write quorum).  Membership epochs are only adopted via
    {!install_membership} because they come with a roster. *)

val install_membership :
  t -> epoch:Quorum.Epoch.t -> peers:(Quorum.Member_id.t * Simnet.Addr.t) list -> unit
(** Adopt a (newer) membership epoch and the accompanying roster; older
    epochs are ignored. *)

val install_volume_epoch : t -> Quorum.Epoch.t -> unit

val insert_records : t -> Wal.Log_record.t list -> Wal.Lsn.t
(** Append records to the hot log (duplicates/annulled are skipped) and
    return the resulting SCL. *)

val coalesce : t -> int
(** Materialize chained-but-unapplied records into the block store (full
    segments; no-op for tails).  Returns records applied. *)

val read_block :
  t ->
  block:Wal.Block_id.t ->
  as_of:Wal.Lsn.t ->
  (Protocol.block_image, Protocol.read_error) result
(** Serve a block image at [as_of], materializing on demand first.  Tail
    segments refuse; requests outside [PGMRPL, SCL] are refused (§3.4). *)

val truncate : t -> above:Wal.Lsn.t -> upto:Wal.Lsn.t -> int
(** Apply a truncation range to the hot log and roll back any coalesced
    versions above the cut (§2.4).  Returns records+versions dropped. *)

val advance_pgmrpl : t -> Wal.Lsn.t -> int
(** Raise the GC floor (monotone) and collect superseded block versions.
    Returns versions collected. *)

val gc_hot_log : t -> int
(** Drop hot-log records no longer needed: at or below
    [min backup_upto (coalesced or scl for tails) pgmrpl]. *)

val hydrate_export :
  t -> since:Wal.Lsn.t -> want_blocks:bool ->
  Wal.Log_record.t list
  * (Wal.Block_id.t * (string * Block_store.version list) list) list
(** What a peer needs to rebuild itself: our retained chain records above
    [since] and (optionally) full block snapshots. *)

val hydrate_import :
  t ->
  records:Wal.Log_record.t list ->
  blocks:(Wal.Block_id.t * (string * Block_store.version list) list) list ->
  donor_scl:Wal.Lsn.t ->
  coalesced:Wal.Lsn.t ->
  unit
(** Adopt a peer's exported state into this (fresh) segment: anchor the hot
    log at the chain position preceding the oldest record (or at
    [donor_scl] when the donor's hot log was fully collected), install
    block snapshots, and continue coalescing from [coalesced].  Snapshots
    from a donor behind this segment's coalesce point are discarded; at an
    equal point they only repair blocks that fail their checksum
    ({!Block_store.repair}). *)

val txn_statuses : t -> (Wal.Txn_id.t * Wal.Lsn.t * bool) list
(** Durable transaction outcomes — (txn, status-record LSN, is_abort) —
    accumulated from received commit/abort redo and kept by the block store
    ({!Block_store.outcomes}), whose GC reads them.  Survives hot-log GC,
    playing the role of the txn-system pages a real engine materializes;
    crash recovery unions these across segments. *)

val merge_statuses : t -> (Wal.Txn_id.t * Wal.Lsn.t * bool) list -> unit
(** Adopt a peer's statuses during hydration ({!Block_store.note_outcome}:
    a commit wakes the GC work it unblocks). *)

val retained_from : t -> Wal.Lsn.t
(** Hot-log GC floor (see {!Wal.Hot_log.dropped_upto}). *)

val scrub : t -> Wal.Block_id.t list
(** Verify block checksums; returns the corrupt blocks found (Figure 2
    step 8), in no particular order ({!Block_store.mismatched}).  Repair
    is the node's job (re-hydrate those blocks). *)

val bytes_stored : t -> int
(** Hot log + block store footprint (the §4.2 cost metric). *)
