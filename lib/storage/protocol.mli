(** Wire protocol of the Aurora data plane.

    One variant covers every message exchanged between the writer instance,
    read replicas, and storage nodes, so a single simulated network carries
    all traffic: the asynchronous write path (§2.2–2.3), direct block reads
    (§3.1), peer-to-peer gossip (Figure 2 step 4), crash recovery
    (§2.4), epoch installation and membership updates (§2.4, §4.1), segment
    repair/hydration (§4.2), the PGMRPL garbage-collection floor (§3.4),
    and the writer→replica physical replication stream (§3.2–3.4).

    Baseline protocols (2PC, Paxos) define their own message types and run
    on their own network instances. *)

open Wal
open Quorum

type epochs = { volume : Epoch.t; membership : Epoch.t }
(** Every data-plane request carries the client's view of both fencing
    epochs; storage nodes reject stale ones (§2.4, §4.1) — the "changing
    the locks" mechanism that replaces lease waits. *)

(** Why a storage node refused a request. *)
type reject_reason =
  | Stale_volume_epoch of Epoch.t  (** Carries the node's current epoch. *)
  | Stale_membership_epoch of Epoch.t
  | Not_a_member

(** Why a direct block read could not be served by this segment. *)
type read_error =
  | Rejected of reject_reason
  | Tail_segment  (** Tail segments store no data blocks (§4.2). *)
  | Beyond_scl of Lsn.t
      (** The segment's SCL; the caller should try another segment. *)
  | Below_gc_floor of Lsn.t  (** PGMRPL already advanced past [as_of]. *)

type block_image = {
  image_block : Block_id.t;
  image_as_of : Lsn.t;
  image_entries : (string * Block_store.version list) list;
  image_bytes : int;
      (** Wire size, equal to [snapshot_bytes image_entries]; the storage
          node's disk and the network charge it.  {!image_of} sets it. *)
}
(** A materialized block image: every key with its (newest-first) version
    chain at or below the requested LSN, and its size. *)

type mtr_chunk = { chunk_records : Log_record.t list }
(** One atomically applied MTR chunk of the replication stream (§3.3). *)

(** The messages themselves.  Groups, in order: write path (instance →
    storage node), read path, same-PG gossip, crash recovery, epoch
    installation, membership, repair/hydration, GC floor, the physical
    replication stream, and replica read-point feedback. *)
type t =
  | Write_batch of {
      pg : Pg_id.t;
      seg : Member_id.t;
      records : Log_record.t list;
      pgcl : Lsn.t;
          (** The group's durable point as known by the writer: lets the
              segment bound read acceptance without any consensus round. *)
      epochs : epochs;
    }
  | Write_ack of { pg : Pg_id.t; seg : Member_id.t; scl : Lsn.t }
      (** Async ack carrying the segment's new SCL (§2.2). *)
  | Write_reject of { pg : Pg_id.t; seg : Member_id.t; reason : reject_reason }
  | Read_block of {
      req : int;
      pg : Pg_id.t;
      seg : Member_id.t;
      block : Block_id.t;
      as_of : Lsn.t;
      epochs : epochs;
    }
      (** Direct (non-quorum) read from the one segment the bookkeeping
          says is sufficiently caught up (§3.1). *)
  | Read_reply of {
      req : int;
      seg : Member_id.t;
      result : (block_image, read_error) result;
    }
  | Gossip_pull of {
      pg : Pg_id.t;
      from_seg : Member_id.t;
      scl : Lsn.t;
      epochs : epochs;
    }
      (** Peer asks a same-PG peer for records above its SCL (Figure 2
          step 4). *)
  | Gossip_reply of { pg : Pg_id.t; records : Log_record.t list }
  | Scl_probe of { req : int; pg : Pg_id.t; seg : Member_id.t; epochs : epochs }
      (** Recovery: read-quorum poll for each segment's SCL (§2.4). *)
  | Scl_reply of {
      req : int;
      pg : Pg_id.t;
      seg : Member_id.t;
      scl : Lsn.t;
      highest : Lsn.t;
    }
  | Truncate of {
      pg : Pg_id.t;
      seg : Member_id.t;
      above : Lsn.t;
      upto : Lsn.t;
      pgcl : Lsn.t;  (** The group's recovered chain tail. *)
      epochs : epochs;
    }
      (** Register the recovery truncation range annulling records in
          [(above, upto]] (§2.4, Figure 4). *)
  | Truncate_ack of { pg : Pg_id.t; seg : Member_id.t }
  | Epoch_update of { req : int; pg : Pg_id.t; seg : Member_id.t; epochs : epochs }
      (** Install new epochs — the "write" that changes the locks (§2.4). *)
  | Epoch_ack of { req : int; pg : Pg_id.t; seg : Member_id.t }
  | Membership_update of {
      pg : Pg_id.t;
      epoch : Epoch.t;
      peers : (Member_id.t * Simnet.Addr.t) list;
          (** Full roster incl. in-flight replacements, for gossip and
              repair. *)
    }
      (** Membership-epoch bump from the monitor/instance (§4.1). *)
  | Hydrate_pull of {
      req : int;
      pg : Pg_id.t;
      from_seg : Member_id.t;
      since : Lsn.t;
      want_blocks : bool;
      epochs : epochs;
    }
      (** A fresh replacement segment pulls state from a peer (§4.2). *)
  | Hydrate_reply of {
      req : int;
      pg : Pg_id.t;
      records : Log_record.t list;
      blocks : (Block_id.t * (string * Block_store.version list) list) list;
      scl : Lsn.t;
      coalesced : Lsn.t;  (** Responder's materialization point. *)
      retained_from : Lsn.t;  (** Hot-log GC floor: no records at/below. *)
      statuses : (Txn_id.t * Lsn.t * bool) list;
          (** Durable txn outcomes: (txn, record LSN, is_abort) — the
              segment-materialized "transaction system" state that survives
              hot-log GC, standing in for InnoDB's txn-system pages. *)
    }
  | Pgmrpl_update of {
      pg : Pg_id.t;
      seg : Member_id.t;
      floor : Lsn.t;
      pgcl : Lsn.t;  (** Piggybacked durable point, see {!Write_batch}. *)
    }
      (** Advance the protection group's minimum read point (§3.4). *)
  | Redo_stream of {
      chunks : mtr_chunk list;
      vdl : Lsn.t;  (** Writer's VDL as of send: replica apply ceiling. *)
      commits : (Txn_id.t * Lsn.t) list;
          (** Commit notifications (SCNs). *)
      volume_epoch : Epoch.t;
      prev : Lsn.t;
          (** The VDL of the writer's previous message to this replica, so
              the replica can tell one went missing; [Lsn.none] on a
              hand-off, which anchors the replica afresh. *)
    }
      (** Writer → replica physical replication (§3.2–3.4). *)
  | Replica_feedback of { read_floor : Lsn.t; resync : bool }
      (** Replica → writer read-point feedback for PGMRPL (§3.4); [resync]
          while the replica waits for a fresh hand-off after a gap. *)

val records_bytes : Log_record.t list -> int
(** Summed simulated wire footprint of a record batch. *)

val write_batch_bytes : Log_record.t list -> int
(** [bytes] of a [Write_batch] carrying these records, whatever its [seg]. *)

val snapshot_bytes : (string * Block_store.version list) list -> int
(** Estimated wire size of a block image carrying these chains: a 64-byte
    header plus {!Block_store.version_bytes} of every version.  Folds every
    version; a hydration reply pays it per block. *)

val image_of :
  block:Block_id.t ->
  as_of:Lsn.t ->
  (string * Block_store.version list) list * int ->
  block_image
(** The image of [block] at [as_of] from {!Block_store.image}'s chains and
    their summed {!Block_store.version_bytes}; its [image_bytes] adds the
    header, so it equals [snapshot_bytes] of the chains without folding
    them. *)

val bytes : t -> int
(** Estimated wire size of a message, used for network byte accounting. *)

(** The flight recorder's reduced view of a message: bare kind tag,
    governing protection group, and the LSN range it carries — the
    payload range for record-carrying messages, the watermark itself
    otherwise ([-1] = no LSN / no PG). *)
type info = {
  kind : Recorder.Event.msg_kind;
  pg : int;
  lsn_lo : int;
  lsn_hi : int;
}

val describe : t -> info
(** Translate a wire message for [Recorder] hook points.  Pure; performs
    no LSN arithmetic, only integer imaging. *)

val pp_read_error : Format.formatter -> read_error -> unit
