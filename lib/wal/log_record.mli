(** Redo log records.

    The only writes that cross the simulated network from the database
    instance to storage nodes (§2.2).  Each record carries the paper's three
    back-chains:

    - [prev_volume]: LSN of the preceding record in the whole volume (the
      full log chain, fallback for volume-metadata regeneration);
    - [prev_segment]: LSN of the preceding record routed to the same
      protection group (the segment chain driving SCL and gossip);
    - [prev_block]: LSN of the preceding record modifying the same block
      (the block chain driving on-demand materialization).

    Records also carry their mini-transaction (MTR) identity: storage-level
    structural atomicity (§3.3) is expressed as "consistency points may only
    rest on [mtr_end] records". *)

(** Logical operation encoded by a record.  The engine above is a
    transactional key-value store, so redo deltas are keyed puts/deletes. *)
type op =
  | Put of { key : string; value : string }
  | Delete of { key : string }
  | Commit  (** Transaction commit; the record's LSN is the txn's SCN. *)
  | Abort  (** Transaction rollback marker. *)
  | Noop  (** Control / filler (used by tests and volume metadata). *)

(** One materialized value of a key, as block chains hold it.  {!make}
    builds it once per record, and every cache and segment that applies the
    record conses this same object onto its chain: nothing mutates it, so
    sharing is safe. *)
type version = {
  value : string option;  (** [None] encodes a delete. *)
  txn : Txn_id.t;
  lsn : Lsn.t;
}

(** A record is built only by {!make} (the type is [private]), so its
    [version] and [size_bytes] always agree with its [op], [txn] and
    [lsn]. *)
type t = private {
  lsn : Lsn.t;
  prev_volume : Lsn.t;
  prev_segment : Lsn.t;
  prev_block : Lsn.t;
  block : Block_id.t;
  txn : Txn_id.t;
  mtr_id : int;  (** Mini-transaction this record belongs to. *)
  mtr_end : bool;  (** Last record of its MTR (a VDL candidate). *)
  op : op;
  version : version;
      (** What applying the record adds to its key's chain: the value of a
          [Put], [None] for a [Delete], with the record's [txn] and [lsn].
          Commit, Abort and Noop records share one constant that nothing
          applies. *)
  size_bytes : int;  (** Simulated wire/disk footprint. *)
}

val make :
  lsn:Lsn.t ->
  prev_volume:Lsn.t ->
  prev_segment:Lsn.t ->
  prev_block:Lsn.t ->
  block:Block_id.t ->
  txn:Txn_id.t ->
  mtr_id:int ->
  mtr_end:bool ->
  op:op ->
  t
(** Build a record; [size_bytes] is estimated from the op (a fixed header
    plus key/value payload), matching the paper's observation that redo
    records are far smaller than data blocks.  The [version] is built here,
    once: the writer's cache and every segment share it. *)

val header_bytes : int
(** Fixed per-record overhead used by [make]'s size estimate. *)

val equal_op : op -> op -> bool

val equal : t -> t -> bool
(** Structural equality on every field via each component's own [equal]
    (hand-written — the record mixes abstract protocol types on which
    polymorphic compare is off-limits).  [version] follows from [op], [txn]
    and [lsn], so it is not compared on its own. *)

val lsn_range : t list -> (Lsn.t * Lsn.t) option
(** Smallest and largest LSN in a batch, [None] for the empty batch —
    order-independent, used by the flight recorder to label a message
    with the range of records it carried. *)

val is_commit : t -> bool
val pp : Format.formatter -> t -> unit
val pp_op : Format.formatter -> op -> unit
