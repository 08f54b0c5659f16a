(** Materialized data blocks with non-destructive versioning.

    Full segments coalesce redo into block images (Figure 2, step 5).
    "Aurora blocks are written out-of-place and non-destructively" (§3.4):
    every key in a block carries a chain of versions tagged with the LSN and
    transaction that wrote them, so any reader — writer instance or lagging
    replica — can reconstruct the block as of any LSN at or above the
    garbage-collection floor (PGMRPL).

    The store also gives each block a checksum over its newest versions,
    so the scrubber (Figure 2, step 8) has something to verify, and a
    corruption hook for fault-injection tests.

    {b Checksum contract.}  A block's checksum is a sum of one term per
    key, a digest of that key's newest version.  The checksum is a
    simulation device: in this model the only way a head can differ from
    what its writes produced is {!corrupt}, so only a block a fault has
    edited stores a sum.  Every other block is {e implicit}: its sum is by
    definition that of its heads, nothing is stored, and no write folds a
    term.  {!corrupt} makes a block {e tracked}: it stores the legitimate
    sum first (once; a block already tracked keeps the sum its writes
    left), then edits a head.  A legitimate write to a tracked block
    ({!apply}, {!rollback_above}) swaps its key's term in O(1); {!gc} never
    changes a newest version, so it does no checksum work.  Because no
    write recomputes the sum, a corrupted value stays visible to {!verify}
    through any later writes until {!load_snapshot} installs an image and
    returns the block to implicit.  The tracked sums live in one table of
    the store, so a write to an implicit block costs one length test.

    {b Shared versions.}  A version is the record's own
    ({!Wal.Log_record.version}, built once by [Log_record.make]): {!apply}
    conses it onto its key's chain, so the writer's cache and every segment
    that applies the record hold the same object, and {!block_snapshot} and
    {!image} share chains with the store.  An image read at or above the
    block's newest LSN is one memoised list, which the segment ships and
    every cache installs as is (see {!image}).  Nothing mutates a version.
    {!corrupt} swaps a private copy into this store's chain only, so a fault
    injected on one segment reaches neither its peers nor the record.

    {b Outcomes.}  The store is the only owner of its segment's transaction
    outcomes ({!note_outcome}, {!outcomes}): {!gc} decides what a floor may
    collect from them, and its index (below) is woken by them, so the two
    cannot disagree.  They live in a {!Simcore.Int_table} from txn id to
    the outcome's int: no allocation per row, and a lookup that hashes
    nothing and boxes no option.

    {b Block table.}  A segment holds one stripe of the block space (a
    group's blocks are [b mod group_count]), so the table of blocks hashes
    an id through {!Simcore.Bits.mix_finish}: under the identity hash of
    [Block_id.Tbl], only 1/group_count of its power-of-two buckets would
    be used.

    {b Key table.}  Each block keeps its keys in a chained hash table of
    this module's own, whose bucket nodes hold the version chains in a
    mutable field.  A write hashes its key once, with the word mix its
    checksum term starts from, and conses onto the node in place (on a miss
    it links a new node into the slot it already computed).  The slots
    double at two keys per slot.  The table's iteration order is its own
    and nothing may depend on it: the entry order of {!block_snapshot} and
    {!image}, and {!corrupt}'s choice of victim, follow it.

    {b GC index.}  Each block keeps a work list of the keys {!gc} must
    visit, as their table nodes, so a visit or a wake rewrites a chain
    without a lookup.  A key with one version is on no list: it has nothing to
    collect.  A key with two or more versions is on its block's work list
    unless it is {e parked}: {!gc} parks a key when none of its non-last
    versions has a commit outcome, since only such a version can anchor a
    cut and raising the floor changes nothing else.  A parked key goes back
    on the work list when {!apply} adds a version to it, or when
    {!note_outcome} records a commit for a transaction that wrote one of
    its non-last versions.  {!rollback_above} and {!load_snapshot} put
    every multi-version key they rebuild back on the work list.  The store
    lists the blocks holding parked keys, so a wake visits only those. *)

type version = Wal.Log_record.version = {
  value : string option;  (** [None] encodes a delete. *)
  txn : Wal.Txn_id.t;
  lsn : Wal.Lsn.t;
}
(** The record's own version ({!Wal.Log_record.version}), re-exported. *)

type t

val create : unit -> t

val apply : t -> Wal.Log_record.t -> unit
(** Apply one redo record.  Records for a given block must be applied in
    block-chain (ascending LSN) order; commit/abort/noop records are
    ignored here (their outcomes arrive through {!note_outcome}). *)

val applied_upto : t -> Wal.Lsn.t
(** Highest LSN applied so far. *)

val note_outcome : t -> Wal.Txn_id.t -> Wal.Lsn.t -> aborted:bool -> unit
(** Record a transaction's durable outcome: the LSN of its commit or abort
    record.  A later outcome for the same transaction replaces the earlier
    one.  A commit wakes the parked keys that wait on the transaction; the
    cost is a bit test, and on a hit one scan of the blocks holding parked
    keys. *)

val outcomes : t -> (Wal.Txn_id.t * Wal.Lsn.t * bool) list
(** Every recorded outcome as (txn, record LSN, is_abort), once per
    transaction.  The order follows the outcome table's slots, so it
    depends only on the sequence of {!note_outcome} calls. *)

val versions : t -> Wal.Block_id.t -> key:string -> version list
(** Version chain for a key, newest first; [] if unknown. *)

val read_at :
  t ->
  Wal.Block_id.t ->
  key:string ->
  as_of:Wal.Lsn.t ->
  exclude:Wal.Txn_id.Set.t ->
  version option
(** MVCC read: the newest version with [lsn <= as_of] whose writing
    transaction is not in [exclude] (the read view's active/aborted set).
    This is the storage half of snapshot isolation; the exclusion set comes
    from the database tier. *)

val block_snapshot : t -> Wal.Block_id.t -> (string * version list) list
(** Entire block: every key with its full version chain (newest first).
    Used for hydration and full-segment repair. *)

val image : t -> Wal.Block_id.t -> as_of:Wal.Lsn.t -> (string * version list) list * int
(** The block as a read at [as_of] sees it, in one pass: every key with a
    version at or below [as_of], with the suffix of its chain from there
    (shared with the store), and the summed {!version_bytes} of those
    versions.  The size is a running total of every version the block
    holds, less the versions hidden above [as_of], so no other version is
    sized.

    {b Memo.}  Each block keeps [newest], a bound at or above every
    version's LSN ({!apply} and {!load_snapshot} raise it, and
    {!rollback_above} may lower it to its bound), and [memo], the last
    image built at an [as_of] at or above [newest], where every chain is
    visible whole.  Such a read returns the memo, building and keeping it
    first if there is none, so an unchanged block's image is built once
    and a repeat allocates nothing.  The result is immutable and shared:
    the segment ships it, and the writer's and replicas' caches install
    the same list.  Every change to a chain clears the memo: {!apply},
    a {!gc} cut, {!rollback_above}, {!corrupt} and {!load_snapshot}.  A
    read below [newest] builds its image as before and keeps nothing. *)

val version_bytes : string -> version -> int
(** Stored and wire size of one version of [key]: the key, the value and
    24 bytes of txn, LSN and tag. *)

val load_snapshot : t -> Wal.Block_id.t -> (string * version list) list -> unit
(** Install a block image wholesale (repair / hydration path).  Existing
    versions for the block are replaced, and the block's checksum is
    implicit again: the image is its contents. *)

val repair : t -> Wal.Block_id.t -> (string * version list) list -> bool
(** Scrub repair: if the block fails {!verify} and the image's newest
    versions digest to the block's stored checksum — the contents its
    legitimate writes produced — install the image with {!load_snapshot}.
    A peer's image of the same materialized chain passes; a corrupted one
    does not.  An implicit block verifies, so it is never repaired.
    Returns whether the image was installed. *)

val rollback_above : t -> Wal.Lsn.t -> int
(** Drop every version with [lsn] strictly above the bound — applied when a
    truncation range annuls records the background coalescer had already
    materialized (§2.4).  Returns versions dropped. *)

val gc : t -> keep_at_or_above:Wal.Lsn.t -> int
(** Drop versions superseded before the floor: for each key, every version
    older than the newest version with [lsn <= floor] whose transaction
    committed at or below the floor (per {!note_outcome}) is unreferenced
    by any legal read view and is collected.  Aborted or unknown-outcome
    versions never anchor the cut (their data below must survive the
    logical undo).  Returns versions dropped.

    Cost: O(work-list keys + blocks with work).  Parked keys and blocks
    whose work list is empty are not visited. *)

val blocks : t -> Wal.Block_id.t list
val version_count : t -> int
val bytes_used : t -> int

val mismatched : t -> Wal.Block_id.t list
(** The blocks that fail {!verify}, in no particular order.  Only a tracked
    block can fail, so this visits the tracked blocks, not {!blocks}. *)

val corrupt : t -> Wal.Block_id.t -> bool
(** Fault injection: silently replace one non-empty newest version with an
    altered copy so the checksum no longer matches.  The block becomes
    tracked (see the checksum contract) before the edit lands.  Returns
    [false], and changes nothing, if the block has no such value. *)

val verify : t -> Wal.Block_id.t -> bool
(** The scrubber's probe.  An implicit block verifies with no work; a
    tracked block's heads are digested and compared with its stored sum. *)
