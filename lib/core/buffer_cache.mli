(** Block buffer cache with the write-ahead-log eviction invariant.

    "Even though Aurora does not write blocks to storage from the database
    instance, it must support write-ahead logging by ensuring redo log
    records for dirty blocks have been made durable before discarding the
    block from cache" (§3.1).  Eviction never writes anything: a block is
    simply droppable once its newest modification LSN is at or below the
    current VDL, because the storage fleet can then always rematerialize
    it.  Blocks modified above VDL are pinned.

    Replicas use the same structure with [apply_if_present]: "they receive
    a physical redo log stream ... and use this to update only data blocks
    present in their local caches; redo records for uncached blocks can be
    discarded" (§3.2).

    The block table is an array indexed by block id, in which the LRU
    list's sentinel stands for an absent block: a lookup hashes nothing
    and allocates nothing.  It grows on demand, since [Volume.grow] adds
    ids above the configured block count, so it costs one word per id up
    to the highest cached.  A count answers {!size} and the capacity test.
    A block filled from a storage image keeps that image's list, which may
    be the store's memoised image ({!Storage.Block_store.image}) shared
    with other caches; nothing mutates it. *)

open Wal

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  eviction_blocked : int;  (** Eviction attempts refused by the WAL rule. *)
}

val create : capacity:int -> t
(** [capacity] in blocks.  @raise Invalid_argument unless positive. *)

val contains : t -> Block_id.t -> bool

(** Outcome of a cache lookup. *)
type lookup =
  | Hit of Storage.Block_store.version list
      (** Authoritative: the block was installed from a storage image; an
          empty chain really means "no such key at this block". *)
  | Partial of Storage.Block_store.version list
      (** The block entered the cache via blind writes and only holds keys
          written since: serve only if a visible version is present,
          otherwise fall through to storage. *)
  | Miss

val read : t -> Block_id.t -> key:string -> lookup

val note_partial_hit : t -> unit
(** Metrics: a [Partial] lookup that was good enough to serve. *)

val apply : t -> Log_record.t -> vdl:Lsn.t -> unit
(** Writer path: apply a redo record to the cache, creating the block entry
    if absent, then evict clean blocks if over capacity. *)

val apply_if_present : t -> Log_record.t -> vdl:Lsn.t -> bool
(** Replica path: apply only when the block is already cached.  Returns
    whether it was applied. *)

val install : t -> Storage.Protocol.block_image -> vdl:Lsn.t -> unit
(** Insert a block image fetched from storage (read-miss fill). *)

val last_modified : t -> Block_id.t -> Lsn.t option
val size : t -> int
val capacity : t -> int
val stats : t -> stats

val evict_pressure : t -> vdl:Lsn.t -> unit
(** Shrink to capacity, evicting least-recently-used clean blocks.  Called
    with the current VDL so the WAL rule can be enforced.  Cost:
    O(1 + dirty blocks skipped) per eviction, one walk from the LRU end of
    a recency-ordered list.  [apply], [apply_if_present] and [install]
    call it after their own work. *)

val drop_all : t -> unit
(** Crash: the cache is ephemeral state.  The table keeps its length, with
    every slot absent. *)
