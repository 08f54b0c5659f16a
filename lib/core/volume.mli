(** The storage volume as seen by the writer instance.

    Protection groups concatenate to form the volume (§2.1); blocks are
    striped across groups by block id.  The volume owns the writer-local
    state that makes consensus unnecessary:

    - the single monotonic LSN allocator,
    - the three chain tails (volume-wide, per-group, per-block) stitched
      into every record (§2.2),
    - the volume epoch (crash-recovery fencing, §2.4),
    - the geometry epoch (volume growth, §4.1),
    - each group's membership state machine and member->address map: the
      one record of who is in a group, which the harness reads too.

    It is deliberately passive: record construction and bookkeeping only.
    Sending, acking, and consistency tracking live in {!Database}. *)

open Wal
open Quorum

type roster_memo

(** A protection group.  [private]: only this module's transitions
    ({!begin_membership_change}, {!commit_membership_change},
    {!revert_membership_change}, {!change_scheme}) replace [membership],
    each with a new value, and [addr_of] changes only with it, holding
    exactly the addresses of the membership's members. *)
type pg = private {
  id : Storage.Pg_id.t;
  mutable membership : Membership.t;
  mutable addr_of : Simnet.Addr.t Member_id.Map.t;
  mutable segment_tail : Lsn.t;  (** Last LSN routed to this group. *)
  mutable memo : roster_memo option;
      (** {!roster}'s and {!full_roster}'s memo, valid while [membership]
          is the value it was computed from (compared physically). *)
}

type t

val create :
  (Storage.Pg_id.t * Membership.t * (Member_id.t * Simnet.Addr.t) list) list ->
  t
(** @raise Invalid_argument on an empty group list. *)

val pgs : t -> pg list
val pg_count : t -> int
val find_pg : t -> Storage.Pg_id.t -> pg
val pg_of_block : t -> Block_id.t -> pg
val volume_epoch : t -> Epoch.t
val bump_volume_epoch : t -> Epoch.t
val geometry_epoch : t -> Epoch.t
val last_lsn : t -> Lsn.t

val tail : t -> Lsn.t
(** The LSN of the last record in the volume chain: {!last_lsn}, except
    after recovery, whose allocator restarts above a truncated range that
    holds no record. *)

val epochs_for : t -> pg -> Storage.Protocol.epochs

val rule : pg -> Quorum_set.Rule.t
(** Current composite quorum rule (varies with membership epoch). *)

val roster : pg -> (Member_id.t * Simnet.Addr.t) list
(** Every member currently involved (including in-flight replacements),
    with its network address — the write fan-out set.  Memoised with
    {!full_roster}. *)

val full_roster : pg -> (Member_id.t * Simnet.Addr.t) list
(** The {!roster}'s full segments, in roster order: those that hold data
    blocks, so the only ones a read may go to (§4.2).  Memoised: the same
    list is returned until a transition replaces [membership]. *)

val make_record :
  t ->
  block:Block_id.t ->
  txn:Txn_id.t ->
  mtr_id:int ->
  mtr_end:bool ->
  op:Log_record.op ->
  Log_record.t * pg
(** Allocate the next LSN and build a fully chained record. *)

val grow :
  t ->
  new_blocks_from:Block_id.t ->
  Membership.t ->
  (Member_id.t * Simnet.Addr.t) list ->
  pg
(** Append a protection group (10 GB of new address space in the paper) and
    increment the geometry epoch.  Routing is stable: blocks below
    [new_blocks_from] keep their existing group; blocks at or above it
    stripe over the grown group list.
    @raise Invalid_argument if the boundary is not above earlier regions. *)

val begin_membership_change :
  t ->
  Storage.Pg_id.t ->
  suspect:Member_id.t ->
  replacement:Membership.member ->
  replacement_addr:Simnet.Addr.t ->
  (unit, string) result

val commit_membership_change :
  t -> Storage.Pg_id.t -> suspect:Member_id.t -> (unit, string) result

val revert_membership_change :
  t -> Storage.Pg_id.t -> suspect:Member_id.t -> (unit, string) result

val change_scheme :
  t ->
  Storage.Pg_id.t ->
  scheme:Membership.scheme ->
  Membership.member list ->
  (unit, string) result
(** Re-form the group under [scheme] over [members] ({!Membership.change_scheme}:
    epoch+1, steady groups only), e.g. 4/6 to 3/4 during a long AZ
    outage (§4.1).  Every member must already have an address; those of
    members left out are dropped. *)

val restore_tails :
  t ->
  alloc_above:Lsn.t ->
  volume_tail:Lsn.t ->
  pg_tails:(Storage.Pg_id.t * Lsn.t) list ->
  block_tails:(Block_id.t * Lsn.t) list ->
  unit
(** Crash recovery: resume allocation above [alloc_above] (the truncation
    range's upper bound) and re-anchor all three chains at the recovered
    tails (the last surviving record per chain, §2.4). *)
