(** Protection-group membership state machine (§4.1, Figure 5).

    Membership changes never swap member sets atomically.  To replace a
    suspect member F with a fresh member G, the group first moves to an
    epoch whose write quorum is [4/6 of ABCDEF AND 4/6 of ABCDEG] and whose
    read quorum is [3/6 of ABCDEF OR 3/6 of ABCDEG]; once G finishes
    hydrating (or F returns) a second epoch increment lands on ABCDEG (or
    back on ABCDEF).  Both steps are plain quorum writes: I/O continues
    throughout, additional failures compose (each adds another pending
    pair, doubling the variants exactly as in the paper's E→H example),
    and every step is reversible until resolved.

    This module tracks the member roster, pending (suspect, replacement)
    pairs, and the epoch, and derives the composite quorum rule for the
    current state.  Every transition ({!create}, {!begin_change},
    {!commit_change}, {!revert_change}, {!change_scheme}) derives that rule
    and re-validates the §2.1 overlap rules by exhaustive enumeration, once;
    the proved rule is stored in the resulting value, so reading it back
    costs nothing. *)

type segment_kind =
  | Full  (** Stores redo log and materialized data blocks. *)
  | Tail  (** Stores redo log only (§4.2 cost reduction). *)

type member = { id : Member_id.t; az : Az.t; kind : segment_kind }

(** How atoms are formed over a concrete member set. *)
type scheme =
  | Plain of { write_threshold : int; read_threshold : int }
      (** Classic k-of-n over all members, e.g. Aurora's 4/6 write, 3/6
          read, or 2/3-of-3 for the Figure 1 comparison. *)
  | Tiered of { mixed_write : int; mixed_read : int }
      (** §4.2 unlike members: write = [mixed_write/all OR all-fulls];
          read = [mixed_read/all AND 1-of-fulls]. *)

type t

type pending = { suspect : Member_id.t; replacement : Member_id.t }

val create : scheme:scheme -> member list -> t
(** Steady group at {!Epoch.initial}.
    @raise Invalid_argument if the derived quorum rule violates §2.1 or
    member ids repeat. *)

val epoch : t -> Epoch.t
val scheme : t -> scheme

val members : t -> member list
(** All members the group currently involves, including in-flight
    replacements, in id order. *)

val member_ids : t -> Member_id.Set.t
val find_member : t -> Member_id.t -> member option
val pendings : t -> pending list

val replacement_of : t -> suspect:Member_id.t -> Member_id.t option
(** The member replacing [suspect] in a pending change, if any. *)

val variants : t -> Member_id.Set.t list
(** The candidate final member sets (Figure 5's ABCDEF / ABCDEG / ...). *)

val rule : t -> Quorum_set.Rule.t
(** Composite read/write quorum rule for the current epoch.  O(1): the
    rule was derived and its §2.1 proof run when this value was built, so
    the 2^n subset enumeration happens once per transition, not per
    call. *)

val is_steady : t -> bool

val begin_change :
  t -> suspect:Member_id.t -> replacement:member -> (t, string) result
(** Start replacing [suspect]: epoch+1, dual quorum.  Fails if [suspect] is
    not an active member, is already under replacement, or [replacement]'s
    id is already in use.  The replacement must have the suspect's
    [kind] (a tail segment repairs into a tail slot). *)

val commit_change : t -> suspect:Member_id.t -> (t, string) result
(** Finish: drop [suspect], keep its replacement; epoch+1. *)

val revert_change : t -> suspect:Member_id.t -> (t, string) result
(** Abandon: keep [suspect] (it came back), drop the replacement;
    epoch+1. *)

val change_scheme : t -> scheme:scheme -> member list -> (t, string) result
(** Wholesale re-formation under a new scheme/member roster (e.g. moving
    from 4/6 to 3/4 during an extended AZ outage, §4.1); epoch+1.  Only
    legal from a steady state. *)

val survives_az :
  Quorum_set.t -> member list -> up:Member_id.Set.t -> plus_one:bool -> bool
(** [survives_az q members ~up ~plus_one] — §2.1's AZ test of a roster:
    for every AZ some member of [members] lives in, the members of [up]
    outside that AZ still satisfy [q].  With [plus_one] ("AZ+1"), they
    must also satisfy [q] after losing any one more of them, and some must
    be left to lose: an AZ that holds every [up] member fails.  The health
    probe asks it of the live members' read quorum; the fleet model of
    every member's read and write quorums. *)

val pp : Format.formatter -> t -> unit
