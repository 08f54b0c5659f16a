(** Storage consistency points (§2.3, Figure 3).

    The database instance advances all consistency points by pure local
    bookkeeping over write acknowledgements — no consensus round ever runs:

    - {b SCL} (per segment): reported by each storage node in its acks; the
      gapless prefix of the segment chain it holds.
    - {b PGCL} (per protection group): the point at which the group has made
      all its writes durable — the highest LSN [L] routed to the group such
      that the segments with [SCL >= L] satisfy the group's write quorum.
    - {b VCL} (volume): the highest LSN such that every record at or below
      it, across all groups, is durable — "the entire log chain must be
      complete to ensure recoverability".
    - {b VDL} (volume durable): the highest MTR-completion record at or
      below VCL; reads and replica application anchor here so structural
      changes stay atomic (§3.3).

    The tracker is told (a) each record's submission, in LSN order, with its
    owning group and MTR-end flag, and (b) each (segment, SCL) ack.  Commit
    acknowledgement hooks fire as VCL advances (§2.3's "dedicated commit
    thread"). *)

open Wal
open Quorum

type t

val create :
  ?on_pgcl:(Storage.Pg_id.t -> Lsn.t -> unit) ->
  ?on_volume:(vcl:Lsn.t -> vdl:Lsn.t option -> unit) ->
  unit ->
  t
(** The callbacks fire once per advance, with the new values: [on_pgcl]
    when a group's PGCL moves (write quorum met for every record up to
    it), then [on_volume] when VCL follows, with [vdl] the new VDL if it
    moved too ([None] if not; VDL never moves without VCL).  [on_volume]
    fires after both points are set, so {!vdl} inside it is already the
    new value.  Each defaults to doing nothing. *)

val register_pg : t -> Storage.Pg_id.t -> write_quorum:Quorum_set.t -> unit
(** Declare a protection group and its current write-quorum expression.
    Re-registering replaces the expression (membership epochs change it)
    and then re-runs the PGCL and VCL advance under the new expression: a
    looser quorum (a membership change committing or reverting) can cover
    records the old one did not, and no later ack is needed to notice.
    So the [on_pgcl] and [on_volume] callbacks may fire inside
    this call, and hence inside
    [Database.begin_segment_replacement], [commit_segment_replacement]
    and [revert_segment_replacement]. *)

val set_write_quorum : t -> Storage.Pg_id.t -> Quorum_set.t -> unit
(** [set_write_quorum t pg q] is [register_pg t pg ~write_quorum:q]. *)

val note_submitted :
  t -> pg:Storage.Pg_id.t -> lsn:Lsn.t -> mtr_end:bool -> unit
(** Record that the writer allocated/submitted this LSN to this group.
    Must be called in ascending LSN order across the whole volume.
    @raise Invalid_argument on out-of-order submission or unknown group. *)

val note_ack : t -> pg:Storage.Pg_id.t -> seg:Member_id.t -> scl:Lsn.t -> unit
(** Process a write acknowledgement.  Acknowledgements may be delivered out
    of order; since a segment's SCL is monotone, values lower than already
    observed are ignored as stale. *)

val pgcl : t -> Storage.Pg_id.t -> Lsn.t
val vcl : t -> Lsn.t
val vdl : t -> Lsn.t

val covers : t -> pg:Storage.Pg_id.t -> lsn:Lsn.t -> Member_id.t -> bool
(** [covers t ~pg ~lsn seg] — has [seg] acked an SCL at or above [lsn]?
    The segments it accepts are exactly the candidates that hold the
    latest durable version of a block written at [lsn], which is what lets
    Aurora read from one segment instead of a read quorum (§3.1).  A
    segment that never acked covers nothing, even at [Lsn.none].  It is
    the same test the PGCL advance hands {!Quorum_set.satisfied_by}: an
    array read, no set built.  Applied to [t], [pg] and [lsn] alone, it
    finds the group once and returns the per-segment test.
    @raise Invalid_argument on an unknown group. *)

val restore :
  t ->
  vcl:Lsn.t ->
  vdl:Lsn.t ->
  pg_points:(Storage.Pg_id.t * Lsn.t) list ->
  unit
(** Re-establish consistency points computed by crash recovery (§2.4):
    installs VCL/VDL/PGCLs directly and clears in-flight bookkeeping.
    Write quorum registrations and SCL observations survive. *)
