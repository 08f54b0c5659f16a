(** The writer's physical redo stream to its read replicas (§3.2–3.4).

    The stream is the only thing a replica learns from.  Each tick drains
    the records VDL covers, in LSN order, groups them into atomically
    applied MTR chunks, and ships them with VDL and the commit notices of
    the [Commit] records among them.  Read-only commits write no record and
    no version, so they never ship.

    Records are queued only while some replica is attached.  Each replica
    starts from [from], the LSN of the log's last record when its stream
    started: its first message goes out at the first tick where VDL is
    set and covers [from], so it never anchors below a record it was not
    sent.  That message goes out even if it ships nothing else, so a
    replica of an idle writer gets its anchor, and it carries, once, the
    hand-off: the writer's commits with SCN at or below [from], sorted by
    SCN.

    Every later message names the VDL of the one before it, so a replica
    that misses one notices, stays anchored where its stream is whole, and
    asks ({!resync}) for a fresh hand-off. *)

open Wal

type t

val create : unit -> t

val attach : t -> Simnet.Addr.t -> from:Lsn.t -> unit
(** Start a replica's stream after [from]; a no-op if it is attached. *)

val detach : t -> Simnet.Addr.t -> unit
(** Stop streaming to a replica; the last one to detach drops the
    backlog. *)

val replicas : t -> Simnet.Addr.t list
(** Newest first: the order messages are sent in. *)

val backlog : t -> int
(** Records queued, not yet shipped. *)

val submit : t -> Log_record.t -> unit
(** Queue a newly allocated record, if any replica is attached. *)

val note_floor : t -> Simnet.Addr.t -> Lsn.t -> unit
(** An attached replica's latest read floor. *)

val floor : t -> default:Lsn.t -> Lsn.t
(** The lowest read floor any attached replica has reported, or [default]
    if that is lower. *)

val drop_backlog : t -> unit
(** Forget every queued record (the writer crashed). *)

val restart : t -> from:Lsn.t -> unit
(** Drop the backlog and start every attached replica's stream again
    after [from], as {!attach} would (the writer recovered: its commits
    are the recovered ones). *)

val resync : t -> Simnet.Addr.t -> from:Lsn.t -> unit
(** The replica saw a gap in its stream (a message was lost): start its
    stream again after [from] with a fresh hand-off.  A no-op while its
    hand-off is still pending. *)

val tick :
  t ->
  vdl:Lsn.t ->
  volume_epoch:Quorum.Epoch.t ->
  committed:(Lsn.t -> (Txn_id.t * Lsn.t) list) ->
  send:(Simnet.Addr.t -> Storage.Protocol.t -> unit) ->
  unit
(** Ship what VDL covers to every replica whose stream has started.
    [committed from] is a hand-off: the commits with SCN at or below
    [from], sorted by SCN. *)
