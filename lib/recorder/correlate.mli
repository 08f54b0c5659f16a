(** Cross-node correlation: merge per-node rings into one causal
    timeline for a given LSN, txn, or protection group.

    Ordering is (sim time, node id, ring position) — fully deterministic,
    so rendering the same snapshot twice is byte-identical. *)

type entry = {
  at : int;  (** sim time, nanoseconds *)
  node : int;
  role : Event.role;
  event : Event.t;
}

val entries : Rings.snapshot -> entry list
(** Every event in the snapshot, merged and causally ordered. *)

val timeline_for_lsn : Rings.snapshot -> lsn:int -> entry list
(** The LSN's journey across the quorum: every send/receive/drop whose
    payload range contains it, plus — once per node — the first ack and
    first SCL/VCL/VDL/PGMRPL advance that covered it, plus its commit
    submit/ack events. *)

val commit_scn_of_txn : Rings.snapshot -> txn:int -> int option
(** The txn's commit SCN, from its first commit submit or ack in the
    rings. *)

val timeline_for_txn : Rings.snapshot -> txn:int -> entry list
(** Resolves the txn's commit SCN from the rings and delegates to
    {!timeline_for_lsn}; if the txn never reached a commit record, just
    its commit events (typically none). *)

val timeline_for_pg : Rings.snapshot -> pg:int -> entry list
(** Every event that names protection group [pg] (see {!event_pg}). *)

val event_pg : Event.t -> int
(** The protection group an event names, [-1] when it names none. *)

val render_entry : entry -> string
(** One line: [t=...ms  n<id> <role> <event>]. *)

val render_text : entry list -> string
(** {!render_entry} per entry, newline-joined, byte-stable. *)

val to_json : entry list -> Obs.Json.t
(** Deterministic JSON: a list of objects with [at]/[node]/[role] plus
    the event's own fields. *)
