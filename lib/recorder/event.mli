(** Typed flight-recorder events.

    Every payload field is a plain [int] — LSNs, PGs, epochs, txn ids and
    node ids are carried as their integer images, with [-1] meaning "not
    applicable".  This keeps the recorder below the protocol libraries in
    the dependency order: hook points in [lib/simnet], [lib/storage],
    [lib/core] and [lib/harness] translate their abstract types when they
    record, and nothing is needed to decode an event afterwards. *)

(** What kind of actor owns a ring. *)
type role = Writer | Storage | Replica | Unknown

val role_name : role -> string
val role_of_name : string -> role option
val all_roles : role list

(** Mirror of the [Storage.Protocol] wire-message constructors, reduced to
    a bare tag. *)
type msg_kind =
  | Write_batch
  | Write_ack
  | Write_reject
  | Read_block
  | Read_reply
  | Gossip_pull
  | Gossip_reply
  | Scl_probe
  | Scl_reply
  | Truncate
  | Truncate_ack
  | Epoch_update
  | Epoch_ack
  | Membership_update
  | Hydrate_pull
  | Hydrate_reply
  | Pgmrpl_update
  | Redo_stream
  | Replica_feedback

val msg_kind_name : msg_kind -> string
val msg_kind_of_name : string -> msg_kind option
val all_msg_kinds : msg_kind list

(** Why the network dropped a message (mirror of [Simnet.Net.drop_cause]). *)
type drop_cause = Down | Blocked | Partitioned | Random

val drop_cause_name : drop_cause -> string
val drop_cause_of_name : string -> drop_cause option
val all_drop_causes : drop_cause list

(** The two epoch increments of a segment replacement (Figure 5 of the
    paper): [Change_begun] moves to the dual-quorum membership, then either
    [Change_committed] drops the suspect or [Change_reverted] drops the
    replacement. *)
type membership_phase = Change_begun | Change_committed | Change_reverted

val membership_phase_name : membership_phase -> string
val membership_phase_of_name : string -> membership_phase option
val all_membership_phases : membership_phase list

(** One recorded protocol event.  Network events carry the remote peer's
    node id and the message's governing PG and LSN range ([lsn_lo = lsn_hi]
    for single-watermark messages, [-1] when the message carries no LSN). *)
type t =
  | Send of { kind : msg_kind; peer : int; pg : int; lsn_lo : int; lsn_hi : int }
  | Receive of {
      kind : msg_kind;
      peer : int;
      pg : int;
      lsn_lo : int;
      lsn_hi : int;
    }
  | Drop of {
      kind : msg_kind;
      peer : int;
      pg : int;
      lsn_lo : int;
      lsn_hi : int;
      cause : drop_cause;
    }
  | Scl_advance of { pg : int; scl : int; stored : int }
  | Gossip_fill of { pg : int; scl : int; filled : int }
  | Hydrate_import of { pg : int; scl : int }
  | Lsn_alloc of { pg : int; lsn : int }
      (** The writer gave a record of [pg] its LSN. *)
  | Boxcar_flush of { pg : int; lsn_lo : int; lsn_hi : int }
      (** The writer flushed [pg]'s boxcar: its records in
          [[lsn_lo, lsn_hi]] went to the group's roster. *)
  | Pgcl_advance of { pg : int; pgcl : int }
      (** The writer's durable point of [pg] (write quorum met) moved. *)
  | Vcl_advance of { vcl : int }
  | Vdl_advance of { vdl : int }
  | Pgmrpl_advance of { pg : int; floor : int }
  | Epoch_change of { pg : int; volume_epoch : int; membership_epoch : int }
  | Commit_submit of { txn : int; scn : int }
  | Commit_ack of { txn : int; scn : int }
  | Started
  | Crashed
  | Destroyed
  | Fenced of { epoch : int }
  | Recovery_start of { epoch : int }
  | Recovery_finish of { vcl : int; vdl : int }
  | Membership_change of { pg : int; epoch : int; phase : membership_phase }
      (** [epoch] is the PG's membership epoch after the increment. *)
  | Health_edge of { pg : int; edge : Obs.Health.edge }
      (** A health transition found by the cluster's sampler, noted on the
          writer's ring. *)

val equal : t -> t -> bool

val to_json : t -> Obs.Json.t
(** Deterministic object encoding: a ["ev"] tag plus fixed-order int
    fields.  [of_json] inverts it exactly. *)

val of_json : Obs.Json.t -> (t, string) result
(** Total inverse of [to_json]; extra fields (such as the ["at"] timestamp
    an artifact adds) are ignored. *)

val describe : t -> string
(** One-line human rendering, e.g. ["send write_batch ->n3 pg0 lsn [12..19]"]. *)
