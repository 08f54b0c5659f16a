(** The writer's commit-path ledger: one entry per log record, in LSN
    order.

    The writer reports each protocol moment once, through its
    [Recorder.Sink] — LSN allocation, boxcar flush, storage ack, PGCL, VCL
    and VDL advance, commit ack — and the ledger marks every record that
    moment covers with the matching {!stage}.  The sink notes the same
    moments as events on the writer's ring when the cluster records, and
    [Recorder.Sink.replay] feeds a ring's events back through these same
    calls, so [explain]'s offline stage breakdown is this code's.

    Each first mark feeds a ["commit_stage_ns"] histogram in the shared
    {!Registry}, labelled ["stage"] = ["a→b"] after the nearest earlier
    observed stage.  One pair is always recorded as well, because it is
    the paper's commit-queue drain (§2.3): [vcl_advanced→commit_acked],
    even when the VDL advance came in between.  The VCL advance also feeds
    the writer's record-durable latency histogram.

    Marks are idempotent per (LSN, stage): only the first time is kept, so
    a record flushed to six segments gets one [Boxcar_flushed] and its
    first covering ack one [Node_acked].  The ledger keeps the newest
    [capacity] records (flat storage grown on demand up to that window);
    a record drops out [capacity] allocations after its own, and marks on
    it are then ignored — including its VCL advance, so a record evicted
    before VCL covers it adds no record-durable sample.  LSNs must be
    allocated in increasing order; gaps are allowed. *)

(** The stages one log record crosses through the write pipeline
    (§2.2-2.3 of the paper), in order. *)
type stage =
  | Lsn_allocated  (** Redo record created, LSN assigned. *)
  | Boxcar_flushed  (** Its boxcar batch flushed to the group's roster. *)
  | Node_acked  (** First storage-node ack covering the record. *)
  | Pgcl_advanced  (** Write quorum met: group durable point covers it. *)
  | Vcl_advanced  (** Volume-complete LSN covers it. *)
  | Vdl_advanced  (** Volume-durable LSN covers it. *)
  | Commit_acked  (** Commit queue acknowledged the client (SCN <= VCL). *)

val n_stages : int
val stage_index : stage -> int
val stage_of_index : int -> stage
val stage_name : stage -> string

type t

val create : ?capacity:int -> registry:Registry.t -> unit -> t
(** [capacity] bounds the live records (default 16384). *)

val allocated : t -> at:Simcore.Time_ns.t -> lsn:int -> pg:int -> unit
(** A record of protection group [pg] (non-negative) got [lsn], above
    every LSN allocated since the last {!clear}. *)

val flushed :
  t -> at:Simcore.Time_ns.t -> pg:int -> lsn_lo:int -> lsn_hi:int -> unit
(** A boxcar of group [pg] flushed: every record of [pg] with an LSN in
    [[lsn_lo, lsn_hi]] gets [Boxcar_flushed].  A group's records enter its
    boxcar in LSN order, so those are exactly the batch's records. *)

val acked : t -> at:Simcore.Time_ns.t -> pg:int -> scl:int -> unit
(** A storage ack from group [pg] reporting [scl]: every record of [pg]
    at or below it that had no ack yet gets [Node_acked]. *)

val pgcl_advanced : t -> at:Simcore.Time_ns.t -> pg:int -> pgcl:int -> unit
(** Group [pg]'s durable point (PGCL) reached [pgcl]: every record of [pg]
    at or below it that PGCL did not cover yet gets [Pgcl_advanced]. *)

val vcl_advanced :
  t -> at:Simcore.Time_ns.t -> vcl:int -> durable:Simcore.Histogram.t -> unit
(** VCL reached [vcl]: records it newly covers get [Vcl_advanced], and
    their allocation-to-now span goes to [durable]. *)

val vdl_advanced : t -> at:Simcore.Time_ns.t -> vdl:int -> unit
(** VDL reached [vdl]: records it newly covers get [Vdl_advanced]. *)

val commit_acked : t -> at:Simcore.Time_ns.t -> lsn:int -> unit
(** The commit record at [lsn] (the SCN) was acknowledged to the client. *)

val clear : t -> unit
(** Drop every record (instance crash); histograms persist. *)

val timelines : t -> (int * int * Simcore.Time_ns.t array) list
(** Live per-LSN timelines as [(lsn, pg, stage_times)], sorted by LSN;
    [stage_times] is indexed by {!stage_index} with [-1] for stages not
    (yet) observed.  Basis for the Chrome-trace exporter's spans and for
    [explain]'s stage breakdown. *)

val stage_label : stage -> stage -> string
(** ["a→b"], the ["stage"] label value used in the registry. *)
