(** Semantic invariant checkers running continuously against a live
    {!Harness.Cluster}.

    The checker installs two periodic activities on the cluster's simulated
    clock:

    - a {e watch} tick asserting structural invariants from observed state:
      VCL/VDL never regress while the writer stays open, a recovered writer
      reopens with VCL at or above every durable point previously observed
      (no acknowledged-commit loss), VDL <= VCL, every live segment's
      PGMRPL GC floor stays at or below the writer's VDL, per-PG membership
      epochs are monotone, and each {!Obs.Health} sample is internally
      consistent (ack-current <= reachable <= roster, margins >= -1,
      non-negative volume gaps);
    - a {e probe} session issuing its own tiny transactions on a private
      key: writer reads must return a sequence number at least the highest
      acknowledged probe write at issue time (read-your-writes across
      crashes), and each replica's reads must be monotone in that sequence
      (monotone replica reads, §3.2-3.4).

    Read {e errors} are never violations — unavailability is a liveness
    matter; the checkers only police safety.  Violations accumulate in
    occurrence order; per checker id, details are kept for the first few
    occurrences and counted beyond that, so a persistent breach cannot
    swamp the report. *)

type violation = {
  checker : string;  (** Stable id, e.g. ["vcl-monotone"]. *)
  at : Simcore.Time_ns.t;
  detail : string;
}

type t

val create :
  cluster:Harness.Cluster.t ->
  ?gen:Workload.Txn_gen.t ->
  unit ->
  t
(** Install the watch tick (every 5 ms) and probe session (every 25 ms) on
    the cluster's sim.  [gen], when given, is the workload generator whose
    durability oracle, {!Workload.Txn_gen.audit}, the quiesce audit
    replays. *)

val note : t -> checker:string -> detail:string -> unit
(** Record an externally detected violation (the runner uses this for step
    expectation failures). *)

val quiesce_audit : t -> unit
(** Schedule the end-of-run audit: {!Workload.Txn_gen.audit} re-reads, in
    key order, every key the workload ever acknowledged a write for (the
    visible value must be the last acked write or a later in-doubt one),
    noting each wrong read as a [durability] violation; plus a final probe
    read.  Run the sim for a settle period afterwards so the reads
    complete. *)

val stop : t -> unit
(** Tear down the periodic activities (they unschedule on the next tick). *)

val violations : t -> violation list
(** Recorded violations, in occurrence order. *)

val total : t -> int
(** Total violations including occurrences suppressed past the per-checker
    detail cap. *)
