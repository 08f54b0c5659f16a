(** Transaction workload generators.

    Drives a {!Aurora_core.Database} (and optionally replicas) with a
    configurable mix of transactions:

    - open-loop: arrivals are a Poisson process at a target rate,
      independent of completions — exposes queueing/jitter (E6, E7);
    - closed-loop: a fixed number of clients, each issuing its next
      transaction after the previous one acknowledges (plus think time) —
      exposes throughput under bounded concurrency.

    Every transaction draws [ops_per_txn] keys (Zipfian), performs
    [write_fraction] of them as puts and the rest as snapshot gets, then
    commits.  Commit acknowledgement latency lands in the generator's
    histogram; durability bookkeeping (what was acked, with which value)
    is retained so fault-injection tests can audit zero-loss after crashes. *)

open Wal

type profile = {
  ops_per_txn : int;
  write_fraction : float;
  key_count : int;
  zipf_theta : float;
  value_size : int;
  mtr_fraction : float;
      (** Fraction of write transactions that use one multi-block MTR
          (structural-change analogue) instead of independent puts. *)
}

val default_profile : profile

type t

type acked = {
  acked_txn : Txn_id.t;
  keys_written : (string * string) list;
  acked_at : Simcore.Time_ns.t;
}

val create :
  sim:Simcore.Sim.t ->
  rng:Simcore.Rng.t ->
  db:Aurora_core.Database.t ->
  profile:profile ->
  unit ->
  t

val run_open_loop :
  t -> rate_per_sec:float -> duration:Simcore.Time_ns.t -> unit
(** Schedule a Poisson arrival stream.  Call {!Simcore.Sim.run_until}
    afterwards to execute it. *)

val run_closed_loop :
  t ->
  clients:int ->
  think_time:Simcore.Distribution.t ->
  duration:Simcore.Time_ns.t ->
  unit

val commit_latency : t -> Simcore.Histogram.t
val issued : t -> int
val acked : t -> int
val failed : t -> int
val acked_writes : t -> acked list
(** Audit trail: every acknowledged transaction with the key/values it
    wrote, in ack order. *)

val unacked_writes : t -> (string * string) list
(** Writes whose commit was requested but never acknowledged (in-doubt at
    a crash): recovery may legitimately keep or discard them.  Newest issue
    first. *)

val writes_in_issue_order : t -> (string * string * bool) list
(** Every write in issue order — which equals LSN order, since puts
    allocate LSNs synchronously — tagged with whether its transaction's
    commit was acknowledged.  This is the durability oracle: the visible
    value of a key must be its last acknowledged write or a later in-doubt
    one (MVCC orders versions by LSN, not by commit-ack order). *)
