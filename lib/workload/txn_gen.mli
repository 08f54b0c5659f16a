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
    histogram.

    {b Audit trail.}  The generator keeps one record per transaction that
    wrote, in issue order: its key/value writes, whether its commit was
    requested, and when (if ever) the commit was acknowledged.  A
    transaction's puts all run synchronously at issue, so its writes sit
    next to each other in LSN order and the trail's issue order is LSN
    order.  Each acknowledgement marks its own record; the trail is never
    keyed by transaction id, which a recovered writer may reuse.  The
    views below and the one durability oracle, {!audit}, read this
    trail. *)

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

type acked = { keys_written : (string * string) list; acked_at : Simcore.Time_ns.t }

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
(** Every acknowledged transaction that wrote, with the key/values it
    wrote in put order, in {e issue} order (not ack order: sort by
    [acked_at] for a timeline). *)

val unacked_writes : t -> (string * string) list
(** Writes whose commit was requested but never acknowledged (in-doubt at
    a crash): recovery may legitimately keep or discard them.  Newest issue
    first. *)

val writes_in_issue_order : t -> (string * string * bool) list
(** Every write in issue order — which equals LSN order, since puts
    allocate LSNs synchronously — tagged with whether its transaction's
    commit was acknowledged. *)

val audit :
  t ->
  get:(key:string -> ((string option, string) result -> unit) -> unit) ->
  (key:string -> (string option, string) result -> unit) ->
  int
(** The durability oracle: the visible value of a key must be its last
    acknowledged write in issue (= LSN) order, or any in-doubt write issued
    after it (MVCC orders versions by LSN, not by ack order).  Reads every
    key with an acknowledged write through [get], in key order, and calls
    the last argument with the key and the result of each read that
    returns anything else (an older value, nothing, or an error).  Returns
    the number of keys read; the caller runs the simulation until the
    reads complete. *)
