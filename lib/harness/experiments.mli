(** Experiment drivers E1–E10: one per figure / quantitative claim of the
    paper (see DESIGN.md §4 for the index and EXPERIMENTS.md for recorded
    outcomes).  Each driver returns a typed result — asserted on by the
    integration tests — plus a printable table in the paper's shape.  A
    driver takes only a seed; its sizes are fixed, so a table is a function
    of the seed.  The durability verdicts of E4, E5 and E9 (lost
    acknowledged commits) come from the workload's one oracle,
    {!Workload.Txn_gen.audit}, the same one the vopr quiesce audit
    replays. *)

open Quorum

(** E1 — Figure 1: quorum availability under independent segment failures
    and correlated AZ outages, for the 2/3 strawman, Aurora's 4/6, and the
    tiered §4.2 design. *)
module E1 : sig
  type scheme_result = {
    name : string;
    mc : Availability.Fleet_model.result;
    an : Availability.Fleet_model.analytic;
    tol : Availability.Fleet_model.az_tolerance;
    az_write_loss : float;
        (** P(write-quorum loss | AZ outage), analytic (Figure 1's point). *)
    az_read_loss : float;
  }

  type t = scheme_result list

  val run : ?seed:int -> unit -> t
  (** Runs on degraded-fleet rates (30-day segment MTTF, 30-minute repair,
      90-day AZ MTTF, 3000 groups) so rare events register. *)

  val report : t -> Report.t
end

(** E2 — Figure 2: the storage-node pipeline under a lossy network; gossip
    repairs every hole and all background stages make progress. *)
module E2 : sig
  type t = {
    records_written : int;
    acks_processed : int;
    drop_probability : float;
    gossip_filled : int;
    final_scl_lag : int;  (** max SCL gap across segments after settle. *)
    coalesced_versions : int;
    backups : int;
    hot_log_gced : int;
    scrub_found : int;  (** Corrupt blocks reported, summed over scrub rounds. *)
    corruptions_injected : int;
    scrub_repaired : int;
        (** Injected blocks whose checksum verifies at the end of the run. *)
  }

  val run : ?seed:int -> unit -> t
  (** 400 transactions over a network that drops 5% of messages. *)

  val report : t -> Report.t
end

(** E3 — Figure 3: SCL -> PGCL -> VCL bookkeeping; reproduces the figure's
    exact scenario (records 101–108 alternating between two groups). *)
module E3 : sig
  type t = {
    pg1_pgcl : int;
    pg2_pgcl : int;
    vcl : int;
    expected : int * int * int;  (** (103, 104, 104) from the figure. *)
  }

  val run : unit -> t
  val report : t -> Report.t
end

(** E4 — Figure 4 & §2.4: crash-recovery time vs redo backlog — Aurora
    (read-quorum SCL poll + truncation, no replay) against the ARIES
    replay model. *)
module E4 : sig
  type point = {
    txns_since_checkpoint : int;
    log_bytes : int;
    aurora_recovery : Simcore.Time_ns.t;
    aurora_vcl : int;
    acked_commits : int;
    lost_acked_commits : int;  (** Must be 0. *)
    aries_recovery : Simcore.Time_ns.t;
  }

  type t = point list

  val run : ?seed:int -> unit -> t
  (** One point per backlog of 200, 1000, 5000 and 20000 transactions. *)

  val report : t -> Report.t
end

(** E5 — Figure 5: segment replacement via epochs + quorum sets under
    write load; I/O never blocks, the change is reversible, epochs step
    1 -> 2 -> 3. *)
module E5 : sig
  type t = {
    epochs_seen : int list;  (** Membership epochs in order. *)
    commits_during_change : int;
    max_commit_gap : Simcore.Time_ns.t;
        (** Longest ack silence while the change was in flight. *)
    baseline_stall : Simcore.Time_ns.t;
        (** A stop-the-world change would stall commits for the whole
            hydration. *)
    hydration_time : Simcore.Time_ns.t;
    replacement_caught_up : bool;
    revert_worked : bool;  (** Second run exercising the revert path. *)
    lost_acked_commits : int;
    availability_window : Simcore.Time_ns.t;  (** Timeline bucket width. *)
    availability : (Simcore.Time_ns.t * bool * bool) list;
        (** Per window: (offset from change start, Aurora write-available,
            blocking-baseline write-available).  The baseline is the same
            ack stream zeroed for the hydration interval — what a
            stop-the-world membership change would look like. *)
    aurora_window_fraction : float;
    baseline_window_fraction : float;
    online_write_available : float;
        (** {!Obs.Health.write_available_fraction} over the whole run. *)
  }

  val run : ?seed:int -> unit -> t
  val report : t -> Report.t
end

(** E6 — §1/§2.3: commit cost — Aurora quorum-ack vs 2PC vs Paxos commit
    at matched network/disk parameters. *)
module E6 : sig
  type proto_result = {
    proto : string;
    commits : int;
    p50 : float;
    p99 : float;
    p999 : float;
    messages_per_commit : float;
  }

  type t = {
    protos : proto_result list;
    stages : (string * Simcore.Histogram.t) list;
        (** Aurora's per-stage commit-path latencies ([commit_stage_ns]
            histograms harvested from the cluster's observability
            registry), keyed by ["a→b"] stage-pair label. *)
  }

  val run : ?seed:int -> unit -> t
  (** 2000 commits per protocol. *)

  val report : t -> Report.t
  (** Protocol comparison plus a per-stage latency breakdown subtable. *)
end

(** E7 — §2.2: boxcar policies — submit-on-first-record vs timeout boxcar
    vs no batching, across offered load. *)
module E7 : sig
  type point = {
    policy : string;
    rate_per_sec : float;
    p50 : float;
    p99 : float;
    jitter : float;  (** p99 - p50. *)
    mean_batch : float;
  }

  type t = point list

  val run : ?seed:int -> unit -> t
  (** Offered loads of 100, 2000 and 20000 txn/s. *)

  val report : t -> Report.t
end

(** E8 — §3.1: read strategies — tracked direct read (with and without
    hedging) vs quorum read, with a healthy fleet and with one slow
    segment. *)
module E8 : sig
  type point = {
    strategy : string;
    slow_segment : bool;
    reads : int;
    ios_per_read : float;
    p50 : float;
    p99 : float;
  }

  type t = point list

  val run : ?seed:int -> unit -> t
  (** 2000 reads per strategy and fleet. *)

  val report : t -> Report.t
end

(** E9 — §3.2–3.4: replicas — stream lag, shared-storage reads, and
    promotion with zero acknowledged-commit loss. *)
module E9 : sig
  type t = {
    lag_p50 : float;
    lag_p99 : float;
    records_applied : int;
    records_skipped : int;
    replica_reads_ok : int;
    replica_reads_wrong : int;
    promoted : bool;
    acked_commits : int;
    lost_after_promotion : int;  (** Must be 0. *)
    lag_timeline : (Simcore.Time_ns.t * float) list;
        (** Per sampler window: (sim time, p99 stream lag ns), from the
            cluster's {!Obs.Series}; empty windows omitted. *)
    lag_timeline_max : float;
  }

  val run : ?seed:int -> unit -> t
  val report : t -> Report.t
end

(** E10 — §4.2: tiered (3 full + 3 tail) vs 6 full segments — storage
    bytes, write/read availability, and repair traffic. *)
module E10 : sig
  type design_result = {
    design : string;
    storage_bytes : int;
    bytes_ratio_vs_v6 : float;
    write_unavail : float;
    read_unavail : float;
    az1_write_survival : float;
  }

  type t = design_result list

  val run : ?seed:int -> unit -> t
  (** 2000 transactions per design for the storage-bytes comparison. *)

  val report : t -> Report.t
end

(** Ablation sweeps for the design choices DESIGN.md calls out. *)
module Ablations : sig
  type hedge_point = {
    hedge : Simcore.Time_ns.t option;
    ios_per_read : float;
    p99 : float;
  }

  val hedge_sweep : ?seed:int -> unit -> hedge_point list
  (** 1000 reads per hedge threshold. *)

  val hedge_report : hedge_point list -> Report.t

  type gossip_point = {
    interval : Simcore.Time_ns.t;
    repair_time : Simcore.Time_ns.t option;
        (** Gossip-only heal time; [None] = gossip lost the race against
            hot-log GC. *)
    hydration_healed : bool;
        (** The bulk-repair fallback closed the hole when gossip could not. *)
  }

  val gossip_sweep : ?seed:int -> unit -> gossip_point list
  val gossip_report : gossip_point list -> Report.t
end

val run_all : ?seed:int -> unit -> string
(** Run every experiment and concatenate the reports (the bench harness's
    main output). *)

val scheme_rule : Cluster.layout -> Membership.member list * Quorum_set.Rule.t
(** The member roster and quorum rule a layout denotes (shared by E1/E10). *)
