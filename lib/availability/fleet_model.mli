(** Fleet availability model for Figure 1: why six copies across three AZs.

    Monte Carlo simulation of one protection group's members under two
    failure processes — independent segment failures (exponential MTTF,
    repair = detection window + rebuild) and correlated AZ outages that
    take down every member in the zone.  Evaluated against an arbitrary
    {!Quorum.Quorum_set.Rule}, so the same engine scores the 2/3 strawman,
    Aurora's 4/6, the degraded 3/4, and the §4.2 tiered design.

    Two readouts reproduce the paper's argument:

    - steady-state unavailability fractions (write / read quorum not
      satisfiable), and
    - the AZ+1 question: at each AZ-outage onset, is the quorum still
      intact (write side) and repairable (read side) given the background
      failures at that instant?

    An analytic cross-check ({!analytic}) computes the binomial
    approximation P(>= k members down) with member down-probability
    rho = MTTR / (MTTF + MTTR), which the property tests compare against
    the Monte Carlo numbers. *)

open Quorum

type params = {
  segment_mttf : Simcore.Time_ns.t;
  repair_detection : Simcore.Time_ns.t;  (** Paper's 10 s window. *)
  repair_duration : Simcore.Time_ns.t;  (** Segment rebuild time. *)
  az_mttf : Simcore.Time_ns.t;  (** Per-AZ outage rate. *)
  az_outage : Simcore.Time_ns.t;  (** Outage duration. *)
  horizon : Simcore.Time_ns.t;  (** Simulated span per group. *)
  groups : int;  (** Independent protection groups simulated. *)
}

val default_params : params
(** 1-year horizon, 10k groups, 6-month segment MTTF, 10 s detection +
    5 min rebuild, 2-year AZ MTTF with 1 h outages — aggressive rates that
    surface rare events at simulation scale. *)

type result = {
  write_unavail : float;  (** Fraction of time write quorum unsatisfiable. *)
  read_unavail : float;  (** Fraction of time read quorum unsatisfiable. *)
  write_loss_episodes : int;
  read_loss_episodes : int;
  az_onsets : int;  (** AZ outages injected. *)
  az_write_survived : int;  (** Write quorum intact at outage onset. *)
  az_read_survived : int;  (** Read quorum (repairability) intact. *)
  member_failures : int;
}

val run :
  rng:Simcore.Rng.t ->
  params:params ->
  members:Membership.member list ->
  rule:Quorum_set.Rule.t ->
  result

type analytic = {
  rho : float;  (** Steady-state member down-probability. *)
  p_write_loss : float;  (** P(write quorum unsatisfiable), independent faults only. *)
  p_read_loss : float;
}

val analytic :
  params:params -> members:Membership.member list -> rule:Quorum_set.Rule.t -> analytic
(** Exact enumeration over member subsets weighted by iid down-probability
    rho — the independent-failure-only reference the Monte Carlo must
    approach when AZ outages are disabled. *)

(** Deterministic Figure-1 check: worst case over AZs (and over the extra
    failed member for the +1 variants). *)
type az_tolerance = {
  write_survives_az : bool;  (** Write quorum outlives any single AZ. *)
  read_survives_az : bool;
  write_survives_az_plus_one : bool;
  read_survives_az_plus_one : bool;
      (** The paper's "AZ+1" durability bar: repairability must survive an
          AZ outage plus one concurrent independent failure. *)
}

val az_tolerance :
  members:Membership.member list -> rule:Quorum_set.Rule.t -> az_tolerance
(** Each field is {!Membership.survives_az} with every member up. *)

val analytic_given_az :
  params:params ->
  members:Membership.member list ->
  rule:Quorum_set.Rule.t ->
  float * float
(** (P(write-quorum loss), P(read-quorum loss)) at the onset of an AZ
    outage (worst AZ), with each surviving member independently down with
    probability rho — the quantitative form of Figure 1. *)
