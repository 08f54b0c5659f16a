(** Cluster assembly: one writer instance, protection groups of storage
    nodes spread across three AZs, optional read replicas, all on one
    simulated network with AZ-aware latency.

    This is the integration layer every experiment and end-to-end test
    builds on: it provisions storage nodes, seeds the deterministic RNG
    tree, and exposes fault-injection and membership-change orchestration
    (create replacement node, start hydration, commit or revert the change
    — the full Figure 5 flow).

    Who is in a group is the writer's {!Aurora_core.Volume}'s record alone:
    the cluster keeps only its storage nodes, by address, and reads each
    group's members and their addresses from the volume.  Every membership
    step goes through {!Aurora_core.Database}, which moves the volume, the
    consistency tracker and the members together; the cluster adds only
    what the volume has no use for (provisioning and destroying nodes,
    hydration, the next member id).  What a roster survives is
    {!Quorum.Quorum_set.margin} and {!Quorum.Membership.survives_az}. *)

open Quorum

type config = {
  seed : int;
  n_pgs : int;
  layout : Layout.t;  (** Every group's roster and scheme. *)
  db_config : Aurora_core.Database.config;
  storage_config : Storage.Storage_node.config;
  intra_az_latency : Simcore.Distribution.t;
  inter_az_latency : Simcore.Distribution.t;
  obs_sample_period : Simcore.Time_ns.t;
      (** Period of the observability sampler the cluster installs on the
          sim clock: each tick computes a cluster-health sample (feeding
          {!Obs.Health}, including quorum-loss edge events) and records one
          point per tracked {!Obs.Series} channel. *)
  recorder_depth : int option;
      (** [Some depth] makes the cluster record: it owns one flight
          recorder ({!recorder}) whose per-node rings hold the newest
          [depth] events each, within
          [[Recorder.Rings.min_depth, Recorder.Rings.max_depth]]. *)
}

val default_config : config
(** seed 42, 2 PGs, V6 layout, lognormal link latencies (~250us intra-AZ,
    ~1ms inter-AZ medians), 50 ms sampling, no recording. *)

type t

val create : config -> t
(** Build and start everything; the writer is open for transactions. *)

val sim : t -> Simcore.Sim.t
val net : t -> Storage.Protocol.t Simnet.Net.t
val db : t -> Aurora_core.Database.t
val s3 : t -> Storage.S3.t
val config : t -> config
val rng : t -> Simcore.Rng.t

val obs : t -> Obs.Ctx.t
(** The cluster-wide observability context: one registry shared by the
    network, the writer, every storage node, and every replica.  The
    cluster also drives the context's series sampler and health monitor
    (period [obs_sample_period]), notes each health edge the monitor fires
    as a [Health_edge] event on the writer's flight-recorder ring when the
    cluster records, and registers volume-level health gauges:
    [health_write_available], [health_min_write_margin],
    [health_az_plus_one], [health_vdl_vcl_gap], [health_commit_queue_depth],
    [health_max_replica_lag]. *)

val recorder : t -> Recorder.Rings.t option
(** The cluster's flight recorder, when [recorder_depth] asked for one.
    The writer, every storage node (replacements included), every replica
    and a writer promoted from a replica record into it; a bare cluster
    installs no recorder hook at all. *)

val health_sample : t -> at:Simcore.Time_ns.t -> Obs.Health.sample
(** Compute one cluster-health sample now (quorum margins by exhaustive
    subset enumeration over each group's current rule
    ({!Quorum.Quorum_set.margin}), AZ+1 tolerance of the read quorum
    ({!Quorum.Membership.survives_az}),
    ack-current segment counts, volume-level gaps).  The installed sampler
    calls this every [obs_sample_period]; exposed for tests and ad-hoc
    probes.

    A group's write margin, read margin and AZ+1 verdict depend only on its
    membership (rule and roster AZs) and its live member set, and are
    memoized on exactly those: they are recomputed only when a membership
    transition has replaced the group's membership value or a member's
    storage node has died or come back since the group's previous sample.
    Otherwise a sample costs one pass over each group's memoised
    {!Aurora_core.Volume.roster} plus the ack-current and volume reads. *)

val storage_nodes : t -> Storage.Storage_node.t list
(** The nodes at every group's {!Aurora_core.Volume.roster} addresses
    (in-flight replacements included), each group's in member-id order. *)

val group : t -> Storage.Pg_id.t -> Aurora_core.Volume.pg option
(** The volume's record of a group, [None] for a group the volume does not
    have (yet: {!grow_volume} adds groups). *)

val node_of_member :
  t -> Storage.Pg_id.t -> Member_id.t -> Storage.Storage_node.t option

val members_of_pg : t -> Storage.Pg_id.t -> Membership.member list
(** {!Quorum.Membership.members} of the group's current membership. *)

val add_replica : t -> Aurora_core.Replica.t
(** Create, start and attach a read replica (placed in a non-writer AZ). *)

val replicas : t -> Aurora_core.Replica.t list

(* ---- fault injection ---- *)

val crash_storage_node : t -> Storage.Pg_id.t -> Member_id.t -> unit
(** Process crash with disks intact. *)

val restart_storage_node : t -> Storage.Pg_id.t -> Member_id.t -> unit

val destroy_storage_node : t -> Storage.Pg_id.t -> Member_id.t -> unit
(** Permanent loss of the node and its segment data. *)

val fail_az : t -> Az.t -> unit
(** Take down every storage node in an AZ (correlated failure, Figure 1). *)

val restore_az : t -> Az.t -> unit

val slow_storage_node : t -> Storage.Pg_id.t -> Member_id.t -> float -> unit
(** Multiply the node's network latency (busy / degraded node, §3.1). *)

val partition : t -> Simnet.Addr.t list -> Simnet.Addr.t list -> unit
(** Sever every link between the two address sets (both directions).  All
    processes stay alive — the one nemesis node up/down faults cannot
    model.  Drops on severed links count in
    {!Simnet.Net.stats.dropped_partition}. *)

val heal : t -> Simnet.Addr.t list -> Simnet.Addr.t list -> unit

val partition_az : t -> Az.t -> unit
(** Isolate every process in an AZ (storage nodes, plus the writer or any
    replica placed there) from the rest of the cluster. *)

val heal_az : t -> Az.t -> unit

(* ---- membership-change orchestration (Figure 5) ---- *)

val start_replacement :
  t -> Storage.Pg_id.t -> suspect:Member_id.t -> (Member_id.t, string) result
(** Provision a fresh storage node in the suspect's AZ with an empty
    segment of the suspect's kind, run the first epoch increment (dual
    quorums), push the roster, and kick off hydration from a healthy peer.
    Returns the replacement's member id. *)

val finish_replacement :
  t -> Storage.Pg_id.t -> suspect:Member_id.t -> (unit, string) result
(** Second epoch increment onto the new member set. *)

val revert_replacement :
  t -> Storage.Pg_id.t -> suspect:Member_id.t -> (unit, string) result
(** Second epoch increment back onto the original member set (the suspect
    returned); the replacement node is destroyed. *)

val replacement_caught_up : t -> Storage.Pg_id.t -> replacement:Member_id.t -> bool
(** Has the hydrating segment's SCL reached the suspect-group's durable
    point? (The harness's stand-in for the repair monitor.) *)

val grow_volume : t -> Storage.Pg_id.t
(** Append a protection group (§4.1 volume-geometry change): provision
    fresh storage nodes in the configured layout with their segments, then
    {!Aurora_core.Database.grow_volume}.  New blocks immediately stripe
    onto it. *)

val change_scheme_3_of_4 :
  t -> Storage.Pg_id.t -> drop_az:Quorum.Az.t -> (unit, string) result
(** §4.1's extended-AZ-loss response: re-form a group on its four members
    outside [drop_az] under a 3/4 write / 2/4 read scheme (one membership
    epoch increment, {!Aurora_core.Database.change_scheme}), so writes
    regain fault tolerance while the AZ is gone.  Only legal from a steady
    group. *)

(* ---- convenience ---- *)

val run_for : t -> Simcore.Time_ns.t -> unit
