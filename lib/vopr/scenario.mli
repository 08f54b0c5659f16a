(** Declarative fault scenarios over the {!Harness.Cluster} fault API.

    A scenario is a small table: a cluster/workload header plus an ordered
    list of steps, each [(trigger, action, expectations)].  Triggers fire
    either at a simulated instant ([at=500ms]) or when the volume's VCL
    first reaches an LSN ([at_lsn=200]).  Actions are exactly the cluster's
    fault and membership-change primitives (crash/restart/destroy node,
    fail/restore AZ, slow node, partition, the Figure 5 replacement dance,
    volume growth, quorum-scheme change, writer crash/recovery).
    Expectations are evaluated immediately after the action fires; a step
    with action [noop] is a pure assertion point.

    Scenarios exist in two equivalent forms: OCaml values built with the
    combinators below (the curated tables in {!Curated}), and a terse
    line-oriented text format parsed with {!of_string} — the form the swarm
    writes for shrunk repros, so a failing run is replayable from
    [seed + scenario file] alone.  [of_string] and [to_string] round-trip:
    parsing a printed scenario yields the same value. *)

type trigger =
  | At of Simcore.Time_ns.t  (** Fire at this simulated instant. *)
  | At_lsn of int  (** Fire when the writer's VCL first covers this LSN. *)

type action =
  | Noop
  | Crash_node of int * int  (** pg, member: process crash, disks intact. *)
  | Restart_node of int * int
  | Destroy_node of int * int  (** Permanent loss of node and segment. *)
  | Slow_node of int * int * float  (** Gray node: latency multiplier. *)
  | Fail_az of int  (** 1-based AZ index, as in the [az1..az3] labels. *)
  | Restore_az of int
  | Partition_az of int  (** Isolate the AZ's processes from the rest. *)
  | Heal_az of int
  | Start_replacement of int * int  (** pg, suspect member (Figure 5). *)
  | Finish_replacement of int * int  (** Second epoch increment, now. *)
  | Finish_when_caught_up of int * int
      (** Poll hydration and run the second epoch increment once the
          replacement's SCL reaches the group durable point. *)
  | Revert_replacement of int * int
  | Grow_volume  (** Append a protection group (§4.1). *)
  | Change_scheme_3_of_4 of int * int  (** pg, 1-based AZ to drop (§4.1). *)
  | Crash_writer
  | Recover_writer

type expectation =
  | Write_available of bool
      (** {!Obs.Health.sample_write_available} on a fresh health sample. *)
  | Az_plus_one of bool  (** Every PG tolerates AZ+1 (§2.1). *)
  | Writer_open of bool
  | Commits_progressing
      (** Committed-transaction count advanced since the previous step
          fired (or since the run started, for the first step). *)
  | Epoch_at_least of int * int  (** pg, minimum membership epoch. *)
  | Caught_up of int * int
      (** pg, suspect: the suspect's pending replacement has hydrated to
          the group durable point. *)

type step = {
  trigger : trigger;
  action : action;
  expect : expectation list;
}

type t = {
  name : string;
  n_pgs : int;
  layout : Quorum.Layout.t;
  replicas : int;
  rate : float;  (** Open-loop transaction arrival rate, per second. *)
  duration_ms : int;  (** Workload duration; also the step horizon floor. *)
  quiesce_ms : int;  (** Settle time after workload + steps, before audit. *)
  recorder_depth : int;
      (** Flight-recorder ring capacity per node, within
          [Recorder.Rings.min_depth .. max_depth]. *)
  steps : step list;
}

(* ---- combinators ---- *)

val at_ms : int -> trigger
val at_lsn : int -> trigger
val step : ?expect:expectation list -> trigger -> action -> step

val make :
  name:string ->
  ?n_pgs:int ->
  ?layout:Quorum.Layout.t ->
  ?replicas:int ->
  ?rate:float ->
  ?duration_ms:int ->
  ?quiesce_ms:int ->
  ?recorder_depth:int ->
  step list ->
  t
(** Defaults: 1 PG, V6 layout, no replicas, 1500 txn/s, 1500 ms workload,
    1500 ms quiesce, {!Recorder.Rings.default_depth} recorder events per
    node. *)

(* ---- text format ---- *)

val to_string : t -> string
(** Canonical rendering: header lines ([scenario], [pgs], [layout],
    [replicas], [rate], [duration_ms], [quiesce_ms], [recorder_depth])
    then one [step] line per step.  Times print at millisecond granularity — which is also the
    combinators' granularity — so [of_string (to_string t) = Ok t]. *)

val step_str : step -> string
(** One canonical [step ...] line, as {!to_string} prints it (used to label
    steps in runner output). *)

val of_string : string -> (t, string) result
(** Parse the text format.  Blank lines and [#] comments are ignored;
    header lines may appear in any order before the first [step]; errors
    carry the 1-based line number. *)
