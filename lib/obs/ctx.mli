(** One observability context per cluster.

    Bundles the metrics {!Registry}, the {!Commit_path} ledger, the
    {!Series} time-series collection, and the {!Health} monitor.  Every
    component takes an optional [?obs] context at creation; a component
    built without one gets a fresh private context ({!create}) so
    instrumentation code never branches — the harness passes a single
    shared context to everything it builds and snapshots that.  Discrete
    events are not kept here: they go to the flight recorder's per-node
    rings ([Recorder.Rings]).

    The series and health members are passive here: the harness decides
    which channels to track and drives [Series.sample]/[Health.observe]
    from a sim-clock timer.  They appear in {!snapshot_at} automatically once
    populated. *)

type t

val create : unit -> t

val registry : t -> Registry.t
val commit_path : t -> Commit_path.t
val series : t -> Series.t
val health : t -> Health.t

val snapshot_at : at:Simcore.Time_ns.t -> ?where:Registry.labels -> t -> Json.t
(** [{"at_ns"; "instruments"; "series"?; "health"?}], stamped with [at].
    ["series"]/["health"] appear once the sampler has run; [where] keeps
    only instruments carrying those labels (plus unlabelled ones).
    Deterministic for identically seeded simulations. *)
