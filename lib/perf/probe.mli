(** Per-subsystem profiling hooks: wall-clock timers and allocation
    counters around two of the simulator's hot paths.

    The two instrumented subsystems are the storage node's foreground write
    apply and consistency-point advancement in [Aurora_core.Consistency].
    The benchmark's tracer reads them to split those costs out of the
    events that contain them; it times event dispatch and message delivery
    itself, through {!Simcore.Sim.set_probe}.

    All state lives here, outside the simulation: enabling or disabling
    probes changes *nothing* observable inside a run (no RNG draws, no sim
    events, no metrics registry entries), so the byte-diff determinism gate
    is untouched.  Probes are disabled by default; a disabled
    {!start}/{!stop} pair costs one load and branch.

    Each subsystem has a single open-span slot, so its spans must not nest
    within themselves.  Wall time comes from {!Clock}. *)

type subsystem =
  | Storage_apply  (** One [Write_batch] foreground apply on a storage node. *)
  | Consistency_advance
      (** One ack processed through SCL -> PGCL -> VCL advancement. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero all accumulated stats (open spans are discarded). *)

val start : subsystem -> unit
(** Open the subsystem's span: record wall-clock and minor-heap marks.
    No-op while disabled. *)

val stop : subsystem -> unit
(** Close the span and accumulate call count, wall time, and minor-heap
    words allocated.  No-op while disabled or without a matching
    {!start}. *)

type stat = {
  calls : int;
  wall_ns : int;  (** Total wall-clock time inside the subsystem's spans. *)
  minor_words : float;
      (** Minor-heap words allocated inside the spans (from
          [Gc.minor_words] deltas; nested subsystems' allocations are
          included in the enclosing span). *)
}

val stat : subsystem -> stat
