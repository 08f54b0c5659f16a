(** Deterministic discrete-event simulation loop.

    A simulation is a clock plus a priority queue of pending events: a
    binary min-heap on (instant, scheduling order) owned by [Sim].
    Scheduling costs O(log n) in the queue depth; dispatch pops in
    O(log n) and tests one field of the event to skip a cancelled one.  Events
    are closures scheduled at absolute instants; the loop pops the earliest
    event, advances the clock to its timestamp, and runs it.  Ties break by
    scheduling order (FIFO among same-instant events), which together with the
    deterministic {!Rng} makes whole runs reproducible from a seed.

    All Aurora components in this repository — storage nodes, the writer
    instance, replicas, the network, baseline protocols — are actors driven by
    this loop.  None of them ever consults wall-clock time. *)

type t

type event_id
(** Handle for cancellation: the queued event itself, which carries its
    own queued / ran / cancelled state.  Handles are never reused within
    one simulation.  Holding one keeps the event's closure alive. *)

val create : unit -> t

val now : t -> Time_ns.t
(** Current simulated instant. *)

val schedule : t -> delay:Time_ns.t -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t + delay].  Negative delays clamp
    to zero (the event runs at the current instant, after already-queued
    same-instant events). *)

val schedule_at : t -> at:Time_ns.t -> (unit -> unit) -> event_id
(** Absolute-time variant.  Instants in the past clamp to [now]. *)

val cancel : t -> event_id -> unit
(** O(1): marks the event cancelled in place.  It stays in the queue (and
    in [stats.max_heap_depth]) until its instant comes up, when dispatch
    discards it without advancing the clock or counting it as processed.
    Cancelling an event that already ran or was already cancelled is a
    no-op. *)

val every : t -> interval:Time_ns.t -> (unit -> bool) -> unit
(** [every t ~interval f] runs [f] at [now + interval], then repeatedly every
    [interval] for as long as [f] returns [true].  Used for background
    activities (gossip, GC, scrubbing).
    @raise Invalid_argument if [interval <= 0], which would otherwise
    reschedule at the same instant without end. *)

val run : t -> unit
(** Drain the event queue completely. *)

val run_until : t -> Time_ns.t -> unit
(** Run events with timestamps [<= limit]; afterwards [now t = limit] (or
    later if an event at the limit scheduled same-instant work). *)

val step : t -> bool
(** Run the single earliest event.  [false] if the queue was empty. *)

val pending : t -> int
(** Number of not-yet-run, not-cancelled events. *)

val processed : t -> int
(** Total events executed so far (a cheap progress/efficiency metric). *)

type stats = {
  processed : int;  (** Events executed (same as {!processed}). *)
  pending : int;  (** Same as {!pending}. *)
  max_heap_depth : int;
      (** High-water mark of the event queue over the whole run — the
          number any queue-sizing optimisation must size for. *)
}

val stats : t -> stats
(** Dispatch counters.  Deterministic: derived purely from scheduling
    activity, never from wall-clock. *)

type probe = { on_start : unit -> unit; on_stop : unit -> unit }
(** Hooks run around each event execution.  Intended for the perf layer's
    wall-clock/allocation accounting ([Perf.Probe.install_sim]); hooks
    must not schedule events, draw randomness, or otherwise touch sim
    state, so that an instrumented run stays byte-identical to a bare
    one. *)

val set_probe : t -> probe option -> unit
(** [None] (the default) restores the zero-overhead path. *)
