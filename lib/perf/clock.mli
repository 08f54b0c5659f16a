(** The repository's single wall-clock gateway.

    Everything in [lib/] / [bin/] / [bench/] is sim code as far as the
    aurora_lint determinism rule is concerned: real time must never leak
    into simulated behaviour.  Timing the harness itself is the one
    legitimate use of real time, and this module is the single place
    allowed to read a clock for it — the lint rule whitelists exactly
    [lib/perf/clock.ml].

    Readings feed only perf-side accounting ({!Probe}); nothing here may be
    consulted by simulation state. *)

val now_ns : unit -> int
(** CLOCK_MONOTONIC in integer nanoseconds, read through bechamel's
    allocation-free stub.  Only differences between readings mean
    anything; the origin is unspecified. *)
