(* The benchmark's one wall clock: CLOCK_MONOTONIC in nanoseconds, read
   through bechamel's allocation-free stub.  Every timing perfbench takes
   goes through [now_ns]; the in-program [Perf.Probe] spans keep their own
   clock. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
