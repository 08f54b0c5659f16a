(* Tests for the performance-observability layer: profiling probes, the
   wall clock, the simulator's dispatch probe hook and dispatch stats, and
   qcheck properties that perf counters are monotone under event dispatch. *)

open Simcore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- probes ------------------------------------------------------------- *)

let test_probe_disabled_noop () =
  Perf.Probe.disable ();
  Perf.Probe.reset ();
  Perf.Probe.start Perf.Probe.Consistency_advance;
  Perf.Probe.stop Perf.Probe.Consistency_advance;
  let s = Perf.Probe.stat Perf.Probe.Consistency_advance in
  check_int "no calls counted while disabled" 0 s.Perf.Probe.calls

let test_probe_accumulates () =
  Perf.Probe.reset ();
  Perf.Probe.enable ();
  for _ = 1 to 5 do
    Perf.Probe.start Perf.Probe.Storage_apply;
    (* allocate something measurable inside the span *)
    ignore (Sys.opaque_identity (Array.make 1000 0) : int array);
    Perf.Probe.stop Perf.Probe.Storage_apply
  done;
  Perf.Probe.disable ();
  let s = Perf.Probe.stat Perf.Probe.Storage_apply in
  check_int "five spans" 5 s.Perf.Probe.calls;
  check_bool "wall time accumulated" true (s.Perf.Probe.wall_ns >= 0);
  check_bool "allocation observed" true (s.Perf.Probe.minor_words > 0.);
  (* stop without start is a no-op *)
  Perf.Probe.enable ();
  Perf.Probe.stop Perf.Probe.Storage_apply;
  Perf.Probe.disable ();
  let s' = Perf.Probe.stat Perf.Probe.Storage_apply in
  check_int "unmatched stop ignored" 5 s'.Perf.Probe.calls;
  Perf.Probe.reset ();
  let s'' = Perf.Probe.stat Perf.Probe.Storage_apply in
  check_int "reset zeroes" 0 s''.Perf.Probe.calls

let test_clock_monotone () =
  let prev = ref (Perf.Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Perf.Clock.now_ns () in
    check_bool "now_ns never decreases" true (t >= !prev);
    prev := t
  done

(* ---- sim dispatch stats ------------------------------------------------- *)

let test_sim_stats () =
  let sim = Sim.create () in
  (* Nested scheduling: each of 3 events schedules 2 more. *)
  for _ = 1 to 3 do
    ignore
      (Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () ->
           for _ = 1 to 2 do
             ignore (Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () -> ()) : Sim.event_id)
           done)
        : Sim.event_id)
  done;
  let st0 = Sim.stats sim in
  check_int "nothing processed yet" 0 st0.Sim.processed;
  check_int "three pending" 3 st0.Sim.pending;
  check_int "high-water mark is the initial burst" 3 st0.Sim.max_heap_depth;
  Sim.run sim;
  let st = Sim.stats sim in
  check_int "all nine events dispatched" 9 st.Sim.processed;
  check_int "drained" 0 st.Sim.pending;
  (* 3 initial + up to 6 nested, minus those already popped; the high-water
     mark depends on interleaving but can never shrink below the burst. *)
  check_bool "high-water mark >= initial burst" true (st.Sim.max_heap_depth >= 3)

(* ---- sim dispatch probe ------------------------------------------------ *)

(* [Sim.set_probe] brackets every executed event with on_start/on_stop,
   skips cancelled events, and stops firing once cleared. *)
let test_sim_set_probe () =
  let sim = Sim.create () in
  let trace = ref [] in
  let note s = trace := s :: !trace in
  let probe =
    { Sim.on_start = (fun () -> note "start"); on_stop = (fun () -> note "stop") }
  in
  ignore (Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () -> note "a") : Sim.event_id);
  let b = Sim.schedule sim ~delay:(Time_ns.ms 2) (fun () -> note "b") in
  ignore (Sim.schedule sim ~delay:(Time_ns.ms 3) (fun () -> note "c") : Sim.event_id);
  ignore (Sim.schedule sim ~delay:(Time_ns.ms 4) (fun () -> note "d") : Sim.event_id);
  check_bool "first event ran" true (Sim.step sim);
  Sim.set_probe sim (Some probe);
  Sim.cancel sim b;
  ignore (Sim.step sim : bool);
  ignore (Sim.step sim : bool);
  Sim.set_probe sim None;
  Sim.run sim;
  Alcotest.(check (list string))
    "bracketed while installed, never around a cancelled event"
    [ "a"; "start"; "c"; "stop"; "d" ]
    (List.rev !trace);
  check_int "three events dispatched" 3 (Sim.processed sim)

(* ---- qcheck: counters are monotone under dispatch ----------------------- *)

(* Random schedule/step interleavings: after every step, events-processed
   and the heap high-water mark never decrease, and processed grows by
   exactly the events actually run. *)
let prop_sim_counters_monotone =
  QCheck.Test.make ~name:"sim stats monotone under dispatch" ~count:100
    QCheck.(list (int_bound 3))
    (fun script ->
      let sim = Sim.create () in
      let prev = ref (Sim.stats sim) in
      let ok = ref true in
      let step_checked () =
        let ran = Sim.step sim in
        let st = Sim.stats sim in
        if
          st.Sim.processed < !prev.Sim.processed
          || st.Sim.max_heap_depth < !prev.Sim.max_heap_depth
          || st.Sim.processed - !prev.Sim.processed > 1
        then ok := false;
        prev := st;
        ran
      in
      List.iter
        (fun n ->
          if n = 0 then ignore (step_checked () : bool)
          else
            for _ = 1 to n do
              ignore
                (Sim.schedule sim ~delay:(Time_ns.ms n) (fun () -> ())
                  : Sim.event_id)
            done;
          let st = Sim.stats sim in
          if st.Sim.max_heap_depth < !prev.Sim.max_heap_depth then ok := false;
          prev := st)
        script;
      while step_checked () do () done;
      !ok && (Sim.stats sim).Sim.pending = 0)

(* Probe totals only ever grow while spans open and close inside dispatched
   events. *)
let prop_probe_counters_monotone =
  QCheck.Test.make ~name:"probe counters monotone under dispatch" ~count:50
    QCheck.(list (int_bound 4))
    (fun script ->
      Perf.Probe.reset ();
      Perf.Probe.enable ();
      let sim = Sim.create () in
      List.iter
        (fun n ->
          for _ = 1 to n do
            ignore
              (Sim.schedule sim ~delay:(Time_ns.ms (n + 1)) (fun () ->
                   Perf.Probe.start Perf.Probe.Storage_apply;
                   ignore (Sys.opaque_identity (List.init 8 Fun.id) : int list);
                   Perf.Probe.stop Perf.Probe.Storage_apply)
                : Sim.event_id)
          done)
        script;
      let ok = ref true in
      let prev = ref (Perf.Probe.stat Perf.Probe.Storage_apply) in
      let continue = ref true in
      while !continue do
        continue := Sim.step sim;
        let s = Perf.Probe.stat Perf.Probe.Storage_apply in
        if
          s.Perf.Probe.calls < !prev.Perf.Probe.calls
          || s.Perf.Probe.wall_ns < !prev.Perf.Probe.wall_ns
          || s.Perf.Probe.minor_words < !prev.Perf.Probe.minor_words
        then ok := false;
        prev := s
      done;
      Perf.Probe.disable ();
      let total = List.fold_left ( + ) 0 script in
      let s = Perf.Probe.stat Perf.Probe.Storage_apply in
      Perf.Probe.reset ();
      !ok && s.Perf.Probe.calls = total)

(* ---- runner ------------------------------------------------------------- *)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "perf"
    [
      ( "probe",
        [
          Alcotest.test_case "disabled no-op" `Quick test_probe_disabled_noop;
          Alcotest.test_case "accumulates" `Quick test_probe_accumulates;
          Alcotest.test_case "clock sanity" `Quick test_clock_monotone;
        ] );
      ( "sim_dispatch",
        [ Alcotest.test_case "set_probe brackets events" `Quick test_sim_set_probe ] );
      ( "sim_stats",
        [
          Alcotest.test_case "dispatch counters" `Quick test_sim_stats;
          qc prop_sim_counters_monotone;
          qc prop_probe_counters_monotone;
        ] );
    ]
