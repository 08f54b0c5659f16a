(* Unit and property tests for the simulation substrate. *)
open Simcore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Rng ---- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let c = Rng.split a in
  check_bool "split differs from parent" true (Rng.bits64 a <> Rng.bits64 c)

(* The exact stream: every seeded run, golden file and repro digest
   depends on these values, so a change to the generator's representation
   must leave them as they are. *)
let test_rng_stream_pinned () =
  let check_stream msg expected rng =
    Alcotest.(check (list int64)) msg expected
      (List.init (List.length expected) (fun _ -> Rng.bits64 rng))
  in
  let a = Rng.create 42 in
  let s = Rng.split (Rng.create 42) in
  check_stream "create 42" [ 0x989B3F130A063869L; 0x290DB4BF2570DED7L;
    0x2A990BE63A01B2D5L; 0x0C4B6B24EF01890EL; 0xFB16A06E52EC10A7L;
    0x3C30FC5FD50692C3L; 0x4782C4B4C4FDF7C9L; 0x272404A0A3926552L ] a;
  check_stream "split of create 42" [ 0x5599B3E06D073327L; 0xD6171D07A31128DFL;
    0xED057BA08584C10BL; 0x9EA45BEEBEE33B1CL; 0xB0D03117CA5E86C7L;
    0x1FEE6A4909479CCFL; 0xEDE4BCCE07480405L; 0x6B330122E9C444DBL ] s;
  (* Floats compared bit for bit, as hexadecimal literals. *)
  let r = Rng.create 42 in
  let samples n f = List.init n (fun _ -> Printf.sprintf "%h" (f ())) in
  Alcotest.(check (list string)) "gaussian"
    [ "0x1.ae02c882122e4p+0"; "0x1.a4de33ba9ee26p+0"; "0x1.90cc647d3b1fp+0" ]
    (samples 3 (fun () -> Rng.gaussian r ~mu:1.5 ~sigma:0.25));
  Alcotest.(check (list string)) "lognormal"
    [ "0x1.953dba79f980cp+4"; "0x1.4c202ab75a3acp+4"; "0x1.315c3507bb632p+5" ]
    (samples 3 (fun () -> Rng.lognormal r ~mu:3.0 ~sigma:0.5));
  Alcotest.(check (list string)) "exponential"
    [ "0x1.cc79454294d3p+7"; "0x1.0c2de0a2a701dp+3"; "0x1.ef501506aff94p+1" ]
    (samples 3 (fun () -> Rng.exponential r ~mean:100.))

(* A copy owns its state: drawing from it leaves the original where it
   was, and the two then draw the same values. *)
let test_rng_copy_independent () =
  let a = Rng.create 42 in
  ignore (Rng.bits64 a : int64);
  let c = Rng.copy a in
  let from_copy = List.init 5 (fun _ -> Rng.bits64 c) in
  Alcotest.(check int64) "original's next value unchanged" 0x290DB4BF2570DED7L
    (Rng.bits64 a);
  Alcotest.(check int64) "copy drew the same stream" 0x290DB4BF2570DED7L
    (List.hd from_copy)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 5 9 in
    check_bool "in inclusive range" true (v >= 5 && v <= 9)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng ~mean:100.
  done;
  let mean = !acc /. float_of_int n in
  check_bool "mean within 5%" true (abs_float (mean -. 100.) < 5.)

let test_rng_bernoulli () =
  let rng = Rng.create 13 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. 10_000. in
  check_bool "p within 2%" true (abs_float (p -. 0.3) < 0.02)

(* A draw on the message path allocates nothing once [Rng]'s [@inline]
   samplers inline into their caller, here a module outside [simcore].  A
   float-returning call that does not inline boxes its result: under
   [--profile dev], which compiles libraries with [-opaque], [unit_float]
   and a lognormal [Distribution.sample] read 2 words a draw and this test
   fails by design.  Each loop calls the sampler directly: passing it as a
   closure would stop the inlining the test is about. *)
let alloc_draws = 1_000_000

let words_per_draw w0 = (Gc.minor_words () -. w0) /. float_of_int alloc_draws

let test_rng_draws_allocate_nothing () =
  let rng = Rng.create 17 in
  let sum = ref 0. in
  let w0 = Gc.minor_words () in
  for _ = 1 to alloc_draws do
    sum := !sum +. Rng.unit_float rng
  done;
  let unit_float_words = words_per_draw w0 in
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to alloc_draws do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let bernoulli_words = words_per_draw w0 in
  let d = Distribution.lognormal ~median:(Time_ns.us 100) ~sigma:0.5 in
  let total = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to alloc_draws do
    total := !total + Distribution.sample d rng
  done;
  let lognormal_words = words_per_draw w0 in
  check_bool "draws were made" true (!sum > 0. && !hits > 0 && !total > 0);
  let samplers =
    [ "Rng.unit_float"; "Rng.bernoulli"; "lognormal Distribution.sample" ]
  in
  Alcotest.(check (list (pair string (float 0.001))))
    "minor words per draw"
    (List.map (fun name -> (name, 0.)) samplers)
    (List.combine samplers
       [ unit_float_words; bernoulli_words; lognormal_words ])

let test_rng_sample_without_replacement () =
  let rng = Rng.create 17 in
  let arr = Array.init 10 (fun i -> i) in
  for _ = 1 to 50 do
    let s = Rng.sample_without_replacement rng 4 arr in
    check_int "size" 4 (Array.length s);
    let l = Array.to_list s in
    check_int "distinct" 4 (List.length (List.sort_uniq Int.compare l))
  done

(* ---- Sim ---- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~delay:(Time_ns.ms 5) (fun () -> log := 2 :: !log));
  ignore (Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () -> log := 1 :: !log));
  ignore (Sim.schedule sim ~delay:(Time_ns.ms 9) (fun () -> log := 3 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" (Time_ns.ms 9) (Sim.now sim)

let test_sim_fifo_same_instant () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let id = Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () -> fired := true) in
  Sim.cancel sim id;
  Sim.run sim;
  check_bool "cancelled" false !fired

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule sim ~delay:(Time_ns.ms i) (fun () -> incr count))
  done;
  Sim.run_until sim (Time_ns.ms 5);
  check_int "only first five" 5 !count;
  check_int "clock at limit" (Time_ns.ms 5) (Sim.now sim);
  Sim.run sim;
  check_int "rest run" 10 !count

let test_sim_every () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.every sim ~interval:(Time_ns.ms 10) (fun () ->
      incr count;
      !count < 3);
  Sim.run sim;
  check_int "stopped after returning false" 3 !count;
  (* A non-positive interval would reschedule at the same instant forever. *)
  List.iter
    (fun interval ->
      Alcotest.check_raises
        (Printf.sprintf "interval %d rejected" interval)
        (Invalid_argument "Sim.every: interval must be positive")
        (fun () -> Sim.every sim ~interval (fun () -> true)))
    [ 0; -1 ];
  check_int "nothing scheduled by a rejected call" 0 (Sim.pending sim)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Sim.schedule sim ~delay:Time_ns.zero (fun () ->
                log := "inner" :: !log))));
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_sim_stats_counters () =
  let sim = Sim.create () in
  let st = Sim.stats sim in
  Alcotest.(check int) "fresh sim: nothing processed" 0 st.Sim.processed;
  Alcotest.(check int) "fresh sim: empty heap" 0 st.Sim.max_heap_depth;
  for i = 1 to 4 do
    ignore (Sim.schedule sim ~delay:(Time_ns.ms i) (fun () -> ()) : Sim.event_id)
  done;
  let st = Sim.stats sim in
  Alcotest.(check int) "pending counts queued events" 4 st.Sim.pending;
  Alcotest.(check int) "high-water mark tracks the queue" 4 st.Sim.max_heap_depth;
  ignore (Sim.step sim : bool);
  Sim.run sim;
  let st = Sim.stats sim in
  Alcotest.(check int) "all events processed" 4 st.Sim.processed;
  Alcotest.(check int) "queue drained" 0 st.Sim.pending;
  Alcotest.(check int) "high-water mark survives the drain" 4 st.Sim.max_heap_depth;
  (* Cancelled events still occupied the heap, so they raise the mark but
     never count as processed. *)
  let sim2 = Sim.create () in
  let id = Sim.schedule sim2 ~delay:(Time_ns.ms 1) (fun () -> ()) in
  Sim.cancel sim2 id;
  Sim.run sim2;
  let st2 = Sim.stats sim2 in
  Alcotest.(check int) "cancelled events are not processed" 0 st2.Sim.processed;
  Alcotest.(check int) "but they did enter the heap" 1 st2.Sim.max_heap_depth;
  (* Events scheduled after a dispatch get fresh ids: cancelling one leaves
     its neighbours alone, and [pending] excludes it until it is popped. *)
  let sim3 = Sim.create () in
  let fired = ref [] in
  let fire n () = fired := n :: !fired in
  ignore (Sim.schedule sim3 ~delay:(Time_ns.ms 1) (fire 1) : Sim.event_id);
  ignore (Sim.step sim3 : bool);
  let b = Sim.schedule sim3 ~delay:(Time_ns.ms 1) (fire 2) in
  ignore (Sim.schedule sim3 ~delay:(Time_ns.ms 2) (fire 3) : Sim.event_id);
  Sim.cancel sim3 b;
  Alcotest.(check int) "pending excludes the cancelled event" 1 (Sim.pending sim3);
  Sim.run sim3;
  let st3 = Sim.stats sim3 in
  Alcotest.(check (list int)) "only the cancelled event skipped" [ 1; 3 ]
    (List.rev !fired);
  Alcotest.(check int) "cancelled event not processed" 2 st3.Sim.processed;
  Alcotest.(check int) "pending back to zero" 0 st3.Sim.pending;
  Alcotest.(check int) "high-water mark counts the cancelled event" 2
    st3.Sim.max_heap_depth

let check_sim msg sim ~pending ~processed ~clock ~depth =
  let st = Sim.stats sim in
  check_int (msg ^ ": pending") pending (Sim.pending sim);
  check_int (msg ^ ": stats.pending") pending st.Sim.pending;
  check_int (msg ^ ": processed") processed st.Sim.processed;
  check_int (msg ^ ": clock") clock (Sim.now sim);
  check_int (msg ^ ": max_heap_depth") depth st.Sim.max_heap_depth

(* Cancelling an event that already ran is a no-op: it must not leave a
   mark that later makes [pending] undercount. *)
let test_sim_cancel_after_run () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let a = Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () -> incr fired) in
  Sim.run sim;
  Sim.cancel sim a;
  check_sim "after the late cancel" sim ~pending:0 ~processed:1
    ~clock:(Time_ns.ms 1) ~depth:1;
  ignore (Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () -> incr fired) : Sim.event_id);
  check_sim "next event counts as pending" sim ~pending:1 ~processed:1
    ~clock:(Time_ns.ms 1) ~depth:1;
  Sim.run sim;
  check_int "both ran" 2 !fired;
  check_sim "drained" sim ~pending:0 ~processed:2 ~clock:(Time_ns.ms 2) ~depth:1

let test_sim_cancel_twice () =
  let sim = Sim.create () in
  let fired = ref [] in
  let a = Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () -> fired := 1 :: !fired) in
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 2) (fun () -> fired := 2 :: !fired)
      : Sim.event_id);
  Sim.cancel sim a;
  Sim.cancel sim a;
  check_sim "cancelled once, counted once" sim ~pending:1 ~processed:0
    ~clock:Time_ns.zero ~depth:2;
  Sim.run sim;
  Sim.cancel sim a;
  Alcotest.(check (list int)) "only the live event ran" [ 2 ] !fired;
  check_sim "drained" sim ~pending:0 ~processed:1 ~clock:(Time_ns.ms 2) ~depth:2

let test_sim_cancel_then_run_until () =
  let sim = Sim.create () in
  let fired = ref [] in
  let a = Sim.schedule sim ~delay:(Time_ns.ms 1) (fun () -> fired := 1 :: !fired) in
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 3) (fun () -> fired := 3 :: !fired)
      : Sim.event_id);
  Sim.cancel sim a;
  Sim.run_until sim (Time_ns.ms 2);
  Alcotest.(check (list int)) "cancelled event skipped" [] !fired;
  check_sim "clock at the limit" sim ~pending:1 ~processed:0
    ~clock:(Time_ns.ms 2) ~depth:2;
  Sim.run_until sim (Time_ns.ms 5);
  Alcotest.(check (list int)) "live event ran" [ 3 ] !fired;
  check_sim "drained" sim ~pending:0 ~processed:1 ~clock:(Time_ns.ms 5) ~depth:2

(* Model-based check of the event queue against a sorted-list reference.
   Small instants make ties common; [Sched_at] reaches into the past. *)
type sim_op =
  | Sched of int  (** delay, may be negative *)
  | Sched_at of int  (** absolute instant, may be in the past *)
  | Cancel of int  (** index into every event scheduled so far *)
  | Step
  | Run_until of int  (** limit relative to the clock *)

let show_sim_op = function
  | Sched d -> Printf.sprintf "Sched %d" d
  | Sched_at a -> Printf.sprintf "Sched_at %d" a
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Step -> "Step"
  | Run_until d -> Printf.sprintf "Run_until +%d" d

let gen_sim_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun d -> Sched d) (int_range (-3) 12));
        (2, map (fun a -> Sched_at a) (int_range 0 40));
        (3, map (fun i -> Cancel i) (int_range 0 1000));
        (3, return Step);
        (2, map (fun d -> Run_until d) (int_range (-2) 10));
      ])

(* Reference: the queue as a list sorted on (at, seq), each event with a
   mutable state. *)
type model_ev = { m_at : int; m_seq : int; mutable m_state : [ `Q | `R | `C ] }

let prop_sim_matches_model =
  QCheck.Test.make ~name:"event queue matches a sorted-list model" ~count:300
    QCheck.(make ~print:(Print.list show_sim_op) Gen.(list_size (int_range 0 150) gen_sim_op))
    (fun ops ->
      let sim = Sim.create () in
      let log = ref [] in
      let ids = ref [||] and evs = ref [||] in
      let queue = ref [] and clock = ref 0 and processed = ref 0 in
      let depth = ref 0 and mlog = ref [] in
      let insert ev =
        let rec go = function
          | [] -> [ ev ]
          | e :: rest when e.m_at < ev.m_at || (e.m_at = ev.m_at && e.m_seq < ev.m_seq)
            ->
            e :: go rest
          | l -> ev :: l
        in
        queue := go !queue;
        depth := max !depth (List.length !queue)
      in
      let add at id =
        let ev = { m_at = max at !clock; m_seq = Array.length !ids; m_state = `Q } in
        ids := Array.append !ids [| id |];
        evs := Array.append !evs [| ev |];
        insert ev
      in
      let action seq () = log := seq :: !log in
      let m_pop () =
        match !queue with
        | [] -> false
        | ev :: rest ->
          queue := rest;
          (match ev.m_state with
          | `C -> ()
          | `Q | `R ->
            ev.m_state <- `R;
            clock := ev.m_at;
            incr processed;
            mlog := ev.m_seq :: !mlog);
          true
      in
      List.for_all
        (fun op ->
          (match op with
          | Sched d ->
            let seq = Array.length !ids in
            add (!clock + max d 0) (Sim.schedule sim ~delay:d (action seq))
          | Sched_at a ->
            let seq = Array.length !ids in
            add a (Sim.schedule_at sim ~at:a (action seq))
          | Cancel i ->
            let n = Array.length !ids in
            if n > 0 then begin
              let i = i mod n in
              Sim.cancel sim !ids.(i);
              let ev = !evs.(i) in
              if ev.m_state = `Q then ev.m_state <- `C
            end
          | Step ->
            let ran = Sim.step sim in
            if ran <> m_pop () then failwith "step result differs"
          | Run_until d ->
            let limit = !clock + d in
            Sim.run_until sim limit;
            let rec go () =
              match !queue with
              | ev :: _ when ev.m_at <= limit -> ignore (m_pop () : bool); go ()
              | _ -> ()
            in
            go ();
            clock := max !clock limit);
          let st = Sim.stats sim in
          let m_pending =
            List.length (List.filter (fun ev -> ev.m_state = `Q) !queue)
          in
          !log = !mlog
          && Sim.now sim = !clock
          && Sim.pending sim = m_pending
          && st.Sim.pending = m_pending
          && st.Sim.processed = !processed
          && Sim.processed sim = !processed
          && st.Sim.max_heap_depth = !depth)
        ops)

(* ---- Distribution ---- *)

let test_distribution_constant () =
  let rng = Rng.create 3 in
  let d = Distribution.constant (Time_ns.us 100) in
  for _ = 1 to 10 do
    check_int "constant" (Time_ns.us 100) (Distribution.sample d rng)
  done

let test_distribution_uniform_bounds () =
  let rng = Rng.create 5 in
  let d = Distribution.uniform ~lo:(Time_ns.us 10) ~hi:(Time_ns.us 20) in
  for _ = 1 to 1000 do
    let v = Distribution.sample d rng in
    check_bool "in bounds" true (v >= Time_ns.us 10 && v <= Time_ns.us 20)
  done

let test_distribution_shifted () =
  let rng = Rng.create 5 in
  let d = Distribution.shifted (Time_ns.ms 1) (Distribution.constant (Time_ns.us 5)) in
  check_int "shift" (Time_ns.add (Time_ns.ms 1) (Time_ns.us 5)) (Distribution.sample d rng)

let test_distribution_mixture () =
  let rng = Rng.create 9 in
  let d =
    Distribution.mixture
      [ (0.5, Distribution.constant 10); (0.5, Distribution.constant 20) ]
  in
  let tens = ref 0 and twenties = ref 0 in
  for _ = 1 to 2000 do
    match Distribution.sample d rng with
    | 10 -> incr tens
    | 20 -> incr twenties
    | v -> Alcotest.failf "unexpected sample %d" v
  done;
  check_bool "both sides drawn" true (!tens > 800 && !twenties > 800)

let test_distribution_lognormal_median () =
  let rng = Rng.create 15 in
  let d = Distribution.lognormal ~median:(Time_ns.us 100) ~sigma:0.5 in
  let below = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Distribution.sample d rng < Time_ns.us 100 then incr below
  done;
  let frac = float_of_int !below /. float_of_int n in
  check_bool "median splits samples" true (abs_float (frac -. 0.5) < 0.03)

(* ---- Histogram ---- *)

let test_histogram_empty () =
  let h = Histogram.create () in
  check_int "count" 0 (Histogram.count h);
  check_int "p50" 0 (Histogram.percentile h 50.);
  check_int "max" 0 (Histogram.max_value h)

let test_histogram_exact_small () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  check_int "count" 10 (Histogram.count h);
  check_int "min" 1 (Histogram.min_value h);
  check_int "max" 10 (Histogram.max_value h);
  check_int "p50 small values exact" 5 (Histogram.percentile h 50.);
  check_int "p100" 10 (Histogram.percentile h 100.)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 5;
  Histogram.record b 1000;
  let m = Histogram.merge a b in
  check_int "count" 2 (Histogram.count m);
  check_int "min" 5 (Histogram.min_value m);
  check_int "max" 1000 (Histogram.max_value m)

let prop_histogram_percentile_close =
  QCheck.Test.make ~name:"histogram percentile within 7% of exact" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 10 200) (int_range 0 10_000_000)) (int_range 1 99))
    (fun (xs, p) ->
      QCheck.assume (xs <> []);
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let sorted = List.sort Int.compare xs in
      let n = List.length sorted in
      let idx =
        let r = int_of_float (ceil (float_of_int p /. 100. *. float_of_int n)) in
        max 0 (min (n - 1) (r - 1))
      in
      let exact = List.nth sorted idx in
      let approx = Histogram.percentile h (float_of_int p) in
      (* log-bucketed: relative error bounded by sub-bucket width *)
      approx >= exact && float_of_int approx <= (float_of_int exact *. 1.07) +. 1.)

let test_histogram_mean_stddev () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 10; 20; 30 ];
  check_bool "mean" true (abs_float (Histogram.mean h -. 20.) < 0.001);
  check_bool "stddev" true (abs_float (Histogram.stddev h -. 8.165) < 0.01)

let test_histogram_windowed_snapshot () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3 ];
  let s = Histogram.snapshot h in
  check_int "empty window count" 0 (Histogram.count_since h s);
  check_int "empty window p99" 0 (Histogram.percentile_since h s 99.);
  List.iter (Histogram.record h) [ 10; 11; 12; 13 ];
  check_int "window count" 4 (Histogram.count_since h s);
  (* The window sees only the post-snapshot values, not the 1-3 prefix. *)
  check_int "window p50" 11 (Histogram.percentile_since h s 50.);
  check_int "window p100" 13 (Histogram.percentile_since h s 100.);
  check_int "whole-run view spans both windows" 10 (Histogram.percentile h 50.);
  let other = Histogram.create () in
  Alcotest.check_raises "foreign snapshot rejected"
    (Invalid_argument
       "Histogram.percentile_since: snapshot from another histogram")
    (fun () -> ignore (Histogram.percentile_since other s 50. : int))

(* ---- Stats ---- *)

let test_stats_percentile_exact () =
  let s = Stats.of_list [ 1.; 2.; 3.; 4.; 5. ] in
  check_bool "p50" true (Stats.percentile s 50. = 3.);
  check_bool "p0" true (Stats.percentile s 0. = 1.);
  check_bool "p100" true (Stats.percentile s 100. = 5.);
  check_bool "p25 interp" true (Stats.percentile s 25. = 2.)

let test_stats_moments () =
  let s = Stats.of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  check_bool "mean" true (Stats.mean s = 5.);
  check_bool "stddev" true (abs_float (Stats.stddev s -. 2.0) < 1e-9)

let test_ewma () =
  let e = Stats.Ewma.create ~alpha:0.5 ~init:0. in
  Stats.Ewma.observe e 10.;
  check_bool "first" true (Stats.Ewma.value e = 5.);
  Stats.Ewma.observe e 10.;
  check_bool "second" true (Stats.Ewma.value e = 7.5);
  check_int "count" 2 (Stats.Ewma.observations e)

(* ---- Bits ---- *)

(* Known answers for the FNV-1a fold.  Block placement and block checksums
   are built on it, so any change of value is a behaviour change. *)
let test_fnv1a_known_answers () =
  let v64 = "v000000001-" ^ String.make 53 'x' in
  check_int "64-byte value" 64 (String.length v64);
  check_int "seed" 860922984064492325 Bits.fnv1a_seed;
  check_int "empty" 3414781078840391647 (Bits.fnv1a_string "");
  check_int "1 byte" 620337896427418084 (Bits.fnv1a_string "a");
  check_int "NUL byte" 590684067820433389 (Bits.fnv1a_string "\x00");
  check_int "64 bytes" 2364970330143970479 (Bits.fnv1a_string v64);
  check_int "key" 1539193672991139583 (Bits.fnv1a_string "key-000042");
  let int v = Bits.fnv1a_add_int Bits.fnv1a_seed v in
  check_int "int 0" 2938590176187398597 (int 0);
  check_int "int 1" 706274769219809188 (int 1);
  check_int "int -1" 933822423779008957 (int (-1));
  check_int "int min_int" 2938660544931604101 (int min_int);
  check_int "int max_int" 933752055034803453 (int max_int);
  check_int "int 4096" 1414200157999533077 (int 4096);
  check_int "key, value, int chained" 536605637549225265
    (Bits.fnv1a_add_int
       (Bits.fnv1a_add_string (Bits.fnv1a_string "key-000042") v64)
       (-1))

(* FNV-1a places keys in blocks, so its value at every short length (each
   remainder of a word, and past one) is pinned too. *)
let test_fnv1a_short_strings () =
  List.iteri
    (fun n expected ->
      check_int (Printf.sprintf "length %d" n) expected
        (Bits.fnv1a_string (String.sub "abcdefghij" 0 n)))
    [
      3414781078840391647; 620337896427418084; 2819256772731206686;
      4330135742048588913; 2542539470627120007; 1732676667520059768;
      30931805106982654; 2727602579485266549; 4265606095883754295;
      4160179995791577764;
    ]

(* Known answers for the checksum word mix.  No output prints a checksum,
   but scrub results depend on which blocks verify, so a change of value
   must be deliberate.  Lengths 0-9 cover an empty string, every partial
   last word, and more than two words. *)
let test_mix_known_answers () =
  let v64 = "v000000001-" ^ String.make 53 'x' in
  List.iteri
    (fun n expected ->
      check_int (Printf.sprintf "length %d" n) expected
        (Bits.mix_add_string Bits.mix_seed (String.sub "abcdefghij" 0 n)))
    [
      -1196904939586996257; -4021922241839577897; -4010680834953316308;
      2979218050793586153; 2974433647612742326; -526922447180729438;
      2314680692847962615; 3620380434859345632; -4468146991349633051;
      -578604846628281467;
    ];
  check_int "64 bytes" 4389496999508745201 (Bits.mix_add_string Bits.mix_seed v64);
  check_int "int -1" 1196903840075368046 (Bits.mix_add_int Bits.mix_seed (-1));
  check_int "finish 0" 0 (Bits.mix_finish 0);
  check_int "finish 1" (-1442015546200444823) (Bits.mix_finish 1);
  check_int "finish min_int" 178897516209522065 (Bits.mix_finish min_int);
  check_int "checksum term: key, value, txn, lsn" 2718669227800359096
    (Bits.mix_finish
       (Bits.mix_add_int
          (Bits.mix_add_int
             (Bits.mix_add_string (Bits.mix_add_string Bits.mix_seed "key-000042") v64)
             7)
          4096))

(* ---- Time ---- *)

let test_time_units () =
  check_int "us" 1_000 (Time_ns.us 1);
  check_int "ms" 1_000_000 (Time_ns.ms 1);
  check_int "sec" 1_000_000_000 (Time_ns.sec 1);
  check_int "of_float_us" 1_500 (Time_ns.of_float_us 1.5);
  Alcotest.(check string) "pp ms" "1.50ms" (Time_ns.to_string (Time_ns.us 1500))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "simcore"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
        ] );
      ( "sim",
        [
          Alcotest.test_case "time ordering" `Quick test_sim_ordering;
          Alcotest.test_case "fifo ties" `Quick test_sim_fifo_same_instant;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "run_until" `Quick test_sim_run_until;
          Alcotest.test_case "every" `Quick test_sim_every;
          Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
          Alcotest.test_case "dispatch stats" `Quick test_sim_stats_counters;
          Alcotest.test_case "cancel after run" `Quick test_sim_cancel_after_run;
          Alcotest.test_case "cancel twice" `Quick test_sim_cancel_twice;
          Alcotest.test_case "cancel then run_until" `Quick
            test_sim_cancel_then_run_until;
          qc prop_sim_matches_model;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "constant" `Quick test_distribution_constant;
          Alcotest.test_case "uniform bounds" `Quick test_distribution_uniform_bounds;
          Alcotest.test_case "shifted" `Quick test_distribution_shifted;
          Alcotest.test_case "mixture" `Quick test_distribution_mixture;
          Alcotest.test_case "lognormal median" `Quick
            test_distribution_lognormal_median;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "exact small" `Quick test_histogram_exact_small;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "mean/stddev" `Quick test_histogram_mean_stddev;
          Alcotest.test_case "windowed snapshot" `Quick
            test_histogram_windowed_snapshot;
          qc prop_histogram_percentile_close;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile exact" `Quick test_stats_percentile_exact;
          Alcotest.test_case "moments" `Quick test_stats_moments;
          Alcotest.test_case "ewma" `Quick test_ewma;
        ] );
      ("time", [ Alcotest.test_case "units" `Quick test_time_units ]);
      ( "bits",
        [
          Alcotest.test_case "fnv1a known answers" `Quick test_fnv1a_known_answers;
          Alcotest.test_case "fnv1a short strings" `Quick test_fnv1a_short_strings;
          Alcotest.test_case "checksum mix known answers" `Quick test_mix_known_answers;
        ] );
    ]
