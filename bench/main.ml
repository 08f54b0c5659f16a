(* Benchmark harness.

   Two parts:

   1. Experiment regeneration — one driver per figure / quantitative claim
      of the paper (E1..E10; see DESIGN.md §4).  Each prints a table in the
      paper's shape; EXPERIMENTS.md records paper-vs-measured.  This is the
      default output of `dune exec bench/main.exe`.

   2. Bechamel micro-benchmarks of the hot paths that make the paper's
      mechanisms cheap: consistency-point advancement, quorum-set
      evaluation, hot-log insertion/SCL tracking, block-store apply,
      histogram recording, and the simulator core.  Run with
      `dune exec bench/main.exe -- micro`.

   3. The performance report — `main.exe report --out BENCH_NNN.json` runs
      the micro suite plus an end-to-end reference scenario (open-loop
      transaction mix on the default cluster) and writes the machine-readable
      `BENCH_*.json` record (see Perf.Bench_report): ns/op per micro-bench,
      simulated commits/sec, wall-clock events/sec, and GC deltas per commit.
      `scripts/bench.sh` drives this; `aurora_cli perf` reads the trajectory.

   The default (`dune exec bench/main.exe`) runs experiments + micro.

   All wall-clock reads go through Perf.Clock — the one module the
   aurora_lint determinism rule permits to touch real time. *)

open Simcore
module E = Harness.Experiments

let run_experiments () =
  let t0 = Perf.Clock.now_ns () in
  print_string (E.run_all ());
  Printf.printf "(experiments wall-clock: %.1fs)\n%!" (Perf.Clock.elapsed_s ~since:t0)

(* ---- Bechamel micro-benchmarks ---- *)

let bench_consistency () =
  (* One PG, 6 segments: submit+ack a record through PGCL/VCL advancement. *)
  let open Quorum in
  let c = Aurora_core.Consistency.create () in
  let pg = Storage.Pg_id.of_int 0 in
  let members = List.init 6 Member_id.of_int in
  Aurora_core.Consistency.register_pg c pg
    ~write_quorum:(Quorum_set.k_of 4 members);
  let lsn = ref 0 in
  let seg_arr = Array.of_list members in
  Bechamel.Staged.stage (fun () ->
      incr lsn;
      let l = Wal.Lsn.of_int !lsn in
      Aurora_core.Consistency.note_submitted c ~pg ~lsn:l ~mtr_end:true;
      for s = 0 to 3 do
        Aurora_core.Consistency.note_ack c ~pg ~seg:seg_arr.(s) ~scl:l
      done)

let bench_quorum_eval () =
  let open Quorum in
  let members, rule = E.scheme_rule Harness.Cluster.Tiered in
  let ids = List.map (fun (m : Membership.member) -> m.Membership.id) members in
  let subset = Member_id.set_of_list (List.filteri (fun i _ -> i < 4) ids) in
  Bechamel.Staged.stage (fun () ->
      ignore (Quorum_set.satisfied rule.Quorum_set.Rule.write subset : bool))

let bench_quorum_overlap () =
  let _, rule = E.scheme_rule Harness.Cluster.Tiered in
  Bechamel.Staged.stage (fun () ->
      ignore
        (Quorum.Quorum_set.overlaps ~read:rule.Quorum.Quorum_set.Rule.read
           ~write:rule.Quorum.Quorum_set.Rule.write
          : bool))

let bench_hot_log () =
  let log = Wal.Hot_log.create () in
  let lsn = ref 0 in
  Bechamel.Staged.stage (fun () ->
      incr lsn;
      let r =
        Wal.Log_record.make ~lsn:(Wal.Lsn.of_int !lsn)
          ~prev_volume:(Wal.Lsn.of_int (!lsn - 1))
          ~prev_segment:(Wal.Lsn.of_int (!lsn - 1))
          ~prev_block:Wal.Lsn.none
          ~block:(Wal.Block_id.of_int (!lsn mod 64))
          ~txn:(Wal.Txn_id.of_int 1) ~mtr_id:!lsn ~mtr_end:true
          ~op:(Wal.Log_record.Put { key = "k"; value = "v" })
      in
      ignore (Wal.Hot_log.insert log r : Wal.Hot_log.insert_result))

let bench_block_store_apply () =
  (* A Put with a 64-byte value into a warm block (16 keys that already
     have versions), as coalesce applies it: the version push plus the two
     checksum terms.  Every 4096 puts a GC pass collects the superseded
     versions, so the store stays small however long Bechamel runs. *)
  let store = Storage.Block_store.create () in
  let txn = Wal.Txn_id.of_int 1 in
  Storage.Block_store.note_outcome store txn (Wal.Lsn.of_int 1) ~aborted:false;
  let keys = Array.init 16 (Printf.sprintf "key-%06d") in
  let value = "v000000001-" ^ String.make 53 'x' in
  let lsn = ref 1 in
  let put () =
    incr lsn;
    let l = Wal.Lsn.of_int !lsn in
    Storage.Block_store.apply store
      (Wal.Log_record.make ~lsn:l ~prev_volume:Wal.Lsn.none ~prev_segment:Wal.Lsn.none
         ~prev_block:Wal.Lsn.none ~block:(Wal.Block_id.of_int 7) ~txn ~mtr_id:!lsn
         ~mtr_end:true
         ~op:(Wal.Log_record.Put { key = keys.(!lsn land 15); value }))
  in
  for _ = 1 to 16 do
    put ()
  done;
  Bechamel.Staged.stage (fun () ->
      put ();
      if !lsn land 4095 = 0 then
        ignore (Storage.Block_store.gc store ~keep_at_or_above:(Wal.Lsn.of_int !lsn) : int))

let bench_histogram () =
  let h = Histogram.create () in
  let x = ref 17 in
  Bechamel.Staged.stage (fun () ->
      x := (!x * 1103515245) + 12345;
      Histogram.record h (abs !x mod 10_000_000))

let bench_sim_events () =
  let sim = Sim.create () in
  Bechamel.Staged.stage (fun () ->
      ignore (Sim.schedule sim ~delay:1 (fun () -> ()) : Sim.event_id);
      ignore (Sim.step sim : bool))

let bench_series_sample () =
  (* Steady-state sampler tick over a registry shaped like the cluster's:
     a handful of counters, one latency histogram percentile, gauges.
     Includes the occasional decimation pass, so this is the amortised
     per-tick cost the sim-clock timer pays. *)
  let reg = Obs.Registry.create () in
  let s = Obs.Series.create ~capacity:512 ~registry:reg () in
  let counters =
    List.init 8 (fun i ->
        let name = Printf.sprintf "bench_c%d" i in
        let c = Obs.Registry.counter reg name in
        Obs.Series.track_counter s name;
        c)
  in
  let h = Obs.Registry.histogram reg "bench_lat_ns" in
  Obs.Series.track_histogram s ~pct:99. "bench_lat_ns";
  let g = Obs.Registry.gauge reg "bench_gauge" in
  Obs.Series.track_gauge s "bench_gauge";
  let at = ref 0 in
  Bechamel.Staged.stage (fun () ->
      List.iter incr counters;
      Histogram.record h (at.contents land 0xffff);
      g := float_of_int !at;
      at := !at + 1_000_000;
      Obs.Series.sample s ~at:!at)

let bench_health_sample () =
  (* Steady-state cluster-health probe on 2 PGs: nothing changes between
     calls, so every call hits the per-PG margin memo and times the memo
     check (membership identity, live set) plus the ack-current counts and
     volume gaps.  The subset enumeration runs only on a miss. *)
  let cluster =
    Harness.Cluster.create { Harness.Cluster.default_config with seed = 3 }
  in
  Sim.run_until (Harness.Cluster.sim cluster) (Time_ns.ms 100);
  let at = ref (Sim.now (Harness.Cluster.sim cluster)) in
  Bechamel.Staged.stage (fun () ->
      incr at;
      ignore (Harness.Cluster.health_sample cluster ~at:!at : Obs.Health.sample))

let bench_zipf () =
  let z = Workload.Zipf.create ~n:100_000 ~theta:0.99 in
  let rng = Rng.create 7 in
  Bechamel.Staged.stage (fun () -> ignore (Workload.Zipf.sample z rng : int))

(* Run the suite and return OLS ns/op estimates, one row per benchmark, in
   declaration order.  Printing and the JSON report both consume this. *)
let micro_estimates () =
  let open Bechamel in
  let open Toolkit in
  let tests =
    [
      Test.make ~name:"consistency: submit+4acks -> VCL" (bench_consistency ());
      Test.make ~name:"quorum-set: tiered write eval" (bench_quorum_eval ());
      Test.make ~name:"quorum-set: full overlap proof" (bench_quorum_overlap ());
      Test.make ~name:"hot-log: insert + SCL advance" (bench_hot_log ());
      Test.make ~name:"block-store: apply put" (bench_block_store_apply ());
      Test.make ~name:"histogram: record" (bench_histogram ());
      Test.make ~name:"sim: schedule + dispatch event" (bench_sim_events ());
      Test.make ~name:"series: sampler tick (amortised)" (bench_series_sample ());
      Test.make ~name:"health: cluster probe + margins" (bench_health_sample ());
      Test.make ~name:"zipf: sample" (bench_zipf ());
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  List.concat_map
    (fun test ->
      let results = analyze (benchmark test) in
      let rows =
        Hashtbl.fold
          (fun name ols acc ->
            match Bechamel.Analyze.OLS.estimates ols with
            | Some [ est ] -> (name, Some est) :: acc
            | Some _ | None -> (name, None) :: acc)
          results []
      in
      (* One entry per test; sort for determinism if bechamel ever returns
         several. *)
      List.sort (fun (a, _) (b, _) -> String.compare a b) rows)
    tests

let run_micro () =
  Printf.printf "\n== Bechamel micro-benchmarks (ns/op) ==\n%!";
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "%-40s %12.1f ns/op\n%!" name est
      | None -> Printf.printf "%-40s (no estimate)\n%!" name)
    (micro_estimates ())

(* ---- the BENCH_*.json performance report ---- *)

(* End-to-end reference scenario: the same open-loop transaction mix the
   CLI's smoke command drives, with perf probes enabled and GC accounting
   around the whole run.  The probes live outside sim state, so the run's
   simulated behaviour is byte-identical with or without them. *)
let run_reference_scenario ~seed ~txns ~pgs ~rate () =
  Perf.Probe.reset ();
  Perf.Probe.enable ();
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let t0 = Perf.Clock.now_ns () in
  let cluster =
    Harness.Cluster.create
      { Harness.Cluster.default_config with seed; n_pgs = pgs }
  in
  let sim = Harness.Cluster.sim cluster in
  Perf.Probe.install_sim sim;
  let gen =
    Workload.Txn_gen.create ~sim
      ~rng:(Rng.create (seed + 1))
      ~db:(Harness.Cluster.db cluster)
      ~profile:Workload.Txn_gen.default_profile ()
  in
  (* Offered-load window sized so [rate] yields ~[txns] transactions. *)
  let duration = Time_ns.of_float_us (float_of_int txns /. rate *. 1e6) in
  Workload.Txn_gen.run_open_loop gen ~rate_per_sec:rate ~duration;
  Sim.run_until sim (Time_ns.add duration (Time_ns.sec 2));
  let wall_ns = Perf.Clock.elapsed_ns ~since:t0 in
  let g1 = Gc.quick_stat () in
  Perf.Probe.disable ();
  Sim.set_probe sim None;
  let st = Sim.stats sim in
  let commits = Workload.Txn_gen.acked gen in
  let per_commit w = if commits = 0 then 0. else w /. float_of_int commits in
  let wall_s = float_of_int wall_ns /. 1e9 in
  {
    Perf.Bench_report.commits_acked = commits;
    sim_duration_ns = Sim.now sim;
    commits_per_sec_sim =
      (let s = Time_ns.to_float_s duration in
       if s = 0. then 0. else float_of_int commits /. s);
    events_processed = st.Sim.processed;
    wall_ns;
    events_per_sec_wall =
      (if wall_s = 0. then 0. else float_of_int st.Sim.processed /. wall_s);
    gc =
      {
        Perf.Bench_report.minor_words_per_commit =
          per_commit (g1.Gc.minor_words -. g0.Gc.minor_words);
        major_words_per_commit =
          per_commit (g1.Gc.major_words -. g0.Gc.major_words);
        promoted_words_per_commit =
          per_commit (g1.Gc.promoted_words -. g0.Gc.promoted_words);
        top_heap_words = g1.Gc.top_heap_words;
      };
    subsystems =
      List.map
        (fun (name, (s : Perf.Probe.stat)) ->
          {
            Perf.Bench_report.subsystem = name;
            calls = s.Perf.Probe.calls;
            wall_ns = s.Perf.Probe.wall_ns;
            minor_words = s.Perf.Probe.minor_words;
          })
        (Perf.Probe.stats ());
  }

let bench_id_of_path out =
  let base = Filename.basename out in
  match Filename.chop_suffix_opt ~suffix:".json" base with
  | Some id -> id
  | None -> base

let run_report ~out ~seed ~txns ~pgs ~rate ~with_micro () =
  let scenario_measured = run_reference_scenario ~seed ~txns ~pgs ~rate () in
  let micro =
    if with_micro then
      List.filter_map
        (fun (name, est) ->
          match est with
          | Some ns_per_op -> Some { Perf.Bench_report.bench_name = name; ns_per_op }
          | None -> None)
        (micro_estimates ())
    else []
  in
  let report =
    {
      Perf.Bench_report.meta =
        {
          Perf.Bench_report.bench_id = bench_id_of_path out;
          git_sha =
            (match Sys.getenv_opt "AURORA_GIT_SHA" with
            | Some sha when sha <> "" -> sha
            | _ -> "unknown");
          ocaml_version = Sys.ocaml_version;
          scenario = { Perf.Bench_report.txns; pgs; seed; rate_per_sec = rate };
        };
      scenario_measured;
      micro;
    }
  in
  Perf.Bench_report.write ~path:out report;
  Printf.printf
    "wrote %s (commits=%d, %.0f commits/sec sim, %.0f events/sec wall, %.0f \
     minor words/commit)\n"
    out scenario_measured.Perf.Bench_report.commits_acked
    scenario_measured.Perf.Bench_report.commits_per_sec_sim
    scenario_measured.Perf.Bench_report.events_per_sec_wall
    scenario_measured.Perf.Bench_report.gc
      .Perf.Bench_report.minor_words_per_commit

let report_usage =
  "usage: main.exe report [--out FILE] [--seed N] [--txns N] [--pgs N] \
   [--rate R] [--tiny] [--no-micro]\n"

let run_report_mode args =
  let out = ref "BENCH_report.json" in
  let seed = ref 7 in
  let txns = ref 2000 in
  let pgs = ref 2 in
  let rate = ref 2000. in
  let with_micro = ref true in
  let bad flag v =
    Printf.eprintf "report: %s: invalid value %S\n%s" flag v report_usage;
    exit 2
  in
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> bad flag v
  in
  let rec parse = function
    | [] -> ()
    | "--out" :: v :: rest ->
      out := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_arg "--seed" v;
      parse rest
    | "--txns" :: v :: rest ->
      txns := int_arg "--txns" v;
      parse rest
    | "--pgs" :: v :: rest ->
      pgs := int_arg "--pgs" v;
      if !pgs < 1 then bad "--pgs" v;
      parse rest
    | "--rate" :: v :: rest ->
      (match float_of_string_opt v with
      | Some r -> rate := r
      | None -> bad "--rate" v);
      parse rest
    | "--tiny" :: rest ->
      (* Smoke-scale: exercise the writer end-to-end in well under a
         second, no timing assertions anywhere downstream. *)
      txns := 50;
      with_micro := false;
      parse rest
    | "--no-micro" :: rest ->
      with_micro := false;
      parse rest
    | other :: _ ->
      Printf.eprintf "report: unknown argument %S\n%s" other report_usage;
      exit 2
  in
  parse args;
  run_report ~out:!out ~seed:!seed ~txns:!txns ~pgs:!pgs ~rate:!rate
    ~with_micro:!with_micro ()

let () =
  let argv = Array.to_list Sys.argv in
  match argv with
  | _ :: "report" :: args -> run_report_mode args
  | [ _ ] | [ _; "all" ] ->
    run_experiments ();
    run_micro ()
  | [ _; "experiments" ] -> run_experiments ()
  | [ _; "micro" ] -> run_micro ()
  | _ :: other :: _ ->
    Printf.eprintf
      "unknown mode %S (use: experiments | micro | all | report)\n" other;
    exit 1
  | [] -> ()
