(* One repetition of the vopr swarm: for each seed, the curated scenario the
   swarm assigns it plus that seed's nemesis schedule, with checkers and the
   flight recorder on — the loop `aurora_cli vopr swarm --nemesis` runs.

   Runs go through [Vopr.Runner.run] directly, in [Vopr.Swarm.run]'s order,
   because the benchmark needs each run's acknowledged-commit count; the
   swarm's shrink-on-failure step is diagnosis, and a failing run fails the
   benchmark anyway. *)

(* Seeds 1..[seeds], exactly `aurora_cli vopr swarm --seeds <seeds>
   --nemesis`.  The sweep's seeds are part of its definition, so the
   benchmark seed does not move them: with other seeds both the peak heap
   and the fault work per commit vary by several percent with the schedules
   drawn, which would swamp the speed this workload is there to measure. *)
let plan ~seeds =
  let curated = Array.of_list Vopr.Curated.all in
  List.concat
    (List.init seeds (fun i ->
         let s = i + 1 in
         [ (s, curated.(i mod Array.length curated)); (s, Vopr.Swarm.generate ~seed:s) ]))

let median_s l =
  let a = Array.of_list l in
  Array.sort Int.compare a;
  if Array.length a = 0 then 0. else float_of_int a.(Array.length a / 2) /. 1e9

let run ~traced ~seeds =
  (* Set-up: build the schedules, then one warm-up run (the first of the
     plan) so the measured runs start from a grown heap. *)
  let setup = Calib.create () in
  let plan =
    Calib.time setup (fun () ->
        let plan = plan ~seeds in
        (match plan with
        | (s, sc) :: _ -> ignore (Vopr.Runner.run ~seed:s sc : Vopr.Runner.outcome)
        | [] -> ());
        plan)
  in
  let setup_s = setup.Calib.ref_ns /. 1e9 in
  if traced then begin
    Perf.Probe.reset ();
    Perf.Probe.enable ()
  end;
  (* One calibration slice per run: the runner builds its own cluster, so
     a run cannot be cut finer from outside. *)
  let window = Calib.create () in
  let gc0 = Gc.quick_stat () in
  let outcomes =
    List.map
      (fun (s, sc) ->
        Calib.time window (fun () ->
            let r0 = Clock.now_ns () in
            let o = Vopr.Runner.run ~seed:s sc in
            (o, Clock.now_ns () - r0)))
      plan
  in
  let window_wall = window.Calib.wall_ns in
  let gc1 = Gc.quick_stat () in
  (* Only the probe spans are available here: each run builds its own
     cluster inside the runner, out of reach of the sim and network hooks. *)
  Perf.Probe.disable ();
  let acked = List.fold_left (fun acc (o, _) -> acc + o.Vopr.Runner.acked) 0 outcomes in
  let failed = List.length (List.filter (fun (o, _) -> Vopr.Runner.failed o) outcomes) in
  let times = List.map snd outcomes in
  let metrics =
    ("window_ref_ns", window.Calib.ref_ns)
    ::
    (if traced then Tracer.probe_rows ()
     else
       [
         ("ns_per_commit", window.Calib.ref_ns /. float_of_int (max 1 acked));
         ("setup_s", setup_s);
         ("peak_heap_mb", Cluster_bench.peak_heap_mb ());
         ("wall_ns_per_commit", float_of_int window_wall /. float_of_int (max 1 acked));
         ("host.slowdown", Calib.median_slowdown [ setup; window ]);
         ("swarm.runs", float_of_int (List.length outcomes));
         ("swarm.run_s_p50", median_s times);
         ("swarm.run_s_max", float_of_int (List.fold_left max 0 times) /. 1e9);
         ("swarm.seeds_per_min", float_of_int seeds /. (float_of_int window_wall /. 60e9));
       ]
       @ Cluster_bench.gc_rows gc0 gc1 ~commits:acked)
  in
  {
    Cluster_bench.correct = failed = 0 && acked > 0;
    attempted = List.length outcomes;
    failed;
    metrics;
  }
