(* aurora-cli: run the paper's experiments and demo scenarios from the
   command line.

     dune exec bin/aurora_cli.exe -- exp e6 --seed 7
     dune exec bin/aurora_cli.exe -- exp all
     dune exec bin/aurora_cli.exe -- smoke --txns 2000 --pgs 4
     dune exec bin/aurora_cli.exe -- obs --json --trace-tail 20
     dune exec bin/aurora_cli.exe -- obs --series --window 25
     dune exec bin/aurora_cli.exe -- trace-export --out trace.json *)

open Cmdliner
module E = Harness.Experiments
module Artifact = Recorder.Artifact
module Correlate = Recorder.Correlate
module Event = Recorder.Event

let print r = Harness.Report.print r

let run_experiment name seed =
  match String.lowercase_ascii name with
  | "e1" -> print (E.E1.report (E.E1.run ~seed ()))
  | "e2" -> print (E.E2.report (E.E2.run ~seed ()))
  | "e3" -> print (E.E3.report (E.E3.run ()))
  | "e4" -> print (E.E4.report (E.E4.run ~seed ()))
  | "e5" -> print (E.E5.report (E.E5.run ~seed ()))
  | "e6" -> print (E.E6.report (E.E6.run ~seed ()))
  | "e7" -> print (E.E7.report (E.E7.run ~seed ()))
  | "e8" -> print (E.E8.report (E.E8.run ~seed ()))
  | "e9" -> print (E.E9.report (E.E9.run ~seed ()))
  | "e10" -> print (E.E10.report (E.E10.run ~seed ()))
  | "a1" -> print (E.Ablations.hedge_report (E.Ablations.hedge_sweep ~seed ()))
  | "a2" -> print (E.Ablations.gossip_report (E.Ablations.gossip_sweep ~seed ()))
  | "all" -> print_string (E.run_all ~seed ())
  | other ->
    Printf.eprintf "unknown experiment %S (e1..e10 or all)\n" other;
    exit 1

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let exp_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id: e1..e10, a1/a2 (ablations), or 'all'.")
  in
  Cmd.v
    (Cmd.info "exp"
       ~doc:"Regenerate a figure/claim of the paper (see DESIGN.md \xc2\xa74)")
    Term.(const run_experiment $ name_arg $ seed_arg)

(* Shared smoke workload: an open-loop transaction mix against a default
   cluster, run to quiescence.  [tracing] arms the flight recorder before
   the cluster registers its nodes, so every ring exists from the start. *)
let run_workload ?window_ms ~txns ~pgs ~seed ~tracing () =
  let open Simcore in
  if tracing then Recorder.Rings.enable ();
  let cluster =
    Harness.Cluster.create
      {
        Harness.Cluster.default_config with
        seed;
        n_pgs = pgs;
        obs_sample_period =
          (match window_ms with
          | Some ms -> Time_ns.ms ms
          | None -> Harness.Cluster.default_config.Harness.Cluster.obs_sample_period);
      }
  in
  let sim = Harness.Cluster.sim cluster in
  let gen =
    Workload.Txn_gen.create ~sim ~rng:(Rng.create (seed + 1))
      ~db:(Harness.Cluster.db cluster)
      ~profile:Workload.Txn_gen.default_profile ()
  in
  Workload.Txn_gen.run_open_loop gen ~rate_per_sec:2000.
    ~duration:(Time_ns.us (txns * 500));
  Sim.run_until sim (Time_ns.add (Time_ns.us (txns * 500)) (Time_ns.sec 2));
  (cluster, gen)

let print_snapshot ~json cluster ~where ~trace_tail =
  let open Simcore in
  let obs = Harness.Cluster.obs cluster in
  let where = match where with [] -> None | w -> Some w in
  let snap =
    Obs.Ctx.snapshot_at ~at:(Sim.now (Harness.Cluster.sim cluster)) ?where obs
  in
  (* The last [n] recorder entries, merged across nodes, plus the total. *)
  let trace =
    Option.map
      (fun n ->
        let es = Correlate.entries (Recorder.Rings.snapshot ()) in
        let total = List.length es in
        (total, List.filteri (fun i _ -> i >= total - n) es))
      trace_tail
  in
  if json then
    let snap =
      match (snap, trace) with
      | Obs.Json.Obj fields, Some (_, es) ->
        Obs.Json.Obj (fields @ [ ("trace", Correlate.to_json es) ])
      | _ -> snap
    in
    print_endline (Obs.Json.to_string ~pretty:true snap)
  else begin
    (match snap with
    | Obs.Json.Obj fields -> (
      match List.assoc_opt "instruments" fields with
      | Some (Obs.Json.List instruments) ->
        List.iter
          (fun inst ->
            match inst with
            | Obs.Json.Obj f ->
              let str k =
                match List.assoc_opt k f with
                | Some (Obs.Json.String s) -> s
                | _ -> ""
              in
              let labels =
                match List.assoc_opt "labels" f with
                | Some (Obs.Json.Obj l) ->
                  if l = [] then ""
                  else
                    "{"
                    ^ String.concat ","
                        (List.map
                           (fun (k, v) ->
                             match v with
                             | Obs.Json.String s -> k ^ "=" ^ s
                             | j -> k ^ "=" ^ Obs.Json.to_string j)
                           l)
                    ^ "}"
                | _ -> ""
              in
              let num k =
                match List.assoc_opt k f with
                | Some j -> Obs.Json.to_string j
                | None -> "-"
              in
              if str "type" = "histogram" then
                let h k =
                  match List.assoc_opt "histogram" f with
                  | Some (Obs.Json.Obj hf) -> (
                    match List.assoc_opt k hf with
                    | Some j -> Obs.Json.to_string j
                    | None -> "-")
                  | _ -> "-"
                in
                Printf.printf "%s%s  count=%s mean=%s p50=%s p99=%s max=%s\n"
                  (str "name") labels (h "count") (h "mean") (h "p50")
                  (h "p99") (h "max")
              else
                Printf.printf "%s%s = %s\n" (str "name") labels (num "value")
            | _ -> ())
          instruments
      | _ -> ())
    | _ -> ());
    match trace with
    | None -> ()
    | Some (total, es) ->
      Printf.printf "-- flight recorder (last %d of %d events) --\n"
        (List.length es) total;
      List.iter (fun e -> print_endline (Correlate.render_entry e)) es
  end

(* Time-series table: one row per retained sample (down-sampled to ~40
   rows), one column per channel, with a legend mapping short column ids to
   channel labels. *)
let print_series cluster =
  let open Simcore in
  let series = Obs.Ctx.series (Harness.Cluster.obs cluster) in
  let labels = Obs.Series.channel_labels series in
  let ts = Obs.Series.timestamps series in
  let n = Array.length ts in
  Printf.printf "-- time series: %d samples, %d channels, stride %d --\n" n
    (List.length labels) (Obs.Series.stride series);
  List.iteri (fun i l -> Printf.printf "  c%-2d = %s\n" (i + 1) l) labels;
  let cols =
    List.map
      (fun l ->
        match Obs.Series.points series l with
        | Some pts -> pts
        | None -> [||])
      labels
  in
  Printf.printf "%12s" "t";
  List.iteri (fun i _ -> Printf.printf " %10s" (Printf.sprintf "c%d" (i + 1))) labels;
  print_newline ();
  let step = max 1 (n / 40) in
  for i = 0 to n - 1 do
    if i mod step = 0 || i = n - 1 then begin
      Printf.printf "%12s" (Time_ns.to_string ts.(i));
      List.iter
        (fun pts ->
          let v = pts.(i) in
          if Float.is_nan v then Printf.printf " %10s" "-"
          else Printf.printf " %10.4g" v)
        cols;
      print_newline ()
    end
  done

let run_smoke txns pgs seed json =
  let open Simcore in
  let module Database = Aurora_core.Database in
  let cluster, gen = run_workload ~txns ~pgs ~seed ~tracing:false () in
  if json then print_snapshot ~json:true cluster ~where:[] ~trace_tail:None
  else begin
    let db = Harness.Cluster.db cluster in
    let m = Database.metrics db in
    Printf.printf "txns: issued=%d acked=%d failed=%d\n"
      (Workload.Txn_gen.issued gen)
      (Workload.Txn_gen.acked gen)
      (Workload.Txn_gen.failed gen);
    Printf.printf "commit latency: p50=%s p99=%s\n"
      (Time_ns.to_string (Histogram.percentile m.Database.commit_latency 50.))
      (Time_ns.to_string (Histogram.percentile m.Database.commit_latency 99.));
    Printf.printf "reads: cache hits=%d storage=%d\n" m.Database.cache_hit_reads
      m.Database.storage_reads;
    Printf.printf "VCL=%d VDL=%d records=%d\n"
      (Wal.Lsn.to_int (Database.vcl db))
      (Wal.Lsn.to_int (Database.vdl db))
      m.Database.records_written;
    let st = Simnet.Net.stats (Harness.Cluster.net cluster) in
    Printf.printf "network: sent=%d delivered=%d bytes=%d\n" st.Simnet.Net.sent
      st.Simnet.Net.delivered st.Simnet.Net.bytes_sent
  end

(* Range-checked integer options: a bad value exits 124 with a message
   instead of surfacing later as an uncaught exception (a volume needs at
   least one protection group), a sampler that reschedules at the same
   instant forever (a zero window), or a vacuous pass (a swarm of zero
   seeds). *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1
let non_negative_int = int_at_least 0

let txns_arg =
  Arg.(
    value & opt non_negative_int 1000
    & info [ "txns" ] ~doc:"Transactions (at least 0).")

let pgs_arg =
  Arg.(value & opt positive_int 2 & info [ "pgs" ] ~doc:"Protection groups (at least 1).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the metrics snapshot as JSON.")

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke" ~doc:"Run a quick cluster workload and print metrics")
    Term.(const run_smoke $ txns_arg $ pgs_arg $ seed_arg $ json_arg)

let run_obs txns pgs seed json trace_tail pg az series window_ms =
  let cluster, _gen = run_workload ?window_ms ~txns ~pgs ~seed ~tracing:true () in
  let where =
    (match pg with Some p -> [ ("pg", string_of_int p) ] | None -> [])
    @ (match az with Some a -> [ ("az", a) ] | None -> [])
  in
  let trace_tail = if trace_tail > 0 then Some trace_tail else None in
  print_snapshot ~json cluster ~where ~trace_tail;
  if series && not json then print_series cluster

let window_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "window" ] ~docv:"MS"
        ~doc:
          "Sampling window (observability sampler period) in milliseconds \
           (at least 1).")

let obs_cmd =
  let trace_tail =
    Arg.(
      value & opt non_negative_int 0
      & info [ "trace-tail" ] ~docv:"N"
          ~doc:
            "Include the last N flight-recorder events, merged across nodes \
             (0, the default, includes none).")
  in
  let pg =
    Arg.(
      value
      & opt (some int) None
      & info [ "pg" ] ~docv:"PG"
          ~doc:"Keep only instruments of this protection group (plus globals).")
  in
  let az =
    Arg.(
      value
      & opt (some string) None
      & info [ "az" ] ~docv:"AZ"
          ~doc:"Keep only instruments of this availability zone, e.g. az1 \
                (plus globals).")
  in
  let series =
    Arg.(
      value & flag
      & info [ "series" ]
          ~doc:
            "Print the sampled time series (throughput rates, commit-latency \
             percentiles, health gauges) as a table.  With $(b,--json) the \
             series is embedded in the snapshot instead.")
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Run the smoke workload with the flight recorder enabled and print \
          the observability snapshot")
    Term.(
      const run_obs $ txns_arg $ pgs_arg $ seed_arg $ json_arg $ trace_tail
      $ pg $ az $ series $ window_arg)

let run_trace_export txns pgs seed window_ms out =
  let cluster, _gen = run_workload ?window_ms ~txns ~pgs ~seed ~tracing:true () in
  let snapshot = Recorder.Rings.snapshot () in
  let json = Recorder.Chrome_export.to_string (Harness.Cluster.obs cluster) snapshot in
  Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc json);
  let evicted = List.fold_left (fun n r -> n + r.Recorder.Rings.evicted) 0 snapshot.nodes in
  Printf.printf "wrote %s (%d recorder events, %d evicted; open in Perfetto or \
                 chrome://tracing)\n"
    out (List.length (Correlate.entries snapshot)) evicted

let trace_export_cmd =
  let out =
    Arg.(
      value
      & opt string "aurora-trace.json"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "trace-export"
       ~doc:
         "Run the smoke workload with the flight recorder enabled and write \
          the commit-path timelines plus recorder events as Chrome \
          trace-event JSON")
    Term.(
      const run_trace_export $ txns_arg $ pgs_arg $ seed_arg $ window_arg $ out)

(* ---- vopr: table-driven fault scenarios, seed swarm, repro ---- *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | src -> src
  | exception Sys_error e ->
    Printf.eprintf "vopr: cannot read %s: %s\n" path e;
    exit 2

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let parse_scenario path =
  match Vopr.Scenario.of_string (read_file path) with
  | Ok sc -> sc
  | Error e ->
    Printf.eprintf "vopr: %s: %s\n" path e;
    exit 2

let load_scenario ~name ~file ~nemesis ~seed =
  match (name, file, nemesis) with
  | Some name, None, false -> (
    match Vopr.Curated.find name with
    | Some sc -> sc
    | None ->
      Printf.eprintf "vopr: unknown scenario %S (try 'vopr list')\n" name;
      exit 2)
  | None, Some path, false -> parse_scenario path
  | None, None, true -> Vopr.Swarm.generate ~seed
  | None, None, false ->
    Printf.eprintf "vopr: one of --scenario, --file or --nemesis is required\n";
    exit 2
  | _ ->
    Printf.eprintf "vopr: --scenario, --file and --nemesis are exclusive\n";
    exit 2

let print_violations (o : Vopr.Runner.outcome) =
  List.iter
    (fun (v : Vopr.Checker.violation) ->
      Printf.printf "  VIOLATION [%s] at %s: %s\n" v.checker
        (Simcore.Time_ns.to_string v.at)
        v.detail)
    o.violations;
  if o.total_violations > List.length o.violations then
    Printf.printf "  ... and %d more occurrence(s)\n"
      (o.total_violations - List.length o.violations)

let run_vopr_list () =
  List.iter
    (fun (sc : Vopr.Scenario.t) ->
      Printf.printf "%-32s %d step(s), %d pg(s), %d replica(s)\n" sc.name
        (List.length sc.steps) sc.n_pgs sc.replicas)
    Vopr.Curated.all

let run_vopr_show name =
  match Vopr.Curated.find name with
  | Some sc -> print_string (Vopr.Scenario.to_string sc)
  | None ->
    Printf.eprintf "vopr: unknown scenario %S (try 'vopr list')\n" name;
    exit 2

let run_vopr_run name file nemesis seed =
  let sc = load_scenario ~name ~file ~nemesis ~seed in
  let o = Vopr.Runner.run ~seed sc in
  print_endline (Vopr.Runner.digest o);
  if Vopr.Runner.failed o then begin
    print_violations o;
    exit 1
  end

let run_vopr_repro file seed =
  (* Nothing but the digest on stdout: two repro invocations of the same
     (file, seed) must compare byte-for-byte. *)
  let sc = parse_scenario file in
  let o = Vopr.Runner.run ~seed sc in
  print_endline (Vopr.Runner.digest o);
  if Vopr.Runner.failed o then exit 1

let report_swarm_failures (failures : Vopr.Swarm.failure list) =
  List.iter
    (fun (f : Vopr.Swarm.failure) ->
      let path = Printf.sprintf "vopr-repro-%s-seed%d.scn" f.shrunk.name f.seed in
      write_file path (Vopr.Scenario.to_string f.shrunk);
      Printf.printf
        "FAIL seed=%d scenario=%s: %d violation(s), shrunk %d -> %d step(s)\n"
        f.seed f.scenario.name f.outcome.total_violations
        (List.length f.scenario.steps)
        (List.length f.shrunk.steps);
      print_violations f.outcome;
      Printf.printf "  wrote %s\n  repro: aurora_cli vopr repro --file %s --seed %d\n"
        path path f.seed;
      (* The shrunk run's flight-recorder snapshot rides along with the
         repro, so the failure can be explained without re-running it. *)
      match f.outcome.recorder with
      | None -> ()
      | Some artifact ->
        let rpath =
          Printf.sprintf "vopr-repro-%s-seed%d.recorder.json" f.shrunk.name
            f.seed
        in
        write_file rpath (Recorder.Artifact.to_string artifact);
        Printf.printf
          "  wrote %s (flight recorder; try: aurora_cli explain --artifact %s \
           <lsn>)\n"
          rpath rpath)
    failures

let run_vopr_swarm seeds seed0 nemesis quiet =
  let cfg =
    {
      Vopr.Swarm.seeds;
      first_seed = seed0;
      scenarios = Vopr.Curated.all;
      nemesis;
    }
  in
  let progress ~done_ ~total =
    if (not quiet) && (done_ mod 50 = 0 || done_ = total) then
      Printf.printf "  %d/%d runs\n%!" done_ total
  in
  let r = Vopr.Swarm.run ~progress cfg in
  report_swarm_failures r.failures;
  Printf.printf "swarm: %d run(s) over %d curated scenario(s)%s, %d failure(s)\n"
    r.runs
    (List.length Vopr.Curated.all)
    (if nemesis then " + nemesis schedules" else "")
    (List.length r.failures);
  if r.failures <> [] then exit 1

let run_vopr_smoke () =
  let failures = ref 0 in
  let quick =
    [ "membership-dance"; "writer-crash-recovery"; "az-outage-az-plus-one" ]
  in
  List.iter
    (fun name ->
      match Vopr.Curated.find name with
      | None -> assert false
      | Some sc ->
        let o = Vopr.Runner.run ~seed:1 sc in
        Printf.printf "%-32s %s\n%!" sc.name
          (if Vopr.Runner.failed o then "FAIL" else "ok");
        if Vopr.Runner.failed o then begin
          print_violations o;
          incr failures
        end)
    quick;
  (* Determinism guard: the same (scenario, seed) must produce the same
     digest bytes. *)
  (match Vopr.Curated.find "membership-dance" with
  | None -> assert false
  | Some sc ->
    let d1 = Vopr.Runner.digest (Vopr.Runner.run ~seed:3 sc) in
    let d2 = Vopr.Runner.digest (Vopr.Runner.run ~seed:3 sc) in
    if not (String.equal d1 d2) then begin
      Printf.printf "FAIL: digest not deterministic for membership-dance seed 3\n";
      incr failures
    end);
  let r =
    Vopr.Swarm.run
      {
        Vopr.Swarm.seeds = 25;
        first_seed = 1;
        scenarios = Vopr.Curated.all;
        nemesis = true;
      }
  in
  report_swarm_failures r.failures;
  failures := !failures + List.length r.failures;
  Printf.printf "vopr smoke: %d scenario run(s) + %d swarm run(s), %d failure(s)\n"
    (List.length quick + 2) r.runs !failures;
  if !failures > 0 then exit 1

let vopr_scenario_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~docv:"NAME" ~doc:"A curated scenario name.")

let vopr_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "file" ] ~docv:"FILE" ~doc:"A scenario file (vopr text format).")

let vopr_nemesis_flag =
  Arg.(
    value & flag
    & info [ "nemesis" ]
        ~doc:"Run the generated nemesis schedule for $(b,--seed).")

let vopr_list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List the curated scenarios")
    Term.(const run_vopr_list $ const ())

let vopr_show_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Curated scenario name.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a curated scenario in the text format")
    Term.(const run_vopr_show $ name_arg)

let vopr_run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one scenario at one seed under the full checker set; exits 1 \
          on any violation")
    Term.(
      const run_vopr_run $ vopr_scenario_arg $ vopr_file_arg
      $ vopr_nemesis_flag $ seed_arg)

let vopr_repro_cmd =
  let file_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "file" ] ~docv:"FILE" ~doc:"Scenario file to replay.")
  in
  Cmd.v
    (Cmd.info "repro"
       ~doc:
         "Replay a (scenario file, seed) pair and print only the outcome \
          digest — byte-identical across replays")
    Term.(const run_vopr_repro $ file_arg $ seed_arg)

let vopr_swarm_cmd =
  let seeds_arg =
    Arg.(
      value & opt positive_int 100
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep (at least 1).")
  in
  let seed0_arg =
    Arg.(
      value & opt int 1
      & info [ "seed0" ] ~docv:"SEED" ~doc:"First seed of the sweep.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No progress output.")
  in
  Cmd.v
    (Cmd.info "swarm"
       ~doc:
         "Sweep the curated scenarios (and, with $(b,--nemesis), generated \
          schedules) across seeds; failures are shrunk to a minimal step \
          list and written as repro files")
    Term.(
      const run_vopr_swarm $ seeds_arg $ seed0_arg $ vopr_nemesis_flag
      $ quiet_arg)

let vopr_smoke_cmd =
  Cmd.v
    (Cmd.info "smoke"
       ~doc:
         "Quick gate: three curated scenarios, a digest-determinism check, \
          and a 25-seed mini-swarm with nemesis schedules")
    Term.(const run_vopr_smoke $ const ())

let vopr_cmd =
  let default = Term.(const run_vopr_list $ const ()) in
  Cmd.group ~default
    (Cmd.info "vopr"
       ~doc:
         "Table-driven fault scenarios with semantic invariant checkers: \
          run curated tables, sweep seeds, shrink and replay failures \
          (DESIGN.md \xc2\xa77)")
    [
      vopr_list_cmd;
      vopr_show_cmd;
      vopr_run_cmd;
      vopr_repro_cmd;
      vopr_swarm_cmd;
      vopr_smoke_cmd;
    ]

(* ---- flight recorder: explain / dump / grep / smoke ---- *)

(* Artifact source shared by explain/dump/grep: a .recorder.json written by
   a failed swarm run, or a live deterministic re-run of a scenario with
   [record_always] so clean runs are explainable too. *)
let load_artifact ~artifact ~name ~file ~nemesis ~seed =
  match artifact with
  | Some path -> (
    match Artifact.of_string (read_file path) with
    | Ok a -> a
    | Error e ->
      Printf.eprintf "recorder: %s: %s\n" path e;
      exit 2)
  | None -> (
    let sc = load_scenario ~name ~file ~nemesis ~seed in
    let o = Vopr.Runner.run ~seed ~record_always:true sc in
    match o.recorder with
    | Some a -> a
    | None ->
      Printf.eprintf "recorder: run produced no artifact\n";
      exit 2)

let run_explain target artifact name file nemesis seed json =
  let target =
    match Artifact.target_of_string target with
    | Ok t -> t
    | Error e ->
      Printf.eprintf "explain: %s\n" e;
      exit 2
  in
  let a = load_artifact ~artifact ~name ~file ~nemesis ~seed in
  if json then
    print_endline (Obs.Json.to_string ~pretty:true (Artifact.explain_json a target))
  else print_string (Artifact.explain a target)

let artifact_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "artifact" ] ~docv:"FILE"
        ~doc:
          "A $(b,.recorder.json) repro artifact (as written by a failed \
           swarm run).  Without it, the scenario selected by \
           $(b,--scenario)/$(b,--file)/$(b,--nemesis) is re-run at \
           $(b,--seed) with the recorder armed.")

let target_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TARGET"
        ~doc:
          "What to explain: an LSN ($(b,400) or $(b,lsn:400)), a \
           transaction ($(b,txn:17)), or a protection group ($(b,pg:0)).")

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Reconstruct the causal cross-node timeline of an LSN, txn, or \
          protection group from flight-recorder rings: sends, receives, \
          drops with their cause, SCL/VCL/VDL advances, and commit events, \
          merged across nodes in sim-time order")
    Term.(
      const run_explain $ target_arg $ artifact_arg $ vopr_scenario_arg
      $ vopr_file_arg $ vopr_nemesis_flag $ seed_arg $ json_arg)

let run_recorder_dump artifact name file nemesis seed =
  let a = load_artifact ~artifact ~name ~file ~nemesis ~seed in
  print_string (Artifact.to_string a)

let run_recorder_grep pattern artifact name file nemesis seed =
  let a = load_artifact ~artifact ~name ~file ~nemesis ~seed in
  let contains line =
    let nh = String.length line and nn = String.length pattern in
    let rec go i =
      i + nn <= nh && (String.sub line i nn = pattern || go (i + 1))
    in
    nn = 0 || go 0
  in
  List.iter
    (fun e ->
      let line = Correlate.render_entry e in
      if contains line then print_endline line)
    (Correlate.entries a.Artifact.snapshot)

(* The recorder gate behind @recorder-smoke: force a curated scenario to
   fail, shrink it, and check the repro artifact end-to-end — rings
   captured, explain byte-deterministic, and the timeline of a committed
   LSN covering send -> ack -> VCL advance -> commit ack. *)
let run_recorder_smoke () =
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.printf "FAIL: %s\n" m;
        incr failures)
      fmt
  in
  let base =
    match Vopr.Curated.find "writer-crash-recovery" with
    | Some sc -> sc
    | None -> assert false
  in
  (* An epoch floor no run can reach: deterministic "expectation" failure
     without disturbing the scenario's fault schedule. *)
  let poisoned =
    {
      base with
      Vopr.Scenario.steps =
        base.Vopr.Scenario.steps
        @ [
            Vopr.Scenario.step
              (Vopr.Scenario.at_ms base.Vopr.Scenario.duration_ms)
              Vopr.Scenario.Noop
              ~expect:[ Vopr.Scenario.Epoch_at_least (0, 999) ];
          ];
    }
  in
  (match Vopr.Shrink.minimize ~run:(fun sc -> Vopr.Runner.run ~seed:1 sc) poisoned with
  | None -> fail "poisoned writer-crash-recovery did not fail"
  | Some (shrunk, out) -> (
    match out.Vopr.Runner.recorder with
    | None -> fail "shrunk failing outcome carries no recorder artifact"
    | Some artifact ->
      let rings = artifact.Artifact.snapshot.Recorder.Rings.nodes in
      let events =
        List.fold_left
          (fun acc (r : Recorder.Rings.node_ring) ->
            acc + List.length r.Recorder.Rings.events)
          0 rings
      in
      if rings = [] || events = 0 then
        fail "repro artifact has empty recorder rings";
      if artifact.Artifact.net = None then
        fail "repro artifact has no net counters";
      (* Explain a committed LSN from two independent replays of the shrunk
         table: byte-identical output, full write-path coverage. *)
      let o1 = Vopr.Runner.run ~seed:1 ~record_always:true shrunk in
      let o2 = Vopr.Runner.run ~seed:1 ~record_always:true shrunk in
      (match (o1.Vopr.Runner.recorder, o2.Vopr.Runner.recorder) with
      | Some a1, Some a2 -> (
        (* The newest commit in the ring: the bounded rings may have
           evicted the write path of early commits, but the latest one's
           send/ack/advance events are all inside the retained window. *)
        let commit_scn =
          List.fold_left
            (fun acc (e : Correlate.entry) ->
              match e.Correlate.event with
              | Event.Commit_ack { scn; _ } -> Some scn
              | _ -> acc)
            None
            (Correlate.entries a1.Artifact.snapshot)
        in
        match commit_scn with
        | None -> fail "no commit ack recorded in the shrunk run"
        | Some lsn ->
          let t = Artifact.Lsn lsn in
          let x1 = Artifact.explain a1 t and x2 = Artifact.explain a2 t in
          if not (String.equal x1 x2) then
            fail "explain lsn:%d not byte-deterministic across replays" lsn;
          let timeline = Artifact.timeline a1 t in
          let has p = List.exists (fun (e : Correlate.entry) -> p e.Correlate.event) timeline in
          if not (has (function Event.Send { kind = Event.Write_batch; _ } -> true | _ -> false))
          then fail "lsn:%d timeline misses the Write_batch send" lsn;
          if
            not
              (has (function
                | Event.Send { kind = Event.Write_ack; _ }
                | Event.Receive { kind = Event.Write_ack; _ } -> true
                | _ -> false))
          then fail "lsn:%d timeline misses the write ack" lsn;
          if not (has (function Event.Vcl_advance _ -> true | _ -> false)) then
            fail "lsn:%d timeline misses the VCL advance" lsn;
          if not (has (function Event.Commit_ack _ -> true | _ -> false)) then
            fail "lsn:%d timeline misses the commit ack" lsn;
          Printf.printf
            "explain lsn:%d: %d timeline event(s), byte-stable across \
             replays\n"
            lsn (List.length timeline))
      | _ -> fail "record_always replay produced no artifact")));
  (* A clean curated run must also produce a usable live artifact. *)
  (match Vopr.Curated.find "membership-dance" with
  | None -> assert false
  | Some sc ->
    let o = Vopr.Runner.run ~seed:1 ~record_always:true sc in
    if Vopr.Runner.failed o then fail "membership-dance failed under recorder";
    (match o.Vopr.Runner.recorder with
    | None -> fail "clean run with record_always has no artifact"
    | Some a -> (
      match Artifact.of_string (Artifact.to_string a) with
      | Ok a' ->
        if not (String.equal (Artifact.to_string a') (Artifact.to_string a))
        then fail "artifact JSON does not round-trip byte-stably"
      | Error e -> fail "artifact JSON round-trip: %s" e)));
  Printf.printf "recorder smoke: %d failure(s)\n" !failures;
  if !failures > 0 then exit 1

let recorder_dump_cmd =
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Print the full flight-recorder artifact (per-node rings + net \
          drop-cause and per-link counters) as byte-stable JSON")
    Term.(
      const run_recorder_dump $ artifact_arg $ vopr_scenario_arg
      $ vopr_file_arg $ vopr_nemesis_flag $ seed_arg)

let recorder_grep_cmd =
  let pattern_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATTERN"
          ~doc:"Substring to match against rendered timeline lines.")
  in
  Cmd.v
    (Cmd.info "grep"
       ~doc:
         "Print every recorded event whose rendered line contains PATTERN, \
          merged across nodes in causal order")
    Term.(
      const run_recorder_grep $ pattern_arg $ artifact_arg $ vopr_scenario_arg
      $ vopr_file_arg $ vopr_nemesis_flag $ seed_arg)

let recorder_smoke_cmd =
  Cmd.v
    (Cmd.info "smoke"
       ~doc:
         "Recorder gate: force a curated scenario to fail, shrink it, and \
          verify the repro artifact carries rings whose explain output is \
          byte-deterministic and covers send -> ack -> VCL advance -> \
          commit ack")
    Term.(const run_recorder_smoke $ const ())

let recorder_cmd =
  Cmd.group
    (Cmd.info "recorder"
       ~doc:
         "Flight-recorder artifacts: dump rings, grep events, run the \
          recorder smoke gate (see DESIGN.md \xc2\xa78)")
    [ recorder_dump_cmd; recorder_grep_cmd; recorder_smoke_cmd ]

let default =
  Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  let info =
    Cmd.info "aurora-cli" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Amazon Aurora: On Avoiding Distributed Consensus \
         for I/Os, Commits, and Membership Changes' (SIGMOD'18)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            exp_cmd;
            smoke_cmd;
            obs_cmd;
            trace_export_cmd;
            vopr_cmd;
            explain_cmd;
            recorder_cmd;
          ]))
