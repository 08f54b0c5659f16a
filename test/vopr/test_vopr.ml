(* Tests for lib/vopr: scenario text-format round-trips, parser error
   reporting, shrink fingerprint preservation, runner determinism, the
   checkers catching a deliberately broken invariant, and the nemesis
   generator. *)
open Simcore
open Vopr
module Cluster = Harness.Cluster

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- text format ---- *)

let test_curated_roundtrip () =
  check_bool "curated names unique" true
    (List.sort_uniq compare Curated.names = List.sort compare Curated.names);
  List.iter
    (fun sc ->
      match Scenario.of_string (Scenario.to_string sc) with
      | Ok sc' -> check_bool (sc.Scenario.name ^ " round-trips") true (sc' = sc)
      | Error e -> Alcotest.failf "%s: parse failed: %s" sc.Scenario.name e)
    Curated.all

let test_parser_freedom () =
  (* Comments, blank lines, header order, and k=v argument order are all
     insignificant; expectations chain after the action. *)
  let src =
    String.concat "\n"
      [
        "# a shrunk repro";
        "rate 900";
        "";
        "scenario demo";
        "layout tiered   # trailing comment";
        "step at=250ms crash_node m=4 pg=0 expect writer_open=true \
         expect commits_progressing";
        "step at_lsn=1200 noop expect epoch min=2 pg=0";
      ]
  in
  match Scenario.of_string src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok sc ->
    check_string "name" "demo" sc.Scenario.name;
    check_bool "layout" true (sc.Scenario.layout = Quorum.Layout.Tiered);
    check_bool "rate" true (sc.Scenario.rate = 900.);
    check_int "defaults kept" 1500 sc.Scenario.duration_ms;
    (match sc.Scenario.steps with
    | [ s1; s2 ] ->
      check_bool "arg order" true (s1.Scenario.action = Scenario.Crash_node (0, 4));
      check_int "two expects" 2 (List.length s1.Scenario.expect);
      check_bool "lsn trigger" true (s2.Scenario.trigger = Scenario.at_lsn 1200);
      check_bool "epoch expect" true
        (s2.Scenario.expect = [ Scenario.Epoch_at_least (0, 2) ])
    | _ -> Alcotest.fail "expected two steps")

let test_parser_errors () =
  let cases =
    [
      ("pgs 1\n", "missing scenario");
      ("scenario x\nstep at=5ms explode", "line 2");
      ("scenario x\nstep at=5ms explode", "unknown action");
      ("scenario x\nstep at=5 noop", "duration like 500ms");
      ("scenario x\nstep at=5ms crash_node pg=0", "missing argument m=");
      ("scenario x\nstep at_lsn=zz noop", "expected an integer");
      ("scenario x\nstep at=5ms noop junk", "expected key=value or expect");
      ("scenario x\nstep at=5ms noop expect wat=1", "unknown expectation");
      ("scenario x\n\nlayout v9", "line 3");
      ("step at=5ms noop\nscenario late", "after the first step");
      ("scenario x\nwhatever 3", "unknown directive");
    ]
  in
  List.iter
    (fun (src, frag) ->
      match Scenario.of_string src with
      | Ok _ -> Alcotest.failf "accepted bad input %S" src
      | Error e ->
        check_bool (Printf.sprintf "%S mentions %S (got %S)" src frag e) true
          (contains e frag))
    cases

(* qcheck: any scenario the combinators can build at the text format's
   granularity (ms times, %g-clean floats) survives print-then-parse. *)
let scenario_gen =
  let open QCheck.Gen in
  let small_float = map float_of_int (int_range 1 10_000) in
  let trigger =
    oneof [ map Scenario.at_ms (int_range 0 60_000); map Scenario.at_lsn (int_range 1 1_000_000) ]
  in
  let pg = int_range 0 3 and m = int_range 0 6 and az = int_range 1 3 in
  let action =
    oneof
      [
        return Scenario.Noop;
        map2 (fun p m -> Scenario.Crash_node (p, m)) pg m;
        map2 (fun p m -> Scenario.Restart_node (p, m)) pg m;
        map2 (fun p m -> Scenario.Destroy_node (p, m)) pg m;
        map3 (fun p m f -> Scenario.Slow_node (p, m, f)) pg m small_float;
        map (fun a -> Scenario.Fail_az a) az;
        map (fun a -> Scenario.Restore_az a) az;
        map (fun a -> Scenario.Partition_az a) az;
        map (fun a -> Scenario.Heal_az a) az;
        map2 (fun p m -> Scenario.Start_replacement (p, m)) pg m;
        map2 (fun p m -> Scenario.Finish_replacement (p, m)) pg m;
        map2 (fun p m -> Scenario.Finish_when_caught_up (p, m)) pg m;
        map2 (fun p m -> Scenario.Revert_replacement (p, m)) pg m;
        return Scenario.Grow_volume;
        map2 (fun p a -> Scenario.Change_scheme_3_of_4 (p, a)) pg az;
        return Scenario.Crash_writer;
        return Scenario.Recover_writer;
      ]
  in
  let expectation =
    oneof
      [
        map (fun b -> Scenario.Write_available b) bool;
        map (fun b -> Scenario.Az_plus_one b) bool;
        map (fun b -> Scenario.Writer_open b) bool;
        return Scenario.Commits_progressing;
        map2 (fun p e -> Scenario.Epoch_at_least (p, e)) pg (int_range 1 9);
        map2 (fun p m -> Scenario.Caught_up (p, m)) pg m;
      ]
  in
  let step =
    map3 (fun t a e -> Scenario.step ~expect:e t a) trigger action
      (list_size (int_range 0 3) expectation)
  in
  let* name = map (Printf.sprintf "s%d") (int_range 0 999) in
  let* n_pgs = int_range 1 4 in
  let* layout = oneofl [ Quorum.Layout.V6; Quorum.Layout.Tiered; Quorum.Layout.V3 ] in
  let* replicas = int_range 0 3 in
  let* rate = small_float in
  let* duration_ms = int_range 1 10_000 in
  let* quiesce_ms = int_range 1 10_000 in
  let* recorder_depth =
    int_range Recorder.Rings.min_depth Recorder.Rings.max_depth
  in
  let* steps = list_size (int_range 0 8) step in
  return
    (Scenario.make ~name ~n_pgs ~layout ~replicas ~rate ~duration_ms
       ~quiesce_ms ~recorder_depth steps)

let prop_scenario_roundtrip =
  QCheck.Test.make ~name:"print-then-parse is the identity" ~count:300
    (QCheck.make ~print:Scenario.to_string scenario_gen)
    (fun sc -> Scenario.of_string (Scenario.to_string sc) = Ok sc)

(* ---- shrink ---- *)

(* A synthetic failure landscape exercising fingerprint preservation: the
   "real" bug needs steps A and B together ("durability"); a scenario that
   kept step Y but lost A&&B fails differently ("expectation").  A greedy
   minimizer that only asked "does it still fail?" would happily delete A,
   chase the decoy, and report [Y]; preserving the checker-id fingerprint
   must land on exactly [A; B]. *)
let test_shrink_fingerprint () =
  let a = Scenario.step (Scenario.at_ms 100) (Scenario.Crash_node (0, 1)) in
  let b = Scenario.step (Scenario.at_ms 200) (Scenario.Fail_az 2) in
  let x = Scenario.step (Scenario.at_ms 300) Scenario.Noop in
  let y = Scenario.step (Scenario.at_ms 400) (Scenario.Restart_node (0, 1)) in
  let violation checker =
    { Checker.checker; at = Time_ns.zero; detail = "synthetic" }
  in
  let outcome sc violations =
    {
      Runner.scenario = sc.Scenario.name;
      seed = 7;
      violations;
      total_violations = List.length violations;
      action_errors = [];
      issued = 0;
      acked = 0;
      wl_failed = 0;
      commits = 0;
      final_vcl = 0;
      final_vdl = 0;
      write_available = 1.;
      recorder = None;
    }
  in
  let runs = ref 0 in
  let run sc =
    incr runs;
    let has s = List.mem s sc.Scenario.steps in
    let violations =
      if has a && has b then [ violation "durability" ]
      else if has y then [ violation "expectation" ]
      else []
    in
    outcome sc violations
  in
  let sc = Scenario.make ~name:"shrink-me" [ a; x; b; y ] in
  (match Shrink.minimize ~run sc with
  | None -> Alcotest.fail "original scenario fails, minimize said it did not"
  | Some (small, out) ->
    check_bool "1-minimal step list" true (small.Scenario.steps = [ a; b ]);
    check_bool "same fingerprint" true
      (List.exists (fun v -> v.Checker.checker = "durability") out.Runner.violations);
    check_bool "header preserved" true (small.Scenario.name = "shrink-me"));
  check_bool "shrink actually reran candidates" true (!runs > 3);
  (* A passing scenario has nothing to minimize. *)
  match Shrink.minimize ~run (Scenario.make ~name:"fine" [ x ]) with
  | None -> ()
  | Some _ -> Alcotest.fail "minimized a passing scenario"

(* ---- runner ---- *)

let tiny_scenario =
  Scenario.make ~name:"tiny-crash" ~rate:800. ~duration_ms:400 ~quiesce_ms:800
    [
      Scenario.step (Scenario.at_ms 120) (Scenario.Crash_node (0, 2))
        ~expect:[ Scenario.Write_available true; Scenario.Commits_progressing ];
      Scenario.step (Scenario.at_ms 260) (Scenario.Restart_node (0, 2));
      Scenario.step (Scenario.at_ms 390) Scenario.Noop
        ~expect:[ Scenario.Writer_open true ];
    ]

let test_runner_clean_and_deterministic () =
  let o1 = Runner.run ~seed:1 tiny_scenario in
  check_bool "no violations" false (Runner.failed o1);
  check_int "no action errors" 0 (List.length o1.Runner.action_errors);
  check_bool "workload made progress" true (o1.Runner.acked > 0);
  check_bool "vdl covers commits" true (o1.Runner.final_vdl > 0);
  (* Byte-identical digest on replay: the repro contract. *)
  let o2 = Runner.run ~seed:1 tiny_scenario in
  check_string "replay digest" (Runner.digest o1) (Runner.digest o2);
  (* A different seed is a genuinely different execution. *)
  let o3 = Runner.run ~seed:2 tiny_scenario in
  check_bool "different seed, different digest" true
    (Runner.digest o3 <> Runner.digest o1)

let test_runner_catches_failed_expectation () =
  (* writer_open=false is simply untrue here — the runner must record an
     "expectation" violation rather than erroring out. *)
  let sc =
    Scenario.make ~name:"bad-expect" ~rate:500. ~duration_ms:200 ~quiesce_ms:400
      [ Scenario.step (Scenario.at_ms 100) Scenario.Noop
          ~expect:[ Scenario.Writer_open false ] ]
  in
  let o = Runner.run ~seed:3 sc in
  check_bool "failed" true (Runner.failed o);
  check_bool "as an expectation violation" true
    (List.exists (fun v -> v.Checker.checker = "expectation") o.Runner.violations)

(* A step naming a group the volume does not have (yet: [grow] adds
   groups mid-run) ends as an action error or an expectation violation,
   never as an escaped exception. *)
let test_runner_unknown_group () =
  let src =
    String.concat "\n"
      [
        "scenario unknown-group";
        "duration_ms 200";
        "quiesce_ms 400";
        "step at=100ms finish_when_caught_up pg=2 m=5";
        "step at=150ms noop expect epoch pg=3 min=1";
      ]
  in
  match Scenario.of_string src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok sc ->
    let o = Runner.run ~seed:1 sc in
    check_bool "step 0 is an action error" true
      (List.exists (fun (i, _) -> i = 0) o.Runner.action_errors);
    check_bool "step 1 is an expectation violation" true
      (List.exists
         (fun v ->
           v.Checker.checker = "expectation" && contains v.Checker.detail "pg3")
         o.Runner.violations)

(* ---- checker vs. a deliberately broken invariant ---- *)

let test_checker_catches_pgmrpl_breach () =
  (* Drive a live cluster, then push one segment's PGMRPL GC floor above
     the writer's VDL by hand — exactly the §3.1 discipline the storage
     fleet must never violate.  The 5 ms watch tick must flag it. *)
  let cluster = Cluster.create { Cluster.default_config with seed = 21 } in
  let sim = Cluster.sim cluster in
  let checker = Checker.create ~cluster () in
  let gen =
    Workload.Txn_gen.create ~sim ~rng:(Rng.create 99) ~db:(Cluster.db cluster)
      ~profile:Workload.Txn_gen.default_profile ()
  in
  Workload.Txn_gen.run_open_loop gen ~rate_per_sec:1000. ~duration:(Time_ns.ms 300);
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 350) (fun () ->
         let vdl = Wal.Lsn.to_int (Aurora_core.Database.vdl (Cluster.db cluster)) in
         match Cluster.node_of_member cluster (Storage.Pg_id.of_int 0) (Quorum.Member_id.of_int 0) with
         | None -> Alcotest.fail "node 0 missing"
         | Some node -> (
           match Storage.Storage_node.segment node (Storage.Pg_id.of_int 0) with
           | None -> Alcotest.fail "segment missing"
           | Some seg ->
             ignore
               (Storage.Segment.advance_pgmrpl seg (Wal.Lsn.of_int (vdl + 500))
                 : int))));
  Sim.run_until sim (Time_ns.ms 500);
  Checker.stop checker;
  check_bool "pgmrpl-above-vdl flagged" true
    (List.exists
       (fun v -> v.Checker.checker = "pgmrpl-above-vdl")
       (Checker.violations checker));
  check_bool "total counts it" true (Checker.total checker > 0)

(* ---- swarm ---- *)

let test_nemesis_generator () =
  let sc = Swarm.generate ~seed:5 in
  check_string "name carries the seed" "nemesis-5" sc.Scenario.name;
  check_bool "non-trivial schedule" true (List.length sc.Scenario.steps >= 2);
  check_bool "deterministic" true (Swarm.generate ~seed:5 = sc);
  check_bool "distinct per seed" true (Swarm.generate ~seed:6 <> sc);
  (* The printed table alone must reproduce the schedule. *)
  check_bool "repro via text" true (Scenario.of_string (Scenario.to_string sc) = Ok sc);
  (* The generated final step asserts the run ended recovered. *)
  match List.rev sc.Scenario.steps with
  | last :: _ ->
    check_bool "final recovery assertion" true
      (List.mem (Scenario.Writer_open true) last.Scenario.expect
      && List.mem (Scenario.Write_available true) last.Scenario.expect)
  | [] -> Alcotest.fail "empty schedule"

let test_mini_swarm () =
  let progress = ref 0 in
  let result =
    Swarm.run
      ~progress:(fun ~done_:_ ~total:_ -> incr progress)
      {
        Swarm.seeds = 2;
        first_seed = 1;
        scenarios = [ tiny_scenario ];
        nemesis = false;
      }
  in
  check_int "two runs" 2 result.Swarm.runs;
  check_int "progress per run" 2 !progress;
  check_int "no failures" 0 (List.length result.Swarm.failures)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "vopr"
    [
      ( "scenario",
        [
          Alcotest.test_case "curated round-trip" `Quick test_curated_roundtrip;
          Alcotest.test_case "parser freedom" `Quick test_parser_freedom;
          Alcotest.test_case "parser errors" `Quick test_parser_errors;
          qc prop_scenario_roundtrip;
        ] );
      ("shrink", [ Alcotest.test_case "fingerprint preserved" `Quick test_shrink_fingerprint ]);
      ( "runner",
        [
          Alcotest.test_case "clean + deterministic" `Slow
            test_runner_clean_and_deterministic;
          Alcotest.test_case "failed expectation" `Slow
            test_runner_catches_failed_expectation;
          Alcotest.test_case "unknown group in a step" `Quick
            test_runner_unknown_group;
        ] );
      ( "checker",
        [
          Alcotest.test_case "pgmrpl breach caught" `Slow
            test_checker_catches_pgmrpl_breach;
        ] );
      ( "swarm",
        [
          Alcotest.test_case "nemesis generator" `Quick test_nemesis_generator;
          Alcotest.test_case "mini swarm" `Slow test_mini_swarm;
        ] );
    ]
