(* Tests for aurora_lint.  A deliberately-dirty fixture library
   (fixtures/, compiled to real .cmt trees) is summarized once; each rule
   test moves a fixture's summary to a logical path, so rule scoping
   applies, and pins the exact findings.  Scope and allowlist tests,
   the loader's own findings, baseline round-trips, and a meta-test
   running the gate over the real tree (what `dune build @lint`
   enforces) follow. *)

open Lint

let fixture_dir = "fixtures/.lint_fixtures.objs/byte"
let fixture_load = lazy (Typed_loader.load_dir fixture_dir)
let fixture_units () = fst (Lazy.force fixture_load)
let fx name = "test/lint/fixtures/" ^ name

let summary name =
  match
    List.find_opt
      (fun (u : Typed_loader.unit_info) -> String.equal u.source (fx name))
      (fixture_units ())
  with
  | Some u -> Typed_summary.summarize u
  | None -> Alcotest.failf "fixture %s has no typed tree" name

(* The rules that judge a unit's expressions.  [lint_as] reports only
   these: interface coverage and top-level state are properties of the
   unit a fixture is moved into, and have tests of their own. *)
let expression_rules =
  [ "determinism"; "stable-iteration"; "poly-compare"; "lsn-arith"; "generic-hashtbl" ]

(* Lint a fixture as if it lived at [path], so rule scoping applies. *)
let lint_as ~path name =
  let s = summary name in
  Typed_rules.run Typed_rules.default [ { s with u_source = path } ]
  |> List.filter (fun (f : Finding.t) -> List.mem f.rule expression_rules)
  |> List.sort_uniq Finding.compare

(* (rule, line, col) triples, the part of a finding fixtures pin down. *)
let shape (f : Finding.t) = (f.rule, f.line, f.col)

let check_shapes msg expected findings =
  Alcotest.(check (list (triple string int int)))
    msg expected (List.map shape findings)

(* -- the cross-unit rules over the tf_* fixtures -------------------------- *)

(* The tf_* fixtures, moved into lib/ where every cross-unit rule and both
   halves of poly-compare apply.  They have no interfaces; interface
   coverage has its own test. *)
let tf_names =
  [
    "tf_emitter.ml"; "tf_events.ml"; "tf_global.ml"; "tf_global_stray.ml";
    "tf_poly.ml"; "tf_proto.ml";
  ]

let tf name = "lib/lint_fixtures/" ^ name

let lint_tf config =
  List.map (fun name -> { (summary name) with u_source = tf name }) tf_names
  |> Typed_rules.run config
  |> List.filter (fun (f : Finding.t) -> f.rule <> "mli-coverage")
  |> List.sort_uniq Finding.compare

let off _ = false

let fixture_config : Typed_rules.config =
  {
    sim_scope =
      (fun src ->
        String.equal src (tf "tf_global.ml")
        || String.equal src (tf "tf_global_stray.ml"));
    sim_global_home = String.equal (tf "tf_global.ml");
    describe_checks =
      [ ("Lint_fixtures.Tf_proto.t", "Lint_fixtures.Tf_proto.describe") ];
    emit_checks = [ ("Lint_fixtures.Tf_events.t", tf "tf_events.ml") ];
    protocol_modules = [ "Wal.Lsn" ];
  }

let fixture_findings = lazy (lint_tf fixture_config)

(* (file, line) sites for one rule — columns are the compiler's business. *)
let sites rule =
  List.filter_map
    (fun (f : Finding.t) ->
      if String.equal f.rule rule then Some (f.file, f.line) else None)
    (Lazy.force fixture_findings)

let check_sites msg expected rule =
  Alcotest.(check (list (pair string int))) msg expected (sites rule)

(* -- loader --------------------------------------------------------------- *)

let test_loader () =
  let units = fixture_units () in
  Alcotest.(check (list string))
    "every fixture unit, wrapper module skipped, sorted by source"
    (List.map fx
       [
         "aliased.ml";
         "bad_determinism.ml";
         "bad_generic_hashtbl.ml";
         "bad_lsn_arith.ml";
         "bad_poly_compare.ml";
         "bad_stable_iteration.ml";
         "clean.ml";
         "tf_emitter.ml";
         "tf_events.ml";
         "tf_global.ml";
         "tf_global_stray.ml";
         "tf_poly.ml";
         "tf_proto.ml";
       ])
    (List.map (fun (u : Typed_loader.unit_info) -> u.source) units);
  Alcotest.(check bool)
    "module names are normalized to dotted form" true
    (List.exists
       (fun (u : Typed_loader.unit_info) ->
         String.equal u.modname "Lint_fixtures.Tf_global")
       units);
  Alcotest.(check (list string))
    "only clean.ml has an interface" [ fx "clean.ml" ]
    (List.filter_map
       (fun (u : Typed_loader.unit_info) ->
         if u.has_interface then Some u.source else None)
       units);
  Alcotest.(check int)
    "every fixture cmt is readable" 0
    (List.length (snd (Lazy.force fixture_load)))

(* -- one fixture per rule ------------------------------------------------- *)

let test_determinism () =
  let fs = lint_as ~path:"lib/fake/bad_determinism.ml" "bad_determinism.ml" in
  check_shapes "six banned identifiers"
    [
      ("determinism", 2, 13);
      ("determinism", 3, 13);
      ("determinism", 4, 14);
      ("determinism", 5, 15);
      ("determinism", 6, 18);
      ("determinism", 7, 14);
    ]
    fs

let test_stable_iteration () =
  let fs =
    lint_as ~path:"lib/obs/bad_stable_iteration.ml" "bad_stable_iteration.ml"
  in
  check_shapes "iter and fold both flagged"
    [ ("stable-iteration", 2, 15); ("stable-iteration", 3, 16) ]
    fs

(* Two fixtures.  bad_poly_compare.ml: =, <>, compare, max and a
   constrained min, each at a protocol type, and an [=] whose first
   operand's type is an abbreviation of one (line 9).  tf_poly.ml: polymorphic [=]
   at Wal.Lsn.t in [bad] (line 5) and [<] at a type variable in [bad_var]
   (line 7); the int comparisons in [good] and [good_int] are fine. *)
let test_poly_compare () =
  let fs =
    lint_as ~path:"lib/fake/bad_poly_compare.ml" "bad_poly_compare.ml"
  in
  check_shapes "=, <>, compare, max, and constrained min all flagged"
    [
      ("poly-compare", 2, 17);
      ("poly-compare", 3, 14);
      ("poly-compare", 4, 19);
      ("poly-compare", 5, 15);
      ("poly-compare", 6, 17);
      ("poly-compare", 9, 25);
    ]
    fs;
  check_sites "polymorphic compare at a protocol type or a type variable"
    [ (tf "tf_poly.ml", 5); (tf "tf_poly.ml", 7) ]
    "poly-compare"

let test_lsn_arith () =
  let fs = lint_as ~path:"lib/fake/bad_lsn_arith.ml" "bad_lsn_arith.ml" in
  check_shapes "+, -, * on LSN-carrying operands; counts pass"
    [
      ("lsn-arith", 2, 13);
      ("lsn-arith", 3, 14);
      ("lsn-arith", 4, 17);
      ("lsn-arith", 5, 13);
    ]
    fs

let test_generic_hashtbl () =
  let fs =
    lint_as ~path:"lib/storage/bad_generic_hashtbl.ml" "bad_generic_hashtbl.ml"
  in
  check_shapes "create, find_opt and Stdlib.Hashtbl.replace; Make and S pass"
    [
      ("generic-hashtbl", 2, 8);
      ("generic-hashtbl", 3, 12);
      ("generic-hashtbl", 4, 14);
    ]
    fs

(* A module alias, a local open and an alias of Wal.Lsn: the compiler
   resolved each to the path a rule matches. *)
let test_resolved_paths () =
  check_shapes "H.fold, Random.(int), L.to_int seen through"
    [ ("stable-iteration", 4, 15); ("determinism", 5, 22); ("lsn-arith", 7, 13) ]
    (lint_as ~path:"lib/obs/aliased.ml" "aliased.ml")

let test_mli_coverage () =
  let at path name = { (summary name) with u_source = path } in
  let fs =
    Typed_rules.run Typed_rules.default
      [
        at "lib/foo/a.ml" "clean.ml";
        at "lib/foo/b.ml" "bad_lsn_arith.ml";
        at "bin/tool.ml" "bad_poly_compare.ml";
      ]
    |> List.filter (fun (f : Finding.t) -> f.rule = "mli-coverage")
  in
  (* b.ml lacks an interface; bin/ is out of scope. *)
  check_shapes "only the lib module without an mli" [ ("mli-coverage", 1, 0) ] fs;
  Alcotest.(check (list string))
    "finding names the missing interface"
    [ "lib/foo/b.ml" ]
    (List.map (fun (f : Finding.t) -> f.file) fs)

(* The unannotated [ref] (line 5) and [Hashtbl.create] (line 6) globals
   are flagged; the two [@@sim_global] globals (lines 7-8) in the
   annotation's home and the table built per call inside the function
   [fresh] (line 9) are not.  The annotated global in another sim-scoped
   file (tf_global_stray.ml line 4) is flagged for the annotation. *)
let test_sim_global () =
  check_sites "unannotated globals and stray annotations flagged"
    [
      (tf "tf_global.ml", 5);
      (tf "tf_global.ml", 6);
      (tf "tf_global_stray.ml", 4);
    ]
    "sim-global"

(* [describe]'s wildcard hides [Pong] (line 7) and [Ack] (line 8); the
   findings anchor to the constructor declarations. *)
let test_describe_coverage () =
  check_sites "wildcard-hidden constructors flagged at their declarations"
    [ (tf "tf_proto.ml", 7); (tf "tf_proto.ml", 8) ]
    "describe-coverage"

(* [Seen] is built by Tf_emitter (outside the defining module); [Ignored]
   (line 7) is only built inside it, which must not count. *)
let test_event_emit () =
  check_sites "constructor never built outside the defining module"
    [ (tf "tf_events.ml", 7) ]
    "event-emit"

let test_no_extra_findings () =
  Alcotest.(check int)
    "the four rule tests account for every finding" 8
    (List.length (Lazy.force fixture_findings))

(* A renamed type or total function must degrade loudly — to a
   finding anchored at the manifest pseudo-file — never to a silently
   disabled rule.  The comparison at a type variable in tf_poly.ml needs
   no configured type, so it is found under this config too. *)
let test_manifest_rot () =
  let cfg =
    {
      Typed_rules.describe_checks =
        [ ("Lint_fixtures.Tf_proto.gone", "Lint_fixtures.Tf_proto.describe") ];
      emit_checks = [ ("Lint_fixtures.Tf_events.gone", tf "tf_events.ml") ];
      sim_scope = off;
      sim_global_home = off;
      protocol_modules = [];
    }
  in
  let fs = lint_tf cfg in
  Alcotest.(check (list (pair string string)))
    "one manifest-rot finding per stale entry, anchored to the pseudo-file"
    [
      ("(lint-manifest)", "describe-coverage");
      ("(lint-manifest)", "event-emit");
      (tf "tf_poly.ml", "poly-compare");
    ]
    (List.map (fun (f : Finding.t) -> (f.file, f.rule)) fs)

(* -- negative / scoping / allowlists -------------------------------------- *)

let test_clean_fixture () =
  check_shapes "disciplined code is finding-free" []
    (lint_as ~path:"lib/obs/clean.ml" "clean.ml")

let test_scope () =
  (* bench/ is sim code too: harness timing must route through Perf.Clock,
     so raw wall-clock reads are findings there as well. *)
  check_shapes "determinism rule active in bench/"
    [
      ("determinism", 2, 13);
      ("determinism", 3, 13);
      ("determinism", 4, 14);
      ("determinism", 5, 15);
      ("determinism", 6, 18);
      ("determinism", 7, 14);
    ]
    (lint_as ~path:"bench/bad_determinism.ml" "bad_determinism.ml");
  (* ...but test/ is not sim code. *)
  check_shapes "determinism rule inactive in test/" []
    (lint_as ~path:"test/fake/bad_determinism.ml" "bad_determinism.ml");
  (* Hash iteration is only a finding in output-feeding modules. *)
  let stable_iteration path =
    List.filter
      (fun (f : Finding.t) -> f.rule = "stable-iteration")
      (lint_as ~path "bad_stable_iteration.ml")
  in
  check_shapes "stable-iteration inactive outside lib/obs" []
    (stable_iteration "lib/core/bad_stable_iteration.ml");
  (* The experiment driver and the workload generator choose which keys a
     verdict reads, and in what order; the rest of lib/harness does not. *)
  List.iter
    (fun path ->
      check_shapes
        (Printf.sprintf "stable-iteration active in %s" path)
        [ ("stable-iteration", 2, 15); ("stable-iteration", 3, 16) ]
        (stable_iteration path))
    [ "lib/harness/experiments.ml"; "lib/harness/report.ml"; "lib/workload/txn_gen.ml" ];
  check_shapes "stable-iteration inactive in lib/harness/cluster.ml" []
    (stable_iteration "lib/harness/cluster.ml");
  (* The generic table is a finding only on the simulated commit path. *)
  List.iter
    (fun dir ->
      check_shapes
        (Printf.sprintf "generic-hashtbl active in %s" dir)
        [ ("generic-hashtbl", 2, 8); ("generic-hashtbl", 3, 12); ("generic-hashtbl", 4, 14) ]
        (lint_as ~path:(dir ^ "/bad_generic_hashtbl.ml") "bad_generic_hashtbl.ml"))
    [ "lib/core"; "lib/storage"; "lib/wal"; "lib/simnet"; "lib/simcore" ];
  List.iter
    (fun dir ->
      check_shapes
        (Printf.sprintf "generic-hashtbl inactive in %s" dir)
        []
        (lint_as ~path:(dir ^ "/bad_generic_hashtbl.ml") "bad_generic_hashtbl.ml"))
    [ "lib/obs"; "lib/harness"; "lib/vopr"; "bin"; "test/core" ];
  (* Protocol types are policed in every root, type variables in lib/ only. *)
  List.iter
    (fun path ->
      check_shapes
        (Printf.sprintf "poly-compare at a protocol type in %s" path)
        [ ("poly-compare", 5, 28) ]
        (lint_as ~path "tf_poly.ml"))
    [ "test/fake/tf_poly.ml"; "bench/tf_poly.ml"; "perfbench/tf_poly.ml" ];
  check_shapes "poly-compare at a type variable in lib/"
    [ ("poly-compare", 5, 28); ("poly-compare", 7, 18) ]
    (lint_as ~path:"lib/fake/tf_poly.ml" "tf_poly.ml")

let test_allowlist () =
  (* lib/obs/stable.ml is the audited helper: folding there is the point. *)
  check_shapes "stable.ml may fold hash tables" []
    (lint_as ~path:"lib/obs/stable.ml" "bad_stable_iteration.ml");
  (* lib/wal/lsn.ml owns LSN arithmetic. *)
  check_shapes "lsn.ml may do LSN arithmetic" []
    (lint_as ~path:"lib/wal/lsn.ml" "bad_lsn_arith.ml");
  (* lib/perf/clock.ml is the single wall-clock gateway. *)
  check_shapes "clock.ml may read real time" []
    (lint_as ~path:"lib/perf/clock.ml" "bad_determinism.ml")

(* Loading test and bench units must not widen what they judge: only
   lib/ units emit events and only lib/ state is sim state.  A [Seen]
   built only by a test-side emitter is still never emitted, and a
   global in test/ needs no annotation. *)
let test_lib_only_scopes () =
  let at path name = { (summary name) with u_source = path } in
  let cfg =
    {
      Typed_rules.default with
      describe_checks = [];
      emit_checks = [ ("Lint_fixtures.Tf_events.t", "lib/recorder/tf_events.ml") ];
    }
  in
  let emit_sites emitter_path =
    Typed_rules.run cfg
      [
        at "lib/recorder/tf_events.ml" "tf_events.ml";
        at emitter_path "tf_emitter.ml";
        at "test/fake/tf_global.ml" "tf_global.ml";
        at "bench/tf_global_stray.ml" "tf_global_stray.ml";
      ]
    |> List.filter (fun (f : Finding.t) ->
           f.rule = "event-emit" || f.rule = "sim-global")
    |> List.sort_uniq Finding.compare
    |> List.map (fun (f : Finding.t) -> (f.rule, f.line))
  in
  Alcotest.(check (list (pair string int)))
    "a lib/ emitter counts" [ ("event-emit", 7) ]
    (emit_sites "lib/obs/tf_emitter.ml");
  Alcotest.(check (list (pair string int)))
    "a test emitter does not; test and bench globals are not sim state"
    [ ("event-emit", 6); ("event-emit", 7) ]
    (emit_sites "test/recorder/tf_emitter.ml")

let with_temp_dir f =
  let dir = Filename.temp_file "aurora_lint" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let write path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let loader_findings dir =
  List.map
    (fun (f : Finding.t) -> (f.rule, Filename.basename f.file))
    (snd (Typed_loader.load ~roots:[ dir ]))

(* A typed tree the gate cannot read fails it, never drops its unit. *)
let test_unreadable_cmt () =
  with_temp_dir (fun dir ->
      write (Filename.concat dir "broken.cmt") "not a typed tree";
      Alcotest.(check (list (pair string string)))
        "an unreadable cmt is a finding" [ ("unlinted", "broken.cmt") ]
        (loader_findings dir))

(* A source compiled into no stanza has no typed tree, so no rule saw it. *)
let test_missing_cmt () =
  with_temp_dir (fun dir ->
      write (Filename.concat dir "orphan.ml") "let x = Random.int 6\n";
      write (Filename.concat dir "orphan.mli") "val x : int\n";
      Alcotest.(check (list (pair string string)))
        "an .ml with no cmt is a finding, and so is its .mli"
        [ ("unlinted", "orphan.ml"); ("unlinted", "orphan.mli") ]
        (loader_findings dir))

(* -- baseline ------------------------------------------------------------- *)

let test_baseline_roundtrip () =
  let fs = lint_as ~path:"lib/fake/bad_lsn_arith.ml" "bad_lsn_arith.ml" in
  let file = Filename.temp_file "aurora_lint_baseline" ".txt" in
  Baseline.save file fs;
  let b = Baseline.load file in
  Sys.remove file;
  Alcotest.(check int) "every finding frozen" (List.length fs) (Baseline.size b);
  Alcotest.(check bool) "saved findings are suppressed" true
    (List.for_all (Baseline.mem b) fs);
  let other = lint_as ~path:"lib/fake/bad_determinism.ml" "bad_determinism.ml" in
  Alcotest.(check bool) "unrelated findings are not" false
    (List.exists (Baseline.mem b) other)

let test_baseline_missing () =
  Alcotest.(check int) "missing baseline file is empty" 0
    (Baseline.size (Baseline.load "no/such/baseline.txt"))

(* --update-baseline must write the same bytes for the same finding set
   regardless of input order or duplication: sorted by position (file,
   line, col, rule), deduplicated by key. *)
let test_baseline_order () =
  let mk rule file line col = Finding.make ~rule ~file ~line ~col "msg" in
  let findings =
    [
      mk "sim-global" "lib/b.ml" 9 2;
      mk "determinism" "lib/a.ml" 12 0;
      mk "sim-global" "lib/b.ml" 9 2;
      mk "stable-iteration" "lib/a.ml" 3 4;
    ]
  in
  let path = Filename.temp_file "aurora_lint_baseline" ".txt" in
  let read () =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | line when line = "" || line.[0] = '#' -> go acc
      | line -> go (line :: acc)
    in
    let lines = go [] in
    close_in ic;
    lines
  in
  Baseline.save path findings;
  let first = read () in
  Alcotest.(check (list string))
    "keys deduplicated and in source-position order"
    [
      "stable-iteration|lib/a.ml|3|4";
      "determinism|lib/a.ml|12|0";
      "sim-global|lib/b.ml|9|2";
    ]
    first;
  Baseline.save path (List.rev findings);
  let second = read () in
  Sys.remove path;
  Alcotest.(check (list string)) "byte-stable under input permutation" first second

(* -- the real tree -------------------------------------------------------- *)

let real_roots = List.map (fun r -> "../../" ^ r) Typed_engine.default_roots

let real_tree =
  lazy
    (List.iter
       (fun r ->
         if not (Sys.file_exists r) then
           Alcotest.failf "real tree not visible from test sandbox: %s" r)
       real_roots;
     Typed_engine.lint ~roots:real_roots ())

(* The same gate `dune build @lint` enforces: every root, the production
   config, the checked-in baseline.  Failure messages print the offending
   findings verbatim. *)
let test_real_tree () =
  let baseline = Baseline.load "../../lint/baseline.txt" in
  let fresh =
    List.filter
      (fun f -> not (Baseline.mem baseline f))
      (snd (Lazy.force real_tree))
  in
  Alcotest.(check (list string))
    "no non-baselined findings in the real tree" []
    (List.map Finding.to_string fresh)

(* Nothing at all is found, so nothing is suppressed either, and every root
   contributes units: the gate cannot pass by loading nothing. *)
let test_real_tree_clean () =
  let units, findings = Lazy.force real_tree in
  Alcotest.(check (list string))
    "the real tree is finding-free" []
    (List.map Finding.to_string findings);
  List.iter
    (fun root ->
      Alcotest.(check bool)
        (Printf.sprintf "%s has linted units" root)
        true
        (List.exists
           (fun (u : Typed_loader.unit_info) ->
             String.starts_with ~prefix:(root ^ "/") u.source)
           units))
    Typed_engine.default_roots

(* -- reporting ------------------------------------------------------------ *)

let test_rendering () =
  let f =
    Finding.make ~rule:"determinism" ~file:"lib/a.ml" ~line:3 ~col:7
      "message with \"quotes\""
  in
  Alcotest.(check string)
    "compiler-style text" "lib/a.ml:3:7: [determinism] message with \"quotes\""
    (Finding.to_string f);
  Alcotest.(check string)
    "baseline key excludes the message" "determinism|lib/a.ml|3|7"
    (Finding.key f);
  Alcotest.(check string)
    "json escapes quotes"
    "{\"rule\":\"determinism\",\"file\":\"lib/a.ml\",\"line\":3,\"col\":7,\"message\":\"message with \\\"quotes\\\"\"}"
    (Finding.to_json f)

let () =
  Alcotest.run "lint"
    [
      ("loader", [ Alcotest.test_case "fixture units" `Quick test_loader ]);
      ( "rules",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "stable-iteration" `Quick test_stable_iteration;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "lsn-arith" `Quick test_lsn_arith;
          Alcotest.test_case "mli-coverage" `Quick test_mli_coverage;
          Alcotest.test_case "generic-hashtbl" `Quick test_generic_hashtbl;
          Alcotest.test_case "resolved paths" `Quick test_resolved_paths;
          Alcotest.test_case "sim-global" `Quick test_sim_global;
          Alcotest.test_case "describe-coverage" `Quick test_describe_coverage;
          Alcotest.test_case "event-emit" `Quick test_event_emit;
          Alcotest.test_case "no extra findings" `Quick test_no_extra_findings;
          Alcotest.test_case "manifest rot is loud" `Quick test_manifest_rot;
        ] );
      ( "scoping",
        [
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
          Alcotest.test_case "rule scope" `Quick test_scope;
          Alcotest.test_case "allowlists" `Quick test_allowlist;
          Alcotest.test_case "lib-only scopes" `Quick test_lib_only_scopes;
          Alcotest.test_case "unreadable cmt" `Quick test_unreadable_cmt;
          Alcotest.test_case "missing cmt" `Quick test_missing_cmt;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "roundtrip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "missing file" `Quick test_baseline_missing;
        ] );
      ( "meta",
        [
          Alcotest.test_case "real tree is clean" `Quick test_real_tree;
          Alcotest.test_case "rendering" `Quick test_rendering;
        ] );
      ( "gate",
        [
          Alcotest.test_case "real tree clean" `Quick test_real_tree_clean;
          Alcotest.test_case "baseline ordering" `Quick test_baseline_order;
        ] );
    ]
