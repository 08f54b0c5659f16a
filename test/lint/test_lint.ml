(* Tests for the aurora_lint engine: one fixture per rule asserting the
   exact expected findings, a clean-fixture negative test, scope/allowlist
   behaviour, baseline round-trips, and a meta-test running the linter over
   the real tree (the same check `dune build @lint` enforces). *)

let read_fixture name =
  let ic = open_in_bin (Filename.concat "fixtures" name) in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Lint a fixture as if it lived at [path], so rule scoping applies. *)
let lint_as ~path name = Lint.Engine.lint_source ~path (read_fixture name)

(* (rule, line, col) triples, the part of a finding fixtures pin down. *)
let shape (f : Lint.Finding.t) = (f.rule, f.line, f.col)

let check_shapes msg expected findings =
  Alcotest.(check (list (triple string int int)))
    msg expected (List.map shape findings)

(* -- one fixture per rule ------------------------------------------------ *)

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
    ]
    fs

let test_lsn_arith () =
  let fs = lint_as ~path:"lib/fake/bad_lsn_arith.ml" "bad_lsn_arith.ml" in
  check_shapes "+, -, * on LSN-carrying operands"
    [
      ("lsn-arith", 2, 13);
      ("lsn-arith", 3, 14);
      ("lsn-arith", 4, 17);
    ]
    fs

let test_mli_coverage () =
  let fs =
    Lint.Rules.mli_coverage
      ~ml_files:[ "lib/foo/a.ml"; "lib/foo/b.ml"; "bin/tool.ml" ]
      ~mli_files:[ "lib/foo/a.mli" ]
  in
  (* b.ml lacks an interface; bin/ is out of scope. *)
  check_shapes "only the lib module without an mli" [ ("mli-coverage", 1, 0) ] fs;
  Alcotest.(check (list string))
    "finding names the missing interface"
    [ "lib/foo/b.ml" ]
    (List.map (fun (f : Lint.Finding.t) -> f.file) fs)

(* -- negative / scoping / allowlists ------------------------------------- *)

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
  check_shapes "stable-iteration inactive outside lib/obs" []
    (lint_as ~path:"lib/core/bad_stable_iteration.ml" "bad_stable_iteration.ml")

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

let test_parse_error () =
  let fs = Lint.Engine.lint_source ~path:"lib/fake/broken.ml" "let let let" in
  check_shapes "syntax errors surface as a finding" [ ("parse-error", 1, 0) ] fs

(* -- baseline ------------------------------------------------------------ *)

let test_baseline_roundtrip () =
  let fs = lint_as ~path:"lib/fake/bad_lsn_arith.ml" "bad_lsn_arith.ml" in
  let file = Filename.temp_file "aurora_lint_baseline" ".txt" in
  Lint.Baseline.save file fs;
  let b = Lint.Baseline.load file in
  Sys.remove file;
  Alcotest.(check int) "every finding frozen" (List.length fs)
    (Lint.Baseline.size b);
  Alcotest.(check bool) "saved findings are suppressed" true
    (List.for_all (Lint.Baseline.mem b) fs);
  let other = lint_as ~path:"lib/fake/bad_determinism.ml" "bad_determinism.ml" in
  Alcotest.(check bool) "unrelated findings are not" false
    (List.exists (Lint.Baseline.mem b) other)

let test_baseline_missing () =
  Alcotest.(check int) "missing baseline file is empty" 0
    (Lint.Baseline.size (Lint.Baseline.load "no/such/baseline.txt"))

(* -- the real tree ------------------------------------------------------- *)

let test_real_tree () =
  let roots =
    [ "../../lib"; "../../bin"; "../../bench"; "../../test"; "../../perfbench" ]
  in
  List.iter
    (fun r ->
      if not (Sys.file_exists r) then
        Alcotest.failf "real tree not visible from test sandbox: %s" r)
    roots;
  let findings = Lint.Engine.lint_tree ~roots in
  let baseline = Lint.Baseline.load "../../lint/baseline.txt" in
  let fresh =
    List.filter (fun f -> not (Lint.Baseline.mem baseline f)) findings
  in
  Alcotest.(check (list string))
    "no non-baselined findings in the real tree" []
    (List.map Lint.Finding.to_string fresh)

(* -- reporting ----------------------------------------------------------- *)

let test_rendering () =
  let f =
    Lint.Finding.make ~rule:"determinism" ~file:"lib/a.ml" ~line:3 ~col:7
      "message with \"quotes\""
  in
  Alcotest.(check string)
    "compiler-style text" "lib/a.ml:3:7: [determinism] message with \"quotes\""
    (Lint.Finding.to_string f);
  Alcotest.(check string)
    "baseline key excludes the message" "determinism|lib/a.ml|3|7"
    (Lint.Finding.key f);
  Alcotest.(check string)
    "json escapes quotes"
    "{\"rule\":\"determinism\",\"file\":\"lib/a.ml\",\"line\":3,\"col\":7,\"message\":\"message with \\\"quotes\\\"\"}"
    (Lint.Finding.to_json f)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "stable-iteration" `Quick test_stable_iteration;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "lsn-arith" `Quick test_lsn_arith;
          Alcotest.test_case "mli-coverage" `Quick test_mli_coverage;
        ] );
      ( "scoping",
        [
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
          Alcotest.test_case "rule scope" `Quick test_scope;
          Alcotest.test_case "allowlists" `Quick test_allowlist;
          Alcotest.test_case "parse error" `Quick test_parse_error;
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
    ]
