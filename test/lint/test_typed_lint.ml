(* Tests for the typed lint tier: a deliberately-dirty fixture library
   (compiled to real .cmt trees — see fixtures/typed/dune) is checked
   against a fixture-scoped rule config, one test per rule pinning the
   exact finding positions.  A meta-test then runs the production config
   over the real library tree (the same check `dune build @lint-typed`
   enforces), and a final test pins the baseline writer's position
   ordering so --update-baseline output is byte-stable across tiers. *)

let fixture_dir = "fixtures/typed/.lint_typed_fixtures.objs/byte"
let fixture_units = lazy (Lint.Typed_loader.load_dir fixture_dir)
let fx name = "test/lint/fixtures/typed/" ^ name

let fixture_config : Lint.Typed_rules.config =
  {
    sim_scope =
      (fun src ->
        String.equal src (fx "tf_global.ml")
        || String.equal src (fx "tf_global_stray.ml"));
    sim_global_home = String.equal (fx "tf_global.ml");
    describe_checks =
      [
        ( "Lint_typed_fixtures.Tf_proto.t",
          "Lint_typed_fixtures.Tf_proto.describe" );
      ];
    emit_checks = [ ("Lint_typed_fixtures.Tf_events.t", fx "tf_events.ml") ];
    poly_types = [ "Wal.Lsn.t" ];
  }

let fixture_findings =
  lazy
    (Lint.Typed_engine.lint_units ~config:fixture_config
       (Lazy.force fixture_units))

(* (file, line) sites for one rule — columns are the compiler's business. *)
let sites rule =
  List.filter_map
    (fun (f : Lint.Finding.t) ->
      if String.equal f.rule rule then Some (f.file, f.line) else None)
    (Lazy.force fixture_findings)

let check_sites msg expected rule =
  Alcotest.(check (list (pair string int))) msg expected (sites rule)

let test_loader () =
  let units = Lazy.force fixture_units in
  Alcotest.(check (list string))
    "six fixture units, wrapper module skipped, sorted by source"
    [
      fx "tf_emitter.ml";
      fx "tf_events.ml";
      fx "tf_global.ml";
      fx "tf_global_stray.ml";
      fx "tf_poly.ml";
      fx "tf_proto.ml";
    ]
    (List.map (fun (u : Lint.Typed_loader.unit_info) -> u.source) units);
  Alcotest.(check bool)
    "module names are normalized to dotted form" true
    (List.exists
       (fun (u : Lint.Typed_loader.unit_info) ->
         String.equal u.modname "Lint_typed_fixtures.Tf_global")
       units)

(* The unannotated [ref] (line 5) and [Hashtbl.create] (line 6) globals
   are flagged; the two [@@sim_global] globals (lines 7-8) in the
   annotation's home and the table built per call inside the function
   [fresh] (line 9) are not.  The annotated global in another sim-scoped
   file (tf_global_stray.ml line 4) is flagged for the annotation. *)
let test_sim_global () =
  check_sites "unannotated globals and stray annotations flagged"
    [
      (fx "tf_global.ml", 5);
      (fx "tf_global.ml", 6);
      (fx "tf_global_stray.ml", 4);
    ]
    "typed-sim-global"

(* [describe]'s wildcard hides [Pong] (line 7) and [Ack] (line 8); the
   findings anchor to the constructor declarations. *)
let test_describe_coverage () =
  check_sites "wildcard-hidden constructors flagged at their declarations"
    [ (fx "tf_proto.ml", 7); (fx "tf_proto.ml", 8) ]
    "typed-describe-coverage"

(* [Seen] is built by Tf_emitter (outside the defining module); [Ignored]
   (line 7) is only built inside it, which must not count. *)
let test_event_emit () =
  check_sites "constructor never built outside the defining module"
    [ (fx "tf_events.ml", 7) ]
    "typed-event-emit"

(* Polymorphic [=] at Wal.Lsn.t in [bad] (line 5) and [<] at a type
   variable in [bad_var] (line 7); the int comparisons in [good] and
   [good_int] are fine. *)
let test_poly_compare () =
  check_sites "polymorphic compare at a protocol type or a type variable"
    [ (fx "tf_poly.ml", 5); (fx "tf_poly.ml", 7) ]
    "typed-poly-compare"

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
      Lint.Typed_rules.describe_checks =
        [
          ( "Lint_typed_fixtures.Tf_proto.gone",
            "Lint_typed_fixtures.Tf_proto.describe" );
        ];
      emit_checks =
        [ ("Lint_typed_fixtures.Tf_events.gone", fx "tf_events.ml") ];
      sim_scope = (fun _ -> false);
      sim_global_home = (fun _ -> false);
      poly_types = [];
    }
  in
  let fs =
    Lint.Typed_engine.lint_units ~config:cfg (Lazy.force fixture_units)
  in
  Alcotest.(check (list (pair string string)))
    "one manifest-rot finding per stale entry, anchored to the pseudo-file"
    [
      ("(typed-lint-manifest)", "typed-describe-coverage");
      ("(typed-lint-manifest)", "typed-event-emit");
      (fx "tf_poly.ml", "typed-poly-compare");
    ]
    (List.map (fun (f : Lint.Finding.t) -> (f.file, f.rule)) fs)

(* The same gate `dune build @lint-typed` enforces: the production config
   over the real library tree, zero findings expected.  Failure messages
   print the offending findings verbatim. *)
let test_real_tree_clean () =
  let fs = Lint.Typed_engine.lint ~cmt_roots:[ "../../lib" ] () in
  Alcotest.(check (list string))
    "typed tier is finding-free on the real tree" []
    (List.map Lint.Finding.to_string fs)

(* --update-baseline must write the same bytes for the same finding set
   regardless of input order or duplication: sorted by position (file,
   line, col, rule), deduplicated by key. *)
let test_baseline_order () =
  let mk rule file line col =
    Lint.Finding.make ~rule ~file ~line ~col "msg"
  in
  let findings =
    [
      mk "typed-sim-global" "lib/b.ml" 9 2;
      mk "determinism" "lib/a.ml" 12 0;
      mk "typed-sim-global" "lib/b.ml" 9 2;
      mk "stable-iteration" "lib/a.ml" 3 4;
    ]
  in
  let path = Filename.temp_file "aurora_lint_typed_baseline" ".txt" in
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
  Lint.Baseline.save path findings;
  let first = read () in
  Alcotest.(check (list string))
    "keys deduplicated and in source-position order"
    [
      "stable-iteration|lib/a.ml|3|4";
      "determinism|lib/a.ml|12|0";
      "typed-sim-global|lib/b.ml|9|2";
    ]
    first;
  Lint.Baseline.save path (List.rev findings);
  let second = read () in
  Sys.remove path;
  Alcotest.(check (list string))
    "byte-stable under input permutation" first second

let () =
  Alcotest.run "typed_lint"
    [
      ("loader", [ Alcotest.test_case "fixture units" `Quick test_loader ]);
      ( "rules",
        [
          Alcotest.test_case "sim-global" `Quick test_sim_global;
          Alcotest.test_case "describe-coverage" `Quick
            test_describe_coverage;
          Alcotest.test_case "event-emit" `Quick test_event_emit;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "no extra findings" `Quick
            test_no_extra_findings;
          Alcotest.test_case "manifest rot is loud" `Quick test_manifest_rot;
        ] );
      ( "gate",
        [
          Alcotest.test_case "real tree clean" `Quick test_real_tree_clean;
          Alcotest.test_case "baseline ordering" `Quick test_baseline_order;
        ] );
    ]
