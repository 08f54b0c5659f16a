(* aurora_lint — static-analysis gate for determinism, protocol-type
   discipline, and interface hygiene, over the compiler's .cmt typed
   trees.  See DESIGN.md §6 for the rule catalogue and the baseline
   workflow.

   Exit status: 0 when every finding is baselined (or none), 1 otherwise,
   2 on usage errors or when no typed tree was found at all. *)

let usage =
  Printf.sprintf
    "usage: aurora_lint [options] [dir ...]\n\
     Lints the typed trees (.cmt) compiled from the given source \
     directories (default: %s), read from _build/default/<dir>, or <dir> \
     inside the build context.\n"
    (String.concat " " Lint.Typed_engine.default_roots)

let () =
  let json = ref false in
  let update = ref false in
  let list_rules = ref false in
  let baseline_path = ref "lint/baseline.txt" in
  let roots = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " emit findings as a JSON array on stdout");
      ( "--baseline",
        Arg.Set_string baseline_path,
        "FILE suppression baseline (default lint/baseline.txt)" );
      ( "--update-baseline",
        Arg.Set update,
        " rewrite the baseline to cover all current findings, then exit 0" );
      ("--rules", Arg.Set list_rules, " list the rule catalogue and exit");
    ]
  in
  Arg.parse (Arg.align spec) (fun dir -> roots := dir :: !roots) usage;
  if !list_rules then begin
    List.iter
      (fun (id, description) -> Printf.printf "%-20s %s\n" id description)
      Lint.Typed_rules.catalogue;
    exit 0
  end;
  let roots =
    match List.rev !roots with
    | [] -> Lint.Typed_engine.default_roots
    | roots -> roots
  in
  let units, findings = Lint.Typed_engine.lint ~roots () in
  (* No units at all means the build tree has no .cmt files — the gate
     would vacuously pass, which must be loud, not silent. *)
  (match units with
  | [] ->
    Printf.eprintf
      "aurora_lint: error: no .cmt files for [%s] — build first (dune build \
       @check)\n"
      (String.concat "; " roots);
    exit 2
  | _ :: _ -> ());
  if !update then begin
    Lint.Baseline.save !baseline_path findings;
    Printf.eprintf "aurora_lint: baselined %d finding(s) into %s\n"
      (List.length findings) !baseline_path;
    exit 0
  end;
  let baseline = Lint.Baseline.load !baseline_path in
  let fresh, suppressed =
    List.partition (fun f -> not (Lint.Baseline.mem baseline f)) findings
  in
  if !json then print_string (Lint.Finding.list_to_json fresh)
  else List.iter (fun f -> print_endline (Lint.Finding.to_string f)) fresh;
  Printf.eprintf "aurora_lint: %d finding(s), %d suppressed by baseline\n"
    (List.length fresh) (List.length suppressed);
  match fresh with
  | [] -> exit 0
  | _ ->
    Printf.eprintf
      "aurora_lint: fix the findings above, extend a rule scope with \
       justification, or freeze them with --update-baseline\n";
    exit 1
