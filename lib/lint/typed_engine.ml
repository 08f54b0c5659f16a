(* Orchestration: load .cmt trees, summarize, run the rules, and return
   sorted findings. *)

let default_roots = [ "lib"; "bin"; "bench"; "test"; "perfbench" ]

let lint ~roots () =
  let units, unlinted = Typed_loader.load ~roots in
  let summaries = List.map Typed_summary.summarize units in
  let findings = Typed_rules.run Typed_rules.default summaries in
  (units, List.sort_uniq Finding.compare (unlinted @ findings))
