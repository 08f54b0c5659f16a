(** Tree walking, parsing, and rule dispatch.

    The engine turns on-disk paths into repo-root-relative logical paths
    ([../../lib/core/foo.ml] → [lib/core/foo.ml]) before consulting rules or
    reporting, so findings and baseline keys are identical whether the tool
    runs from the repo root, from a dune sandbox, or from a test directory.

    Directories named [_build], [.git], or [fixtures] are skipped —
    [fixtures] so that the lint test suite's deliberately-broken snippets
    under [test/lint/fixtures/] never count against the real tree. *)

val logical_path : string -> string
(** Strip leading [./] and [../] segments. *)


val lint_source : path:string -> string -> Finding.t list
(** [lint_source ~path contents] parses [contents] as an implementation and
    runs every expression-level rule active for logical [path].  A syntax
    error yields a single [parse-error] finding rather than an exception:
    unparseable sim code must fail the gate loudly.  Findings are sorted. *)

val lint_file : string -> Finding.t list
(** Read and lint one on-disk [.ml] file ([.mli] files get a parse check
    only). *)

val lint_tree : roots:string list -> Finding.t list
(** Lint every source file under [roots] and apply the file-set rules
    (mli-coverage).  Sorted and deduplicated. *)
