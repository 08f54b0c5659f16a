(** The typed-tier rules: pure functions over {!Typed_summary} summaries.

    - [typed-sim-global] — top-level mutable state in sim-scoped modules
      must carry [@@sim_global], and the annotation is accepted only where
      {!config.sim_global_home} allows it.
    - [typed-describe-coverage] — every constructor of each type in
      {!config.describe_checks} must be matched by the paired function.
    - [typed-event-emit] — every constructor of each type in
      {!config.emit_checks} must be built somewhere outside the type's
      defining directory.
    - [typed-poly-compare] — no [Stdlib.compare]/[=]/[<]/... applied at a
      protocol type ({!config.poly_types}); the defining module is exempt.

    A manifest entry (type or function) that no longer resolves is itself
    a finding, so the manifests cannot rot silently. *)

type config = {
  sim_scope : string -> bool;
  sim_global_home : string -> bool;
  describe_checks : (string * string) list;
  emit_checks : (string * string) list;
  poly_types : string list;
}

val default : config
(** The production manifest for this repo (see DESIGN.md §6). *)

val catalogue : (string * string) list
(** (rule id, one-line description) for [aurora_lint --rules]. *)

val run : config -> Typed_summary.unit_summary list -> Finding.t list
(** All rules over all units.  Unsorted; the engine sorts. *)
