(** The typed lint tier: cmt loading → summaries → interprocedural rules.

    Findings come back as plain {!Finding.t}s, so the baseline, JSON
    output, and exit-code plumbing are shared with the parse tier.  See
    DESIGN.md §6 for the rule catalogue ([typed-sim-global],
    [typed-describe-coverage], [typed-event-emit], [typed-poly-compare])
    and the [@@sim_global] annotation. *)

val lint_units :
  ?config:Typed_rules.config -> Typed_loader.unit_info list -> Finding.t list
(** Summarize and check an explicit unit list (tests feed fixture units
    here).  Sorted and deduplicated. *)

val lint :
  ?config:Typed_rules.config -> cmt_roots:string list -> unit -> Finding.t list
(** Load every [.cmt] under the given roots (skipping [fixtures]
    directories) and check them. *)

val default_cmt_roots : unit -> string list
(** [_build/default/lib] from the repo root, [lib] when already running
    inside the dune build context. *)
