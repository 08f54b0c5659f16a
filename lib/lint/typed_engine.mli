(** The lint gate: cmt loading → summaries → rules.

    See DESIGN.md §6 for the rule catalogue and the [@@sim_global]
    annotation. *)

val default_roots : string list
(** The source roots the gate covers: [lib bin bench test perfbench]. *)

val lint :
  roots:string list -> unit -> Typed_loader.unit_info list * Finding.t list
(** Load every [.cmt] of the given source roots (skipping [fixtures]
    directories) and check them under {!Typed_rules.default}: the units
    loaded, and the loader's [unlinted] findings with the rules' findings,
    sorted and deduplicated. *)
