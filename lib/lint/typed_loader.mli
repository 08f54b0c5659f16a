(** Loading typed trees ([.cmt] bin-annot files) from the dune build tree.

    The typed lint tier analyzes what the compiler actually saw — resolved
    paths, inferred types, constructor representations — rather than
    syntax.  Dune writes a [.cmt] next to every compiled module (under
    [<dir>/.<lib>.objs/byte/]); pointing {!load_tree} at
    [_build/default/lib] (or [lib] when already inside the build context)
    yields one {!unit_info} per implementation. *)

type unit_info = {
  modname : string;
      (** Dotted module path, e.g. ["Simcore.Sim"] (dune's [Lib__Module]
          mangling undone). *)
  source : string;
      (** Repo-root-relative source path, e.g. ["lib/simcore/sim.ml"]. *)
  structure : Typedtree.structure;
}

val normalize_modname : string -> string
(** [Simcore__Sim] → [Simcore.Sim]. *)

val load_dir : string -> unit_info list
(** Every implementation [.cmt] under one directory, sorted by source
    path.  Does not skip [fixtures] directories — the lint test suite uses
    this to load its deliberately-broken fixture library. *)

val load_tree : roots:string list -> unit_info list
(** Like {!load_dir} over several roots, but skips directories named
    [fixtures] so fixture code never counts against the real tree. *)
