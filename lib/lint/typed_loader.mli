(** Loading typed trees ([.cmt] bin-annot files) from the dune build tree.

    The lint gate analyzes what the compiler actually saw — resolved
    paths, inferred types, constructor representations — rather than
    syntax.  Dune writes a [.cmt] next to every compiled module (under
    [<dir>/.<lib>.objs/byte/]).  Source roots are named as in the source
    tree ([lib], [test]); {!load} finds their [.cmt] files under
    [_build/default/<root>] from the repo root, or under [<root>] itself
    when already running inside the build context.

    A source the gate cannot lint is a finding ([unlinted]), never a
    silent skip: an unreadable or version-mismatched [.cmt], and an [.ml]
    (or [.mli]) under a root that no [.cmt] was compiled from. *)

type unit_info = {
  modname : string;
      (** Dotted module path, e.g. ["Simcore.Sim"] (dune's [Lib__Module]
          mangling undone). *)
  source : string;
      (** Repo-root-relative source path, e.g. ["lib/simcore/sim.ml"]. *)
  has_interface : bool;
      (** A [.cmti] sits next to the [.cmt]: the unit has an [.mli]. *)
  structure : Typedtree.structure;
}

val normalize_modname : string -> string
(** [Simcore__Sim] → [Simcore.Sim]. *)

val logical_path : string -> string
(** Strip leading [./] and [../] segments, so findings read the same from
    the repo root, a dune sandbox, or a test directory. *)

val unlinted : string
(** The rule id of the loader's own findings. *)

val load_dir : string -> unit_info list * Finding.t list
(** Every implementation [.cmt] under one directory, sorted by source
    path, and an [unlinted] finding per unreadable [.cmt].  Does not skip
    [fixtures] directories — the lint test suite uses this to load its
    deliberately-broken fixture library. *)

val load : roots:string list -> unit_info list * Finding.t list
(** {!load_dir} over the build directory of each source root, skipping
    directories named [fixtures] so fixture code never counts against the
    real tree, plus an [unlinted] finding for each [.ml] under a root with
    no unit compiled from it, and each [.mli] whose [.ml] has none. *)
