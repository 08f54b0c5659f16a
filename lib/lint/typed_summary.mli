(** Per-module summaries extracted from typed trees.

    One pass over each unit's typedtree produces what the rules in
    {!Typed_rules} read: per top-level binding, the constructors it
    matches and builds and its mutable-state evidence; per unit, every
    value it names, its integer arithmetic and its comparison
    applications.  The rules are pure functions over these summaries,
    which keeps them unit-testable without compiler-libs plumbing.

    Every path is the one the compiler resolved, with unit-local module
    aliases ([module H = Hashtbl]) seen through, dune's [Lib__Module]
    mangling undone, and a path into a module defined in the unit itself
    qualified with the unit's name: [H.iter] reads
    ["Stdlib.Hashtbl.iter"], and in [Wal.Hot_log] a local
    [module By_lsn = Hashtbl.Make (...)] makes [By_lsn.find] read
    ["Wal.Hot_log.By_lsn.find"]. *)

type con_use = { cu_ty : string; cu_con : string }

type value_ref = { r_path : string; r_line : int; r_col : int }
(** A value named by a qualified path, at the path's position.  Local
    variables are not recorded. *)

type arith_hit = {
  a_line : int;
  a_col : int;
  a_op : string;
  a_operands : string list;
      (** The head path of each operand that is a named value or an
          application of one ([Wal.Lsn.to_int] in [Lsn.to_int l + 1]). *)
}
(** An application of [Stdlib.( + )], [( - )], [( * )], [( / )] or [mod]. *)

type poly_hit = {
  p_line : int;
  p_col : int;
  p_op : string;
  p_ty : string;
      (** The first operand's type: a qualified type name, or a type
          variable written with its quote (["'a"], ["'_"] if unnamed). *)
  p_mentions : string list;
      (** Every type constructor the operands' types mention, heads
          included ([option] and [Wal.Lsn.t] for [Lsn.t option]). *)
  p_tag_test : bool;
      (** An operand is a constant constructor ([[]], [None]), so the
          comparison only tests a tag. *)
}
(** A comparison primitive ([Stdlib.compare], [=], [<], [min], ...)
    applied to at least one argument. *)

type binding = {
  b_name : string;  (** Qualified, e.g. ["Simcore.Sim.schedule_at"]. *)
  b_line : int;
  b_col : int;
  b_is_function : bool;  (** The bound expression is a [fun]/[function]. *)
  b_pat_cons : con_use list;  (** Constructors this binding matches on. *)
  b_exp_cons : con_use list;  (** Constructors this binding builds. *)
  b_mutable_evidence : (int * int * string) option;
      (** First sign the binding creates mutable storage (ref/table/array). *)
  b_sim_global : bool;  (** Carries [@@sim_global]. *)
}

type tycon = { c_name : string; c_line : int; c_col : int }
type tydecl = { ty_name : string; ty_cons : tycon list }

type unit_summary = {
  u_modname : string;
  u_source : string;
  u_interface : bool;  (** The unit has an [.mli]. *)
  u_bindings : binding list;
  u_types : tydecl list;  (** Variant declarations, qualified names. *)
  u_refs : value_ref list;
  u_arith : arith_hit list;
  u_poly : poly_hit list;
}

val summarize : Typed_loader.unit_info -> unit_summary
