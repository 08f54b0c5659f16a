(** Per-module summaries extracted from typed trees.

    One pass over each unit's typedtree produces, per top-level binding:
    constructors matched in patterns and built in expressions, typed
    comparison applications, and mutable-state evidence.  The rules in
    {!Typed_rules} are pure functions over these summaries, which keeps
    them unit-testable without compiler-libs plumbing. *)

type con_use = { cu_ty : string; cu_con : string }
type poly_hit = { p_line : int; p_col : int; p_op : string; p_ty : string }
(** A comparison primitive applied at [p_ty]: a qualified type name, or a
    type variable written with its quote (["'a"], ["'_"] if unnamed). *)

type binding = {
  b_name : string;  (** Qualified, e.g. ["Simcore.Sim.schedule_at"]. *)
  b_line : int;
  b_col : int;
  b_is_function : bool;  (** The bound expression is a [fun]/[function]. *)
  b_pat_cons : con_use list;  (** Constructors this binding matches on. *)
  b_exp_cons : con_use list;  (** Constructors this binding builds. *)
  b_poly : poly_hit list;  (** Polymorphic-compare applications, typed. *)
  b_mutable_evidence : (int * int * string) option;
      (** First sign the binding creates mutable storage (ref/table/array). *)
  b_sim_global : bool;  (** Carries [@@sim_global]. *)
}

type tycon = { c_name : string; c_line : int; c_col : int }
type tydecl = { ty_name : string; ty_cons : tycon list }

type unit_summary = {
  u_modname : string;
  u_source : string;
  u_bindings : binding list;
  u_types : tydecl list;  (** Variant declarations, qualified names. *)
}

val summarize : Typed_loader.unit_info -> unit_summary
