(** The rule set: pure functions over {!Typed_summary} summaries.

    Each rule is active in the units whose logical source path its scope
    accepts; allowlisted files are simply outside the scope.  The scopes
    are fixed (see DESIGN.md §6); {!config} holds only the manifests and
    the sim scope.  Rules match on the paths and types the compiler
    resolved, never on spellings (see {!Typed_summary}).

    - [determinism] — no [Unix.*], [Monotonic_clock.*], [Sys.time],
      [Random.*] or [Hashtbl.hash] in sim code.
    - [stable-iteration] — no [Hashtbl.iter]/[fold] in output-feeding
      modules.
    - [poly-compare] — no [Stdlib.compare]/[=]/[<]/... applied at a type
      that mentions a protocol type ({!config.protocol_modules}) outside
      its defining unit, nor, in [lib/], at a type variable.
    - [mli-coverage] — every [lib/] unit has an [.mli].
    - [lsn-arith] — no integer arithmetic on an operand computed by a
      [Wal.Lsn] function.
    - [generic-hashtbl] — no [Hashtbl.<fn>] value on the commit path.
    - [sim-global] — top-level mutable state in sim-scoped modules must
      carry [@@sim_global], and the annotation is accepted only where
      {!config.sim_global_home} allows it.
    - [describe-coverage] — every constructor of each type in
      {!config.describe_checks} must be matched by the paired function.
    - [event-emit] — every constructor of each type in
      {!config.emit_checks} must be built by some [lib/] unit outside the
      type's defining directory.

    A manifest entry (type or function) that no longer resolves is itself
    a finding, so the manifests cannot rot silently. *)

type config = {
  sim_scope : string -> bool;
  sim_global_home : string -> bool;
  describe_checks : (string * string) list;
  emit_checks : (string * string) list;
  protocol_modules : string list;
      (** A type defined in one of these modules, or in a submodule of
          one, is a protocol type. *)
}

val default : config
(** The production manifests for this repo (see DESIGN.md §6). *)

val catalogue : (string * string) list
(** (rule id, one-line description) for [aurora_lint --rules]. *)

val run : config -> Typed_summary.unit_summary list -> Finding.t list
(** All rules over all units.  Unsorted; the engine sorts. *)
