(* The rule set: pure functions over {!Typed_summary} unit summaries.  See
   DESIGN.md §6 for the catalogue. *)

type config = {
  sim_scope : string -> bool;  (* logical source path is sim-scoped *)
  sim_global_home : string -> bool;  (* where [@@sim_global] is accepted *)
  describe_checks : (string * string) list;  (* (type, total function) *)
  emit_checks : (string * string) list;  (* (type, defining-dir prefix) *)
  protocol_modules : string list;  (* no polymorphic compare on their types *)
}

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let under dir path = has_prefix ~prefix:(dir ^ "/") path

(* ---------------------------------------------------------------- scopes -- *)

(* Sim code: everything compiled into the simulator, its CLI, and the
   benchmark harness.  Wall-clock timing of the harness itself is the one
   legitimate use of real time, and Perf.Clock is the one module allowed to
   perform it — everything else (bench/ included) must route wall-clock
   reads through it. *)
let sim_code path = under "lib" path || under "bin" path || under "bench" path

(* Modules whose hash-table iteration order can leak into JSON / trace /
   time-series output.  lib/obs is the whole observability layer; report
   renders experiment output directly; lib/vopr renders violation
   lists and repro digests whose byte-identity across reruns is the whole
   point; lib/recorder renders flight-recorder artifacts and explain
   timelines under the same byte-stability contract.  The experiment
   driver and the workload generator decide which keys a verdict reads
   and in what order, and those reads move the simulation that the
   experiment tables report. *)
let output_feeding path =
  under "lib/obs" path
  || under "lib/vopr" path
  || under "lib/recorder" path
  || under "lib/workload" path
  || path = "lib/harness/report.ml"
  || path = "lib/harness/experiments.ml"

(* The simulated commit path: every write, ack, coalesce, GC and read
   runs through these libraries, so their hash tables are functor
   instances keyed by their own type. *)
let commit_path path =
  List.exists
    (fun dir -> under dir path)
    [ "lib/core"; "lib/storage"; "lib/wal"; "lib/simnet"; "lib/simcore" ]

(* The perf layer's wall-clock gateway is the single audited module that
   may read real time (for profiling probes, never for simulated
   behaviour). *)
let determinism_scope p = sim_code p && p <> "lib/perf/clock.ml"

(* Stable is the one audited place allowed to fold a hash table: it exists
   to sort the bindings before anyone can observe their order. *)
let stable_iteration_scope p = output_feeding p && p <> "lib/obs/stable.ml"

let lsn_arith_scope p = p <> "lib/wal/lsn.ml"

(* Interface coverage, comparison at a type variable, and emission of an
   event are properties of the system, not of its tests or benchmarks. *)
let lib_only = under "lib"

let default =
  {
    sim_scope = lib_only;
    sim_global_home = String.equal "lib/perf/probe.ml";
    describe_checks = [ ("Storage.Protocol.t", "Storage.Protocol.describe") ];
    emit_checks =
      [
        (* Event.of_json builds every constructor; Recorder.Sink is the
           writer's hook site, so it counts. *)
        ("Recorder.Event.t", "lib/recorder/event.ml");
        ("Recorder.Event.msg_kind", "lib/recorder");
      ];
    protocol_modules =
      [
        "Wal.Lsn";
        "Wal.Txn_id";
        "Wal.Block_id";
        "Quorum.Epoch";
        "Quorum.Member_id";
        "Storage.Pg_id";
        "Simnet.Addr";
      ];
  }

let catalogue =
  [
    ( "determinism",
      "no Unix.*, Monotonic_clock.*, Sys.time, Random.*, or Hashtbl.hash in \
       sim code; route sim time through Simcore.Time_ns, randomness through \
       Simcore.Rng, and harness wall-clock through Perf.Clock" );
    ( "stable-iteration",
      "no Hashtbl.iter/fold in modules that feed JSON/trace/series output; \
       use Obs.Stable.sorted_bindings so emission order is key-sorted" );
    ( "poly-compare",
      "no polymorphic compare on protocol types (Lsn, Epoch, Txn_id, \
       Member_id, Pg_id, Block_id, Addr), nor at a type variable in lib/; \
       use the module's own equal/compare/min/max" );
    ("mli-coverage", "every lib/ unit has a matching .mli");
    ( "lsn-arith",
      "no raw integer arithmetic on LSN-carrying values outside \
       lib/wal/lsn.ml; use Lsn.next/Lsn.add or keep the arithmetic behind \
       the Lsn interface" );
    ( "generic-hashtbl",
      "no Hashtbl.<fn> values (the polymorphic table: a C-call hash and a \
       polymorphic compare per lookup) in lib/core, lib/storage, lib/wal, \
       lib/simnet and lib/simcore; use a Hashtbl.Make instance keyed by its \
       own type, or Simcore.Int_table" );
    ( "sim-global",
      "top-level mutable state in lib/ needs [@@sim_global], accepted only \
       in lib/perf/probe.ml" );
    ( "describe-coverage",
      "every Storage.Protocol constructor handled in Protocol.describe" );
    ( "event-emit",
      "every Recorder.Event constructor emitted by some lib/ module other \
       than its own" );
    ( Typed_loader.unlinted,
      "every .ml under the linted roots has a readable typed tree" );
  ]

open Typed_summary

let finding rule (u : unit_summary) line col msg =
  Finding.make ~rule ~file:u.u_source ~line ~col msg

(* Findings that guard against manifest rot (a renamed type or function
   would otherwise silently disable a rule) anchor to this pseudo-file. *)
let manifest_file = "(lint-manifest)"

let index_bindings units =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun u ->
      List.iter (fun b -> Hashtbl.replace tbl b.b_name (b, u)) u.u_bindings)
    units;
  tbl

(* ------------------------------------------------ named-value rules -- *)

(* [Stdlib.Random.int] reads as [Random.int]. *)
let components path =
  let parts = String.split_on_char '.' path in
  match parts with "Stdlib" :: rest -> rest | parts -> parts

let banned_value path =
  match components path with
  | ("Unix" | "UnixLabels") :: _ :: _ ->
    Some
      "wall-clock / OS entropy via Unix; use Simcore.Time_ns (sim time) or \
       Simcore.Rng (seeded randomness)"
  | "Monotonic_clock" :: _ :: _ ->
    Some "wall-clock via Monotonic_clock; route harness timing through \
          Perf.Clock"
  | [ "Sys"; "time" ] -> Some "process time via Sys.time; use Simcore.Time_ns"
  | "Random" :: _ :: _ ->
    Some "unseeded global randomness via Stdlib.Random; use Simcore.Rng"
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] ->
    Some
      "Hashtbl.hash on sim state; use an explicit deterministic hash \
       (Simcore.Bits.fnv1a_string) so block placement and checksums are \
       representation-independent"
  | _ -> None

(* A value of the generic table's module: the Stdlib's own, not a functor
   instance (whose path names the instance). *)
let generic_table_value path =
  match String.split_on_char '.' path with
  | [ "Stdlib"; "Hashtbl"; fn ] -> Some fn
  | _ -> None

(* The named values of [u] that [check] maps to a message, as findings of
   [rule], when [u] is in the rule's scope. *)
let over_refs rule scope check u =
  if not (scope u.u_source) then []
  else
    List.filter_map
      (fun r -> Option.map (finding rule u r.r_line r.r_col) (check r.r_path))
      u.u_refs

let determinism =
  over_refs "determinism" determinism_scope (fun path ->
      Option.map
        (Printf.sprintf "%s: %s" (String.concat "." (components path)))
        (banned_value path))

let generic_hashtbl =
  over_refs "generic-hashtbl" commit_path (fun path ->
      Option.map
        (Printf.sprintf
           "Hashtbl.%s on the commit path hashes with a C call and compares \
            polymorphically; use a Hashtbl.Make instance or Simcore.Int_table")
        (generic_table_value path))

let stable_iteration =
  over_refs "stable-iteration" stable_iteration_scope (fun path ->
      match generic_table_value path with
      | Some (("iter" | "fold") as fn) ->
        Some
          (Printf.sprintf
             "Hashtbl.%s in an output-feeding module iterates in hash order; \
              use Obs.Stable.sorted_bindings"
             fn)
      | _ -> None)

(* ------------------------------------------------------- lsn-arith -- *)

(* An int operand computed by a [Wal.Lsn] function carries an LSN. *)
let lsn_carrying path = has_prefix ~prefix:"Wal.Lsn." path

let lsn_arith u =
  if not (lsn_arith_scope u.u_source) then []
  else
    List.filter_map
      (fun a ->
        if List.exists lsn_carrying a.a_operands then
          Some
            (finding "lsn-arith" u a.a_line a.a_col
               (Printf.sprintf
                  "raw integer %s on an LSN-carrying value; use \
                   Lsn.next/Lsn.add or move the arithmetic behind \
                   lib/wal/lsn.ml"
                  (String.concat "." (components a.a_op))))
        else None)
      u.u_arith

(* ----------------------------------------------------- poly-compare -- *)

(* A comparison at a type variable compiles to the C primitive
   ([caml_lessthan] and kin) whatever type the caller later passes, so it
   is flagged in its scope, defining module included. *)
let is_type_var ty = String.length ty > 0 && ty.[0] = '\''

(* The first protocol type [h] mentions that [u] does not define: the
   defining unit implements [compare] itself on the representation.  A
   test against a constant constructor ([= []], [<> None]) compares no
   protocol value. *)
let foreign_protocol_type cfg u h =
  if h.p_tag_test then None
  else
    List.find_opt
      (fun ty ->
        List.exists
          (fun m -> has_prefix ~prefix:(m ^ ".") ty)
          cfg.protocol_modules
        && not (has_prefix ~prefix:(u.u_modname ^ ".") ty))
      h.p_mentions

(* Protocol types are policed in every root, type variables in lib/. *)
let poly_compare cfg u =
  let tyvar = lib_only u.u_source in
  List.filter_map
    (fun h ->
      let op = String.concat "." (components h.p_op) in
      if is_type_var h.p_ty then
        if tyvar then
          Some
            (finding "poly-compare" u h.p_line h.p_col
               (Printf.sprintf
                  "polymorphic %s applied at a type variable (%s) — annotate \
                   the operands' type or use a typed compare/equal"
                  op h.p_ty))
        else None
      else
        Option.map
          (fun ty ->
            finding "poly-compare" u h.p_line h.p_col
              (Printf.sprintf
                 "polymorphic %s applied at a value of type %s — use the \
                  module's typed compare/equal"
                 op ty))
          (foreign_protocol_type cfg u h))
    u.u_poly

(* ----------------------------------------------------- mli-coverage -- *)

let mli_coverage u =
  if lib_only u.u_source && not u.u_interface then
    [
      finding "mli-coverage" u 1 0
        (Printf.sprintf "missing interface %si" u.u_source);
    ]
  else []

(* ---------------- sim-state purity ---------------- *)

(* Unannotated top-level mutable state is a finding, and so is the
   annotation anywhere but its one audited home: no new module-global
   state. *)
let sim_global cfg u =
  if not (cfg.sim_scope u.u_source) then []
  else
    let home = cfg.sim_global_home u.u_source in
    List.filter_map
      (fun b ->
        if b.b_sim_global && not home then
          Some
            (finding "sim-global" u b.b_line b.b_col
               (Printf.sprintf
                  "%s carries [@@sim_global] outside its audited home; keep \
                   the state in a value its owner creates"
                  b.b_name))
        else
          match b.b_mutable_evidence with
          | Some (line, col, desc)
            when (not b.b_is_function) && not b.b_sim_global ->
            Some
              (finding "sim-global" u line col
                 (Printf.sprintf
                    "top-level mutable state %s (%s) must be annotated \
                     [@@sim_global]"
                    b.b_name desc))
          | _ -> None)
      u.u_bindings

(* ---------------- protocol describe coverage ---------------- *)

let find_type units ty =
  List.find_map
    (fun u ->
      List.find_opt (fun d -> String.equal d.ty_name ty) u.u_types
      |> Option.map (fun d -> (u, d)))
    units

let manifest_rot rule what name =
  Finding.make ~rule ~file:manifest_file ~line:1 ~col:0
    (Printf.sprintf "%s %s not found (manifest rot?)" what name)

let describe_coverage cfg units =
  let index = index_bindings units in
  List.concat_map
    (fun (ty, fn) ->
      match (find_type units ty, Hashtbl.find_opt index fn) with
      | None, _ -> [ manifest_rot "describe-coverage" "type" ty ]
      | _, None -> [ manifest_rot "describe-coverage" "function" fn ]
      | Some (tu, decl), Some (b, _) ->
        List.filter_map
          (fun c ->
            if
              List.exists
                (fun cu ->
                  String.equal cu.cu_ty ty && String.equal cu.cu_con c.c_name)
                b.b_pat_cons
            then None
            else
              Some
                (finding "describe-coverage" tu c.c_line c.c_col
                   (Printf.sprintf "constructor %s of %s is not handled in %s"
                      c.c_name ty fn)))
          decl.ty_cons)
    cfg.describe_checks

(* ---------------- event emission coverage ---------------- *)

(* Only lib/ units count as emitters: a constructor a test
   builds to exercise a printer is not emitted by the system. *)
let event_emit cfg units =
  List.concat_map
    (fun (ty, defining_prefix) ->
      match find_type units ty with
      | None -> [ manifest_rot "event-emit" "type" ty ]
      | Some (tu, decl) ->
        let emitted = Hashtbl.create 32 in
        List.iter
          (fun u ->
            if
              lib_only u.u_source
              && not (has_prefix ~prefix:defining_prefix u.u_source)
            then
              List.iter
                (fun b ->
                  List.iter
                    (fun cu ->
                      if String.equal cu.cu_ty ty then
                        Hashtbl.replace emitted cu.cu_con ())
                    b.b_exp_cons)
                u.u_bindings)
          units;
        List.filter_map
          (fun c ->
            if Hashtbl.mem emitted c.c_name then None
            else
              Some
                (finding "event-emit" tu c.c_line c.c_col
                   (Printf.sprintf
                      "constructor %s of %s is never emitted outside %s — \
                       dead event or missing hook site"
                      c.c_name ty defining_prefix)))
          decl.ty_cons)
    cfg.emit_checks

let run cfg units =
  List.concat_map
    (fun u ->
      determinism u @ stable_iteration u @ generic_hashtbl u @ lsn_arith u
      @ poly_compare cfg u @ mli_coverage u @ sim_global cfg u)
    units
  @ describe_coverage cfg units
  @ event_emit cfg units
