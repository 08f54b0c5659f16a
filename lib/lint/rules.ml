open Ppxlib

(* ---------------------------------------------------------------- paths -- *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let under dir path = has_prefix ~prefix:(dir ^ "/") path

(* Sim code: everything compiled into the simulator, its CLI, and the
   benchmark harness.  Wall-clock timing of the harness itself is the one
   legitimate use of real time, and Perf.Clock is the one module allowed to
   perform it — everything else (bench/ included) must route wall-clock
   reads through it. *)
let sim_code path =
  under "lib" path || under "bin" path || under "bench" path

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

(* ---------------------------------------------------------------- rules -- *)

type rule = {
  id : string;
  description : string;
  applies : string -> bool;
  allow : string list;
}

let determinism =
  {
    id = "determinism";
    description =
      "no Unix.*, Monotonic_clock.*, Sys.time, Random.*, or Hashtbl.hash \
       in sim code; route sim time through Simcore.Time_ns, randomness \
       through Simcore.Rng, and harness wall-clock through Perf.Clock";
    applies = sim_code;
    (* The perf layer's wall-clock gateway: the single audited module that
       may read real time (for profiling probes, never for simulated
       behaviour). *)
    allow = [ "lib/perf/clock.ml" ];
  }

let stable_iteration =
  {
    id = "stable-iteration";
    description =
      "no Hashtbl.iter/fold in modules that feed JSON/trace/series output; \
       use Obs.Stable.sorted_bindings so emission order is key-sorted";
    applies = output_feeding;
    (* Stable is the one audited place allowed to fold a hash table: it
       exists to sort the bindings before anyone can observe their order. *)
    allow = [ "lib/obs/stable.ml" ];
  }

let poly_compare =
  {
    id = "poly-compare";
    description =
      "no polymorphic =, <>, compare, min, max on abstract protocol types \
       (Lsn.t, Epoch.t, Txn_id.t, Member_id.t, Pg_id.t); use the module's \
       own equal/compare/min/max";
    applies = (fun _ -> true);
    (* The defining modules implement those functions. *)
    allow =
      [
        "lib/wal/lsn.ml";
        "lib/wal/txn_id.ml";
        "lib/quorum/epoch.ml";
        "lib/quorum/member_id.ml";
        "lib/storage/pg_id.ml";
      ];
  }

let mli_coverage_rule =
  {
    id = "mli-coverage";
    description = "every lib/**/*.ml must have a matching .mli";
    applies = (fun path -> under "lib" path);
    allow = [];
  }

let lsn_arith =
  {
    id = "lsn-arith";
    description =
      "no raw integer arithmetic on LSN-carrying values outside \
       lib/wal/lsn.ml; use Lsn.next/Lsn.add or keep the arithmetic behind \
       the Lsn interface";
    applies = (fun _ -> true);
    allow = [ "lib/wal/lsn.ml" ];
  }

let generic_hashtbl =
  {
    id = "generic-hashtbl";
    description =
      "no Hashtbl.<fn> values (the polymorphic table: a C-call hash and a \
       polymorphic compare per lookup) in lib/core, lib/storage, lib/wal, \
       lib/simnet and lib/simcore; use a Hashtbl.Make instance keyed by its \
       own type, or Simcore.Int_table";
    applies = commit_path;
    allow = [];
  }

let all =
  [
    determinism;
    stable_iteration;
    poly_compare;
    mli_coverage_rule;
    lsn_arith;
    generic_hashtbl;
  ]

let find id = List.find_opt (fun r -> r.id = id) all

let active r path =
  r.applies path
  && not (List.exists (fun a -> a = path || under a path) r.allow)

(* ------------------------------------------------------- ident matching -- *)

let flatten lid = try Longident.flatten_exn lid with Invalid_argument _ -> []

(* [Stdlib.Random.int] and [Random.int] are the same thing to a rule. *)
let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let protocol_modules = [ "Lsn"; "Epoch"; "Txn_id"; "Member_id"; "Pg_id" ]

(* Accessors that return a non-protocol type even though the path mentions a
   protocol module: [Lsn.to_int x = 3] is an int comparison, not a
   protocol-type comparison. *)
let escapes_protocol_type name =
  has_prefix ~prefix:"to_" name
  || has_prefix ~prefix:"is_" name
  || List.mem name
       [ "pp"; "cardinal"; "length"; "compare"; "equal"; "hash"; "diff" ]

(* A path mentions a protocol module and its final component is not a
   known type-escaping accessor: [Lsn.none] and [Member_id.Set.min_elt]
   count (polymorphic compare on Set.t values is just as broken as on t);
   [Lsn.to_int] and [Member_id.Set.cardinal] do not — they return plain
   ints. *)
let protocol_module_of parts =
  match List.find_opt (fun p -> List.mem p protocol_modules) parts with
  | None -> None
  | Some m ->
    (match List.rev parts with
    | last :: _ :: _ when escapes_protocol_type last -> None
    | _ -> Some m)

let rec type_mentions_protocol (ty : core_type) =
  match ty.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, args) ->
    (match protocol_module_of (flatten txt) with
    | Some m -> Some m
    | None -> List.find_map type_mentions_protocol args)
  | Ptyp_tuple tys -> List.find_map type_mentions_protocol tys
  | Ptyp_arrow (_, a, b) ->
    (match type_mentions_protocol a with
    | Some m -> Some m
    | None -> type_mentions_protocol b)
  | _ -> None

(* Does this operand look like a protocol-typed value?  Shallow structural
   walk: qualified idents, application heads, constraints, tuples and
   constructor arguments.  Anything opaque (a record field, a plain local
   identifier) yields None — the documented false-negative half of the
   approximation. *)
let rec operand_protocol (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> protocol_module_of (flatten txt)
  | Pexp_apply (f, _) -> operand_protocol f
  | Pexp_constraint (inner, ty) ->
    (match type_mentions_protocol ty with
    | Some m -> Some m
    | None -> operand_protocol inner)
  | Pexp_construct (_, Some inner) -> operand_protocol inner
  | Pexp_tuple es -> List.find_map operand_protocol es
  | _ -> None

(* [Lsn]-mentioning operand for the arithmetic rule.  Unlike poly-compare,
   [Lsn.to_int x + 1] is precisely the smell being hunted, so no accessor
   escape — only pretty-printers and counts ([Lsn.Tbl.length],
   [Lsn.Set.cardinal]: how many, not which LSN) are exempt. *)
let rec operand_mentions_lsn (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    let parts = flatten txt in
    List.mem "Lsn" parts
    && (match List.rev parts with
       | last :: _ -> not (List.mem last [ "pp"; "to_string"; "length"; "cardinal" ])
       | [] -> false)
  | Pexp_apply (f, _) -> operand_mentions_lsn f
  | Pexp_constraint (inner, ty) ->
    (match type_mentions_protocol ty with
    | Some "Lsn" -> true
    | _ -> operand_mentions_lsn inner)
  | _ -> false

let poly_ops = [ "="; "<>"; "compare"; "min"; "max" ]
let arith_ops = [ "+"; "-"; "*"; "/"; "mod" ]

(* The operator of an application, if it is an unqualified (or
   Stdlib-qualified) name from [ops].  Module-qualified operators like
   [Lsn.( < )] are the *fix*, not a finding. *)
let bare_op ops (f : expression) =
  match f.pexp_desc with
  | Pexp_ident { txt = Lident op; _ } when List.mem op ops -> Some op
  | Pexp_ident { txt = Ldot (Lident "Stdlib", op); _ } when List.mem op ops ->
    Some op
  | _ -> None

(* ------------------------------------------------- per-expression rules -- *)

let banned_ident parts =
  match strip_stdlib parts with
  | ("Unix" | "UnixLabels") :: _ ->
    Some "wall-clock / OS entropy via Unix; use Simcore.Time_ns (sim time) \
          or Simcore.Rng (seeded randomness)"
  | "Monotonic_clock" :: _ ->
    Some "wall-clock via Monotonic_clock; route harness timing through \
          Perf.Clock"
  | [ "Sys"; "time" ] ->
    Some "process time via Sys.time; use Simcore.Time_ns"
  | "Random" :: _ ->
    Some "unseeded global randomness via Stdlib.Random; use Simcore.Rng"
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] ->
    Some "Hashtbl.hash on sim state; use an explicit deterministic hash \
          (Simcore.Bits.fnv1a_string) so block placement and checksums are \
          representation-independent"
  | _ -> None

(* A value of the generic table's module; [Hashtbl.Make] and [Hashtbl.S]
   are a functor and a module type, never an expression. *)
let generic_table_value parts =
  match strip_stdlib parts with [ "Hashtbl"; fn ] -> Some fn | _ -> None

let hash_iteration parts =
  match strip_stdlib parts with
  | [ "Hashtbl"; (("iter" | "fold") as fn) ] -> Some fn
  | _ -> None

(* ---------------------------------------------------------- the walker -- *)

let finding ~rule ~path ~(loc : Location.t) message =
  Finding.make ~rule ~file:path ~line:loc.loc_start.pos_lnum
    ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
    message

let check_structure ~path st =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let det = active determinism path in
  let stable = active stable_iteration path in
  let poly = active poly_compare path in
  let arith = active lsn_arith path in
  let generic = active generic_hashtbl path in
  let visitor =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; loc } ->
          let parts = flatten txt in
          let name = String.concat "." parts in
          (if det then
             match banned_ident parts with
             | Some why ->
               emit
                 (finding ~rule:determinism.id ~path ~loc
                    (Printf.sprintf "%s: %s" name why))
             | None -> ());
          (if generic then
             match generic_table_value parts with
             | Some fn ->
               emit
                 (finding ~rule:generic_hashtbl.id ~path ~loc
                    (Printf.sprintf
                       "Hashtbl.%s on the commit path hashes with a C call and \
                        compares polymorphically; use a Hashtbl.Make instance \
                        or Simcore.Int_table"
                       fn))
             | None -> ());
          if stable then (
            match hash_iteration parts with
            | Some fn ->
              emit
                (finding ~rule:stable_iteration.id ~path ~loc
                   (Printf.sprintf
                      "Hashtbl.%s in an output-feeding module iterates in \
                       hash order; use Obs.Stable.sorted_bindings"
                      fn))
            | None -> ())
        | Pexp_apply (f, args) ->
          (if poly then
             match bare_op poly_ops f with
             | Some op ->
               (match
                  List.find_map (fun (_, arg) -> operand_protocol arg) args
                with
               | Some m ->
                 emit
                   (finding ~rule:poly_compare.id ~path ~loc:e.pexp_loc
                      (Printf.sprintf
                         "polymorphic %s on a value that looks like %s.t; \
                          use %s.%s"
                         op m m
                         (match op with
                         | "=" -> "equal"
                         | "<>" -> "equal (negated)"
                         | op -> op)))
               | None -> ())
             | None -> ());
          if arith then (
            match bare_op arith_ops f with
            | Some op ->
              if List.exists (fun (_, arg) -> operand_mentions_lsn arg) args
              then
                emit
                  (finding ~rule:lsn_arith.id ~path ~loc:e.pexp_loc
                     (Printf.sprintf
                        "raw integer %s on an LSN-carrying value; use \
                         Lsn.next/Lsn.add or move the arithmetic behind \
                         lib/wal/lsn.ml"
                        op))
            | None -> ())
        | _ -> ());
        super#expression e
    end
  in
  visitor#structure st;
  !findings

(* ------------------------------------------------------- file-set rule -- *)

let mli_coverage ~ml_files ~mli_files =
  let mlis = List.sort_uniq String.compare mli_files in
  let has_mli ml = List.mem (ml ^ "i") mlis in
  List.filter_map
    (fun ml ->
      if active mli_coverage_rule ml && not (has_mli ml) then
        Some
          (Finding.make ~rule:mli_coverage_rule.id ~file:ml ~line:1 ~col:0
             (Printf.sprintf "missing interface %si" ml))
      else None)
    (List.sort_uniq String.compare ml_files)
