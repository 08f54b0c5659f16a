(* The typed-tier rule set: pure functions over {!Typed_summary} unit
   summaries.  See DESIGN.md §6 for the catalogue. *)

type config = {
  sim_scope : string -> bool;  (* logical source path is sim-scoped *)
  sim_global_home : string -> bool;  (* where [@@sim_global] is accepted *)
  describe_checks : (string * string) list;  (* (type, total function) *)
  emit_checks : (string * string) list;  (* (type, defining-dir prefix) *)
  poly_types : string list;  (* protocol types: no polymorphic compare *)
}

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let default =
  {
    sim_scope = (fun src -> has_prefix ~prefix:"lib/" src);
    sim_global_home = String.equal "lib/perf/probe.ml";
    describe_checks = [ ("Storage.Protocol.t", "Storage.Protocol.describe") ];
    emit_checks =
      [
        (* Event.of_json builds every constructor; Recorder.Sink is the
           writer's hook site, so it counts. *)
        ("Recorder.Event.t", "lib/recorder/event.ml");
        ("Recorder.Event.msg_kind", "lib/recorder");
      ];
    poly_types =
      [
        "Wal.Lsn.t";
        "Wal.Txn_id.t";
        "Wal.Block_id.t";
        "Quorum.Epoch.t";
        "Quorum.Member_id.t";
        "Storage.Pg_id.t";
        "Simnet.Addr.t";
      ];
  }

let catalogue =
  [
    ( "typed-sim-global",
      "top-level mutable state in lib/ needs [@@sim_global], accepted only \
       in lib/perf/probe.ml" );
    ( "typed-describe-coverage",
      "every Storage.Protocol constructor handled in Protocol.describe" );
    ( "typed-event-emit",
      "every Recorder.Event constructor emitted by some module other than \
       its own"
    );
    ( "typed-poly-compare",
      "no polymorphic compare on protocol types or at a type variable \
       (typed, catches local bindings)" );
  ]

open Typed_summary

(* Findings that guard against manifest rot (a renamed type or function
   would otherwise silently disable a rule) anchor to this pseudo-file. *)
let manifest_file = "(typed-lint-manifest)"

let index_bindings units =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun u ->
      List.iter (fun b -> Hashtbl.replace tbl b.b_name (b, u)) u.u_bindings)
    units;
  tbl

(* ---------------- sim-state purity ---------------- *)

(* Unannotated top-level mutable state is a finding, and so is the
   annotation anywhere but its one audited home: no new module-global
   state. *)
let sim_global cfg units =
  List.concat_map
    (fun u ->
      if not (cfg.sim_scope u.u_source) then []
      else
        let home = cfg.sim_global_home u.u_source in
        List.filter_map
          (fun b ->
            let finding line col msg =
              Some
                (Finding.make ~rule:"typed-sim-global" ~file:u.u_source ~line
                   ~col msg)
            in
            if b.b_sim_global && not home then
              finding b.b_line b.b_col
                (Printf.sprintf
                   "%s carries [@@sim_global] outside its audited home; keep \
                    the state in a value its owner creates"
                   b.b_name)
            else
              match b.b_mutable_evidence with
              | Some (line, col, desc)
                when (not b.b_is_function) && not b.b_sim_global ->
                finding line col
                  (Printf.sprintf
                     "top-level mutable state %s (%s) must be annotated \
                      [@@sim_global]"
                     b.b_name desc)
              | _ -> None)
          u.u_bindings)
    units

(* ---------------- protocol describe coverage ---------------- *)

let find_type units ty =
  List.fold_left
    (fun acc u ->
      match acc with
      | Some _ -> acc
      | None -> (
        match
          List.find_opt (fun d -> String.equal d.ty_name ty) u.u_types
        with
        | Some d -> Some (u, d)
        | None -> None))
    None units

let describe_coverage cfg units =
  let index = index_bindings units in
  let findings = ref [] in
  let manifest msg =
    findings :=
      Finding.make ~rule:"typed-describe-coverage" ~file:manifest_file
        ~line:1 ~col:0 msg
      :: !findings
  in
  List.iter
    (fun (ty, fn) ->
      match (find_type units ty, Hashtbl.find_opt index fn) with
      | None, _ ->
        manifest (Printf.sprintf "type %s not found (manifest rot?)" ty)
      | _, None ->
        manifest (Printf.sprintf "function %s not found (manifest rot?)" fn)
      | Some (tu, decl), Some (b, _) ->
        List.iter
          (fun c ->
            if
              not
                (List.exists
                   (fun cu ->
                     String.equal cu.cu_ty ty
                     && String.equal cu.cu_con c.c_name)
                   b.b_pat_cons)
            then
              findings :=
                Finding.make ~rule:"typed-describe-coverage" ~file:tu.u_source
                  ~line:c.c_line ~col:c.c_col
                  (Printf.sprintf "constructor %s of %s is not handled in %s"
                     c.c_name ty fn)
                :: !findings)
          decl.ty_cons)
    cfg.describe_checks;
  !findings

(* ---------------- event emission coverage ---------------- *)

let event_emit cfg units =
  let findings = ref [] in
  List.iter
    (fun (ty, defining_prefix) ->
      match find_type units ty with
      | None ->
        findings :=
          Finding.make ~rule:"typed-event-emit" ~file:manifest_file ~line:1
            ~col:0
            (Printf.sprintf "type %s not found (manifest rot?)" ty)
          :: !findings
      | Some (tu, decl) ->
        let emitted = Hashtbl.create 32 in
        List.iter
          (fun u ->
            if not (has_prefix ~prefix:defining_prefix u.u_source) then
              List.iter
                (fun b ->
                  List.iter
                    (fun cu ->
                      if String.equal cu.cu_ty ty then
                        Hashtbl.replace emitted cu.cu_con ())
                    b.b_exp_cons)
                u.u_bindings)
          units;
        List.iter
          (fun c ->
            if not (Hashtbl.mem emitted c.c_name) then
              findings :=
                Finding.make ~rule:"typed-event-emit" ~file:tu.u_source
                  ~line:c.c_line ~col:c.c_col
                  (Printf.sprintf
                     "constructor %s of %s is never emitted outside %s — \
                      dead event or missing hook site"
                     c.c_name ty defining_prefix)
                :: !findings)
          decl.ty_cons)
    cfg.emit_checks;
  !findings

(* ---------------- typed poly-compare ---------------- *)

(* The defining module is exempt: [Lsn.compare] itself is implemented on
   the underlying representation. *)
let defining_source units ty =
  match String.rindex_opt ty '.' with
  | None -> None
  | Some i -> (
    let m = String.sub ty 0 i in
    match List.find_opt (fun u -> String.equal u.u_modname m) units with
    | Some u -> Some u.u_source
    | None -> None)

(* A comparison at a type variable compiles to the C primitive
   ([caml_lessthan] and kin) whatever type the caller later passes, so it
   is flagged everywhere, defining module included. *)
let is_type_var ty = String.length ty > 0 && ty.[0] = '\''

let poly_compare cfg units =
  let findings = ref [] in
  List.iter
    (fun u ->
      List.iter
        (fun b ->
          List.iter
            (fun h ->
              let in_defining_module =
                match defining_source units h.p_ty with
                | Some src -> String.equal src u.u_source
                | None -> false
              in
              let flag msg =
                findings :=
                  Finding.make ~rule:"typed-poly-compare" ~file:u.u_source
                    ~line:h.p_line ~col:h.p_col msg
                  :: !findings
              in
              if is_type_var h.p_ty then
                flag
                  (Printf.sprintf
                     "polymorphic %s applied at a type variable (%s) — annotate \
                      the operands' type or use a typed compare/equal"
                     h.p_op h.p_ty)
              else if
                List.exists (String.equal h.p_ty) cfg.poly_types
                && not in_defining_module
              then
                flag
                  (Printf.sprintf
                     "polymorphic %s applied at type %s — use the \
                      module's typed compare/equal"
                     h.p_op h.p_ty))
            b.b_poly)
        u.u_bindings)
    units;
  !findings

let run cfg units =
  sim_global cfg units
  @ describe_coverage cfg units
  @ event_emit cfg units @ poly_compare cfg units
