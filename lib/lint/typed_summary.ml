(* Per-module summaries extracted from typed trees.

   One walk per top-level binding collects everything the rules need:
   constructors matched in patterns and built in expressions, typed
   comparison applications, and top-level mutable-state evidence.  The
   rules in {!Typed_rules} are then pure functions over these summaries. *)

type con_use = { cu_ty : string; cu_con : string }
type poly_hit = { p_line : int; p_col : int; p_op : string; p_ty : string }

type binding = {
  b_name : string;  (* qualified, e.g. "Simcore.Sim.schedule_at" *)
  b_line : int;
  b_col : int;
  b_is_function : bool;
  b_pat_cons : con_use list;
  b_exp_cons : con_use list;
  b_poly : poly_hit list;
  b_mutable_evidence : (int * int * string) option;
  b_sim_global : bool;  (* carries [@@sim_global] *)
}

type tycon = { c_name : string; c_line : int; c_col : int }
type tydecl = { ty_name : string; ty_cons : tycon list }

type unit_summary = {
  u_modname : string;
  u_source : string;
  u_bindings : binding list;
  u_types : tydecl list;
}

let line_col (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let has_attr name (attrs : Typedtree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

let normalize_path p = Typed_loader.normalize_modname (Path.name p)

(* Comparison primitives whose polymorphic use on protocol types the typed
   poly-compare rule rejects. *)
let poly_ops =
  [
    "Stdlib.compare"; "Stdlib.="; "Stdlib.<>"; "Stdlib.<"; "Stdlib.>";
    "Stdlib.<="; "Stdlib.>="; "Stdlib.min"; "Stdlib.max";
  ]

let has_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

(* Creator applications that make a top-level binding mutable state for the
   sim-state purity rule. *)
let mutable_creator name =
  String.equal name "Stdlib.ref"
  || has_suffix ~suffix:".create" name
  || List.exists (String.equal name)
       [
         "Stdlib.Array.make"; "Stdlib.Array.init"; "Stdlib.Array.copy";
         "Stdlib.Atomic.make"; "Stdlib.Bytes.make"; "Stdlib.Bytes.create";
       ]

(* ------------------------------------------------------------------ *)
(* Per-binding collector state.                                        *)

type ctx = {
  unit_name : string;
  mutable pat_cons : con_use list;
  mutable exp_cons : con_use list;
  mutable poly : poly_hit list;
  mutable mut_ev : (int * int * string) option;
}

let note_mut ctx desc (loc : Location.t) =
  match ctx.mut_ev with
  | Some _ -> ()
  | None ->
    let line, col = line_col loc in
    ctx.mut_ev <- Some (line, col, desc)

(* Qualify an unqualified type name ("t" inside its defining unit) with the
   unit's module path. *)
let qualify_ty ctx name =
  if String.contains name '.' then name else ctx.unit_name ^ "." ^ name

let con_of_desc ctx (cd : Types.constructor_description) =
  match Types.get_desc cd.cstr_res with
  | Types.Tconstr (p, _, _) ->
    Some { cu_ty = qualify_ty ctx (normalize_path p); cu_con = cd.cstr_name }
  | _ -> None

let iterator ctx =
  let open Tast_iterator in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_construct (_, cd, _) -> (
      match con_of_desc ctx cd with
      | Some cu -> ctx.exp_cons <- cu :: ctx.exp_cons
      | None -> ())
    | Typedtree.Texp_record { fields; _ } ->
      if
        Array.exists
          (fun ((ld : Types.label_description), _) ->
            ld.lbl_mut = Asttypes.Mutable)
          fields
      then note_mut ctx "mutable record" e.exp_loc
    | Typedtree.Texp_array _ -> note_mut ctx "array literal" e.exp_loc
    | Typedtree.Texp_apply (fn, args) -> (
      match fn.exp_desc with
      | Typedtree.Texp_ident (p, _, _) -> (
        let name = normalize_path p in
        if mutable_creator name then note_mut ctx name e.exp_loc;
        if List.exists (String.equal name) poly_ops then
          match args with
        | (_, Some arg1) :: _ -> (
          let hit ty =
            let line, col = line_col e.exp_loc in
            ctx.poly <- { p_line = line; p_col = col; p_op = name; p_ty = ty } :: ctx.poly
          in
          match Types.get_desc arg1.exp_type with
          | Types.Tconstr (tp, _, _) -> hit (qualify_ty ctx (normalize_path tp))
          | Types.Tvar v -> hit ("'" ^ Option.value v ~default:"_")
          | _ -> ())
        | _ -> ())
      | _ -> ())
    | _ -> ());
    default_iterator.expr it e
  in
  let pat : type k. iterator -> k Typedtree.general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Typedtree.Tpat_construct (_, cd, _, _) -> (
      match con_of_desc ctx cd with
      | Some cu -> ctx.pat_cons <- cu :: ctx.pat_cons
      | None -> ())
    | _ -> ());
    default_iterator.pat it p
  in
  { default_iterator with expr; pat }

let dedup_cons l =
  List.sort_uniq
    (fun a b ->
      match String.compare a.cu_ty b.cu_ty with
      | 0 -> String.compare a.cu_con b.cu_con
      | c -> c)
    l

let summarize_binding ~unit_name ~name (vb : Typedtree.value_binding) =
  let ctx =
    { unit_name; pat_cons = []; exp_cons = []; poly = []; mut_ev = None }
  in
  let it = iterator ctx in
  it.expr it vb.vb_expr;
  let line, col = line_col vb.vb_loc in
  {
    b_name = name;
    b_line = line;
    b_col = col;
    b_is_function =
      (match vb.vb_expr.exp_desc with
      | Typedtree.Texp_function _ -> true
      | _ -> false);
    b_pat_cons = dedup_cons ctx.pat_cons;
    b_exp_cons = dedup_cons ctx.exp_cons;
    b_poly = List.rev ctx.poly;
    b_mutable_evidence = ctx.mut_ev;
    b_sim_global = has_attr "sim_global" vb.vb_attributes;
  }

(* ------------------------------------------------------------------ *)
(* Structure walk: summarize each binding, descending into nested modules
   with a dotted prefix.                                                *)

let pattern_idents (p : Typedtree.pattern) =
  let acc = ref [] in
  let rec go (p : Typedtree.pattern) =
    match p.pat_desc with
    | Typedtree.Tpat_var (id, _) -> acc := id :: !acc
    | Typedtree.Tpat_alias (sub, id, _) ->
      acc := id :: !acc;
      go sub
    | Typedtree.Tpat_tuple ps -> List.iter go ps
    | _ -> ()
  in
  go p;
  List.rev !acc

let rec module_structure (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_structure str -> Some str
  | Typedtree.Tmod_constraint (me, _, _, _) -> module_structure me
  | _ -> None

let rec collect_items ~unit_name ~prefix (str : Typedtree.structure) ~bindings
    ~types =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let name =
              match pattern_idents vb.vb_pat with
              | [ id ] -> prefix ^ "." ^ Ident.name id
              | _ ->
                let line, _ = line_col vb.vb_loc in
                Printf.sprintf "%s.(init@%d)" prefix line
            in
            bindings := summarize_binding ~unit_name ~name vb :: !bindings)
          vbs
      | Typedtree.Tstr_type (_, decls) ->
        List.iter
          (fun (d : Typedtree.type_declaration) ->
            match d.typ_kind with
            | Typedtree.Ttype_variant cons ->
              let ty_cons =
                List.map
                  (fun (c : Typedtree.constructor_declaration) ->
                    let line, col = line_col c.cd_loc in
                    {
                      c_name = Ident.name c.cd_id;
                      c_line = line;
                      c_col = col;
                    })
                  cons
              in
              types :=
                { ty_name = prefix ^ "." ^ Ident.name d.typ_id; ty_cons }
                :: !types
            | _ -> ())
          decls
      | Typedtree.Tstr_module mb -> (
        match mb.mb_id with
        | None -> ()
        | Some id -> (
          match module_structure mb.mb_expr with
          | Some sub ->
            collect_items ~unit_name ~prefix:(prefix ^ "." ^ Ident.name id)
              sub ~bindings ~types
          | None -> ()))
      | _ -> ())
    str.str_items

let summarize (u : Typed_loader.unit_info) =
  let bindings = ref [] and types = ref [] in
  collect_items ~unit_name:u.modname ~prefix:u.modname u.structure ~bindings
    ~types;
  {
    u_modname = u.modname;
    u_source = u.source;
    u_bindings = List.rev !bindings;
    u_types = List.rev !types;
  }
