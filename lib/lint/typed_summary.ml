(* Per-module summaries extracted from typed trees.

   A walk per top-level binding collects constructors matched in patterns
   and built in expressions, and top-level mutable-state evidence; one
   walk over the whole unit collects the values it names, its integer
   arithmetic and its comparison applications.  The rules in
   {!Typed_rules} are then pure functions over these summaries. *)

type con_use = { cu_ty : string; cu_con : string }
type value_ref = { r_path : string; r_line : int; r_col : int }

type arith_hit = {
  a_line : int;
  a_col : int;
  a_op : string;
  a_operands : string list;
}

type poly_hit = {
  p_line : int;
  p_col : int;
  p_op : string;
  p_ty : string;
  p_mentions : string list;
  p_tag_test : bool;
}

type binding = {
  b_name : string;  (* qualified, e.g. "Simcore.Sim.schedule_at" *)
  b_line : int;
  b_col : int;
  b_is_function : bool;
  b_pat_cons : con_use list;
  b_exp_cons : con_use list;
  b_mutable_evidence : (int * int * string) option;
  b_sim_global : bool;  (* carries [@@sim_global] *)
}

type tycon = { c_name : string; c_line : int; c_col : int }
type tydecl = { ty_name : string; ty_cons : tycon list }

type unit_summary = {
  u_modname : string;
  u_source : string;
  u_interface : bool;
  u_bindings : binding list;
  u_types : tydecl list;
  u_refs : value_ref list;
  u_arith : arith_hit list;
  u_poly : poly_hit list;
}

let line_col (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let has_attr name (attrs : Typedtree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

let has_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

(* ------------------------------------------------------------------ *)
(* Path resolution.                                                    *)

(* The unit's module aliases, [module H = Hashtbl] and [let module H = ...
   in], at any depth.  Idents are unique within a unit, so one list serves
   every scope. *)
let rec alias_target (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some p
  | Typedtree.Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

let module_aliases (str : Typedtree.structure) =
  let aliases = ref [] in
  let note id me =
    match alias_target me with
    | Some p -> aliases := (id, p) :: !aliases
    | None -> ()
  in
  let open Tast_iterator in
  let module_binding it (mb : Typedtree.module_binding) =
    Option.iter (fun id -> note id mb.mb_expr) mb.mb_id;
    default_iterator.module_binding it mb
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_letmodule (Some id, _, _, me, _) -> note id me
    | _ -> ());
    default_iterator.expr it e
  in
  let it = { default_iterator with module_binding; expr } in
  it.structure it str;
  !aliases

type resolver = { unit_name : string; aliases : (Ident.t * Path.t) list }

(* An alias's target is itself expanded, so a chain of aliases ends at the
   module it names. *)
let rec expand r (p : Path.t) : Path.t =
  match p with
  | Pident id -> (
    match List.find_opt (fun (i, _) -> Ident.same i id) r.aliases with
    | Some (_, target) -> expand r target
    | None -> p)
  | Pdot (q, s) -> Pdot (expand r q, s)
  | Papply (f, a) -> Papply (expand r f, expand r a)
  | p -> p

let name_of r (p : Path.t) =
  let name = Typed_loader.normalize_modname (Path.name p) in
  if Ident.global (Path.head p) then name else r.unit_name ^ "." ^ name

let resolve r p = name_of r (expand r p)

(* A value path worth recording: qualified, not a local variable. *)
let qualified r p =
  match expand r p with Pident _ -> None | p -> Some (name_of r p)

(* ------------------------------------------------------------------ *)
(* Unit-wide facts: named values, arithmetic, comparisons.             *)

(* Comparison primitives whose polymorphic use the poly-compare rule
   rejects at protocol types and type variables. *)
let poly_ops =
  [
    "Stdlib.compare"; "Stdlib.="; "Stdlib.<>"; "Stdlib.<"; "Stdlib.>";
    "Stdlib.<="; "Stdlib.>="; "Stdlib.min"; "Stdlib.max";
  ]

let arith_ops =
  [ "Stdlib.+"; "Stdlib.-"; "Stdlib.*"; "Stdlib./"; "Stdlib.mod" ]

(* The value an operand is, or is computed by: [Wal.Lsn.to_int] for
   [Lsn.to_int l]. *)
let rec head_path r (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> qualified r p
  | Typedtree.Texp_apply (f, _) -> head_path r f
  | _ -> None

(* Every type constructor [ty] mentions, head first.  Object and variant
   rows, the only place a type can cycle without -rectypes, are not
   entered. *)
let rec type_mentions r ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
    resolve r p :: List.concat_map (type_mentions r) args
  | Types.Ttuple tys -> List.concat_map (type_mentions r) tys
  | Types.Tarrow (_, a, b, _) -> type_mentions r a @ type_mentions r b
  | _ -> []

let is_constant = function
  | Some { Typedtree.exp_desc = Typedtree.Texp_construct (_, _, []); _ } -> true
  | _ -> false

let unit_facts r (str : Typedtree.structure) =
  let refs = ref [] and arith = ref [] and poly = ref [] in
  let apply (e : Typedtree.expression) op args =
    let line, col = line_col e.exp_loc in
    if List.exists (String.equal op) arith_ops then begin
      match
        List.filter_map (fun (_, arg) -> Option.bind arg (head_path r)) args
      with
      | [] -> ()
      | operands ->
        arith :=
          { a_line = line; a_col = col; a_op = op; a_operands = operands }
          :: !arith
    end
    else if List.exists (String.equal op) poly_ops then
      match args with
      | (_, Some (arg1 : Typedtree.expression)) :: _ ->
        let p_ty =
          match Types.get_desc arg1.exp_type with
          | Types.Tconstr (tp, _, _) -> Some (resolve r tp)
          | Types.Tvar v -> Some ("'" ^ Option.value v ~default:"_")
          | _ -> None
        in
        poly :=
          {
            p_line = line;
            p_col = col;
            p_op = op;
            p_ty = Option.value p_ty ~default:"";
            p_mentions =
              List.concat_map
                (fun (_, arg) ->
                  match arg with
                  | Some (e : Typedtree.expression) -> type_mentions r e.exp_type
                  | None -> [])
                args;
            p_tag_test = List.exists (fun (_, arg) -> is_constant arg) args;
          }
          :: !poly
      | _ -> ()
  in
  let open Tast_iterator in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (p, lid, _) -> (
      match qualified r p with
      | Some path ->
        let line, col = line_col lid.loc in
        refs := { r_path = path; r_line = line; r_col = col } :: !refs
      | None -> ())
    | Typedtree.Texp_apply
        ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) ->
      apply e (resolve r p) args
    | _ -> ());
    default_iterator.expr it e
  in
  let it = { default_iterator with expr } in
  it.structure it str;
  (List.rev !refs, List.rev !arith, List.rev !poly)

(* ------------------------------------------------------------------ *)
(* Per-binding facts: constructors and mutable-state evidence.         *)

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

type ctx = {
  r : resolver;
  mutable pat_cons : con_use list;
  mutable exp_cons : con_use list;
  mutable mut_ev : (int * int * string) option;
}

let note_mut ctx desc (loc : Location.t) =
  match ctx.mut_ev with
  | Some _ -> ()
  | None ->
    let line, col = line_col loc in
    ctx.mut_ev <- Some (line, col, desc)

let con_of_desc ctx (cd : Types.constructor_description) =
  match Types.get_desc cd.cstr_res with
  | Types.Tconstr (p, _, _) ->
    Some { cu_ty = resolve ctx.r p; cu_con = cd.cstr_name }
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
    | Typedtree.Texp_apply
        ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, _) ->
      let name = resolve ctx.r p in
      if mutable_creator name then note_mut ctx name e.exp_loc
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

let summarize_binding r ~name (vb : Typedtree.value_binding) =
  let ctx = { r; pat_cons = []; exp_cons = []; mut_ev = None } in
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

let rec collect_items r ~prefix (str : Typedtree.structure) ~bindings ~types =
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
            bindings := summarize_binding r ~name vb :: !bindings)
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
            collect_items r ~prefix:(prefix ^ "." ^ Ident.name id) sub
              ~bindings ~types
          | None -> ()))
      | _ -> ())
    str.str_items

let summarize (u : Typed_loader.unit_info) =
  let r = { unit_name = u.modname; aliases = module_aliases u.structure } in
  let bindings = ref [] and types = ref [] in
  collect_items r ~prefix:u.modname u.structure ~bindings ~types;
  let refs, arith, poly = unit_facts r u.structure in
  {
    u_modname = u.modname;
    u_source = u.source;
    u_interface = u.has_interface;
    u_bindings = List.rev !bindings;
    u_types = List.rev !types;
    u_refs = refs;
    u_arith = arith;
    u_poly = poly;
  }
