(* Load the compiler's .cmt typed trees out of _build.  Dune emits
   bin-annot files for every module it compiles; this module walks a
   directory tree (normally [_build/default/lib] or, when the driver runs
   inside the build sandbox, just [lib]), unmarshals each implementation,
   and hands back the typedtree plus repo-root-relative source path. *)

type unit_info = {
  modname : string;  (* dotted, e.g. "Simcore.Sim" *)
  source : string;  (* logical source path, e.g. "lib/simcore/sim.ml" *)
  structure : Typedtree.structure;
}

(* Dune mangles wrapped-library module names as [Lib__Module]; the dotted
   form is what source code writes and what rule manifests use. *)
let normalize_modname m =
  let n = String.length m in
  let buf = Buffer.create n in
  let rec go i =
    if i >= n then Buffer.contents buf
    else if i + 1 < n && m.[i] = '_' && m.[i + 1] = '_' then begin
      Buffer.add_char buf '.';
      go (i + 2)
    end
    else begin
      Buffer.add_char buf m.[i];
      go (i + 1)
    end
  in
  go 0

let has_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

(* One [.cmt]: [None] for interfaces, packs, unreadable files, and
   dune-generated wrapper modules (their "source" is a [.ml-gen]). *)
let read_unit path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | cmt -> (
    match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Implementation structure, Some src
      when has_suffix ~suffix:".ml" src ->
      (* Library wrapper modules dune generates ([simcore.ml-gen]) fail the
         [.ml] suffix test and are skipped — they contain only aliases. *)
      Some
        {
          modname = normalize_modname cmt.Cmt_format.cmt_modname;
          source = Engine.logical_path src;
          structure;
        }
    | _ -> None)

let cmts_under ~skip_fixtures roots =
  let acc = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.sort String.compare entries;
      Array.iter
        (fun entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then begin
            if not (skip_fixtures && entry = "fixtures") then walk path
          end
          else if has_suffix ~suffix:".cmt" path then acc := path :: !acc)
        entries
  in
  List.iter (fun root -> if Sys.file_exists root then walk root) roots;
  List.sort String.compare !acc

let load_files paths =
  let units = List.filter_map read_unit paths in
  List.sort (fun a b -> String.compare a.source b.source) units

let load_dir dir = load_files (cmts_under ~skip_fixtures:false [ dir ])
let load_tree ~roots = load_files (cmts_under ~skip_fixtures:true roots)
