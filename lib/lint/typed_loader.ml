(* Load the compiler's .cmt typed trees out of _build.  Dune emits
   bin-annot files for every module it compiles; this module walks each
   root's build directory, unmarshals each implementation, and hands back
   the typedtree plus repo-root-relative source path.  Whatever it cannot
   read, and every source it finds no tree for, comes back as a finding. *)

type unit_info = {
  modname : string;  (* dotted, e.g. "Simcore.Sim" *)
  source : string;  (* logical source path, e.g. "lib/simcore/sim.ml" *)
  has_interface : bool;  (* a .cmti was compiled next to the .cmt *)
  structure : Typedtree.structure;
}

let unlinted = "unlinted"

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

let logical_path p =
  let rec strip parts =
    match parts with
    | ("." | "..") :: rest -> strip rest
    | parts -> parts
  in
  String.concat "/" (strip (String.split_on_char '/' p))

let has_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

let finding ~file message =
  Finding.make ~rule:unlinted ~file:(logical_path file) ~line:1 ~col:0 message

(* One [.cmt]: [Ok None] for packs and dune-generated wrapper modules
   (their "source" is a [.ml-gen] holding only aliases). *)
let read_unit path =
  match Cmt_format.read_cmt path with
  | exception exn ->
    Error
      (finding ~file:path
         (Printf.sprintf "cannot read typed tree: %s" (Printexc.to_string exn)))
  | cmt -> (
    match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Implementation structure, Some src
      when has_suffix ~suffix:".ml" src ->
      Ok
        (Some
           {
             modname = normalize_modname cmt.Cmt_format.cmt_modname;
             source = logical_path src;
             has_interface =
               Sys.file_exists (Filename.chop_suffix path ".cmt" ^ ".cmti");
             structure;
           })
    | _ -> Ok None)

(* Files with [suffix] under [roots], sorted.  Source walks skip dune's
   hidden object directories; .cmt walks must enter them. *)
let files_under ~suffix ~skip roots =
  let acc = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.iter
        (fun entry ->
          let path = Filename.concat dir entry in
          if Sys.is_directory path then begin
            if not (skip entry) then walk path
          end
          else if has_suffix ~suffix path then acc := path :: !acc)
        entries
  in
  List.iter (fun root -> if Sys.file_exists root then walk root) roots;
  List.sort String.compare !acc

let load_files paths =
  let read = List.map read_unit paths in
  let units = List.filter_map (function Ok u -> u | Error _ -> None) read
  and errors = List.filter_map (function Error f -> Some f | Ok _ -> None) read in
  (List.sort (fun a b -> String.compare a.source b.source) units, errors)

let load_dir dir = load_files (files_under ~suffix:".cmt" ~skip:(fun _ -> false) [ dir ])

let build_dir root =
  let in_build = Filename.concat "_build/default" root in
  if Sys.file_exists in_build then in_build else root

let load ~roots =
  let skip entry = entry = "fixtures" || entry = "_build" || entry = ".git" in
  let units, errors =
    load_files (files_under ~suffix:".cmt" ~skip (List.map build_dir roots))
  in
  let compiled = List.map (fun u -> u.source) units in
  (* An interface is covered by the unit compiled from its implementation. *)
  let implementation path =
    if has_suffix ~suffix:".mli" path then Filename.chop_suffix path "i"
    else path
  in
  let source_skip entry = skip entry || entry.[0] = '.' in
  let orphans =
    List.filter_map
      (fun path ->
        if List.mem (logical_path (implementation path)) compiled then None
        else
          Some
            (finding ~file:path
               "no typed tree was compiled from this source, so no rule \
                checks it; add it to a stanza's modules"))
      (List.sort String.compare
         (files_under ~suffix:".ml" ~skip:source_skip roots
         @ files_under ~suffix:".mli" ~skip:source_skip roots))
  in
  (units, errors @ orphans)
