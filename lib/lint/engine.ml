let skip_dirs = [ "_build"; ".git"; "fixtures" ]

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

let files_under roots =
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
            if not (List.mem entry skip_dirs) then walk path
          end
          else if has_suffix ~suffix:".ml" path || has_suffix ~suffix:".mli" path
          then acc := path :: !acc)
        entries
  in
  List.iter (fun root -> if Sys.file_exists root then walk root) roots;
  List.sort String.compare !acc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* A file that does not parse cannot be checked, so it must fail the gate
   rather than slip through silently. *)
let parse_error ~path exn =
  [
    Finding.make ~rule:"parse-error" ~file:path ~line:1 ~col:0
      (Printf.sprintf "cannot parse: %s" (Printexc.to_string exn));
  ]

let lexbuf_of ~path contents =
  let lexbuf = Lexing.from_string contents in
  Lexing.set_filename lexbuf path;
  lexbuf

let lint_source ~path contents =
  let path = logical_path path in
  match Ppxlib.Parse.implementation (lexbuf_of ~path contents) with
  | exception exn -> parse_error ~path exn
  | st -> List.sort_uniq Finding.compare (Rules.check_structure ~path st)

let check_interface ~path contents =
  let path = logical_path path in
  match Ppxlib.Parse.interface (lexbuf_of ~path contents) with
  | exception exn -> parse_error ~path exn
  | (_ : Ppxlib.Parsetree.signature) -> []

(* One on-disk file: an [.ml] is linted, an [.mli] only parsed. *)
let lint_file path =
  let contents = read_file path in
  if has_suffix ~suffix:".mli" path then check_interface ~path contents
  else lint_source ~path contents

let lint_tree ~roots =
  let files = files_under roots in
  let per_file = List.concat_map lint_file files in
  let logical = List.map logical_path files in
  let ml_files = List.filter (has_suffix ~suffix:".ml") logical in
  let mli_files = List.filter (has_suffix ~suffix:".mli") logical in
  let coverage = Rules.mli_coverage ~ml_files ~mli_files in
  List.sort_uniq Finding.compare (per_file @ coverage)
