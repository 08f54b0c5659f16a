module S = Set.Make (String)

type t = S.t

let empty = S.empty

let trim = String.trim

let load path =
  if not (Sys.file_exists path) then S.empty
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line ->
        let line = trim line in
        if line = "" || line.[0] = '#' then go acc else go (S.add line acc)
    in
    let s = go S.empty in
    close_in ic;
    s
  end

let mem t f = S.mem (Finding.key f) t
let size = S.cardinal

let save path findings =
  (* Order by finding position (file, line, col, rule) rather than by the
     key string, so the written file reads in source order and the same
     finding set always produces the same bytes. *)
  let sorted = List.sort_uniq Finding.compare findings in
  let keys =
    List.fold_left
      (fun acc f ->
        let k = Finding.key f in
        match acc with
        | prev :: _ when String.equal prev k -> acc
        | _ -> k :: acc)
      [] sorted
    |> List.rev
  in
  let oc = open_out path in
  output_string oc
    "# aurora_lint suppression baseline — one finding key per line\n\
     # (rule|file|line|col).  Regenerate with: aurora_lint --update-baseline\n\
     # Keep this file empty: new entries are frozen debt and need a reason\n\
     # in DESIGN.md §6.\n";
  List.iter
    (fun k ->
      output_string oc k;
      output_char oc '\n')
    keys;
  close_out oc
