type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;
  mutable notes : string list;
  mutable subtables : t list;
  mutable failed : string list;  (* failed requirements, newest first *)
}

let create ~title ~columns =
  { title; columns; rows = []; notes = []; subtables = []; failed = [] }

let row t cells = t.rows <- cells :: t.rows

let require t ~ok cells =
  row t cells;
  if not ok then t.failed <- (t.title ^ ": " ^ String.concat " | " cells) :: t.failed

let rec failures t =
  List.rev t.failed @ List.concat_map failures (List.rev t.subtables)

let note t s = t.notes <- s :: t.notes
let add_subtable t sub = t.subtables <- sub :: t.subtables

let rec to_string t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let ncols = List.length t.columns in
  let width i =
    List.fold_left
      (fun acc r ->
        match List.nth_opt r i with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let render_row r =
    String.concat "  "
      (List.mapi
         (fun i cell ->
           let w = List.nth widths i in
           cell ^ String.make (max 0 (w - String.length cell)) ' ')
         r)
  in
  let sep =
    String.concat "  "
      (List.map (fun w -> String.make w '-') widths)
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (render_row t.columns ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render_row r ^ "\n")) rows;
  List.iter
    (fun n -> Buffer.add_string buf ("  " ^ n ^ "\n"))
    (List.rev t.notes);
  List.iter
    (fun sub -> Buffer.add_string buf ("\n" ^ to_string sub))
    (List.rev t.subtables);
  Buffer.contents buf

let f2 x = Printf.sprintf "%.2f" x
let pct x = Printf.sprintf "%.4f%%" (100. *. x)

let ns x =
  if x < 1e3 then Printf.sprintf "%.0fns" x
  else if x < 1e6 then Printf.sprintf "%.1fus" (x /. 1e3)
  else if x < 1e9 then Printf.sprintf "%.2fms" (x /. 1e6)
  else Printf.sprintf "%.3fs" (x /. 1e9)

let time t = Simcore.Time_ns.to_string t
