open Wal

type status = Active | Committed of Lsn.t | Aborted

type t = {
  alloc : Txn_id.Allocator.t;
  table : (int, status) Hashtbl.t;
}

let create () =
  {
    alloc = Txn_id.Allocator.create ();
    table = Hashtbl.create 256;
  }

let begin_txn t =
  let id = Txn_id.Allocator.take t.alloc in
  Hashtbl.replace t.table (Txn_id.to_int id) Active;
  id

let register t id = Hashtbl.replace t.table (Txn_id.to_int id) Active
let note_floor t id = Txn_id.Allocator.reset_above t.alloc id
let status t id = Hashtbl.find_opt t.table (Txn_id.to_int id)

let mark_committed t id ~scn =
  Hashtbl.replace t.table (Txn_id.to_int id) (Committed scn)

let mark_aborted t id = Hashtbl.replace t.table (Txn_id.to_int id) Aborted
let forget t id = Hashtbl.remove t.table (Txn_id.to_int id)

let commit_scn t id =
  match status t id with
  | Some (Committed scn) -> Some scn
  | Some Active | Some Aborted | None -> None

(* Read-only commits are forgotten, so every SCN here is its own record's. *)
let committed_upto t scn =
  Hashtbl.fold
    (fun id status acc ->
      match status with
      | Committed c when Lsn.(c <= scn) -> (Txn_id.of_int id, c) :: acc
      | Committed _ | Active | Aborted -> acc)
    t.table []
  |> List.sort (fun (_, x) (_, y) -> Lsn.compare x y)
