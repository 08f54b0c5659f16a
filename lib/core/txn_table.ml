open Wal

type status = Active | Committed of Lsn.t | Aborted

type t = {
  alloc : Txn_id.Allocator.t;
  table : status Txn_id.Tbl.t;
}

let create () =
  {
    alloc = Txn_id.Allocator.create ();
    table = Txn_id.Tbl.create 256;
  }

let begin_txn t =
  let id = Txn_id.Allocator.take t.alloc in
  Txn_id.Tbl.replace t.table id Active;
  id

let register t id = Txn_id.Tbl.replace t.table id Active
let note_floor t id = Txn_id.Allocator.reset_above t.alloc id
let status t id = Txn_id.Tbl.find_opt t.table id

let mark_committed t id ~scn =
  Txn_id.Tbl.replace t.table id (Committed scn)

let mark_aborted t id = Txn_id.Tbl.replace t.table id Aborted
let forget t id = Txn_id.Tbl.remove t.table id

let commit_scn t id =
  match status t id with
  | Some (Committed scn) -> Some scn
  | Some Active | Some Aborted | None -> None

(* Read-only commits are forgotten, so every SCN here is its own record's. *)
let committed_upto t scn =
  Txn_id.Tbl.fold
    (fun id status acc ->
      match status with
      | Committed c when Lsn.(c <= scn) -> (id, c) :: acc
      | Committed _ | Active | Aborted -> acc)
    t.table []
  |> List.sort (fun (_, x) (_, y) -> Lsn.compare x y)
