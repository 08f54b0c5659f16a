open Wal

type status = Active | Committed of Lsn.t | Aborted

type t = {
  alloc : Txn_id.Allocator.t;
  table : (int, status) Hashtbl.t;
  mutable last_scn : Lsn.t;
}

let create () =
  {
    alloc = Txn_id.Allocator.create ();
    table = Hashtbl.create 256;
    last_scn = Lsn.none;
  }

let begin_txn t =
  let id = Txn_id.Allocator.take t.alloc in
  Hashtbl.replace t.table (Txn_id.to_int id) Active;
  id

let register t id = Hashtbl.replace t.table (Txn_id.to_int id) Active
let note_floor t id = Txn_id.Allocator.reset_above t.alloc id
let status t id = Hashtbl.find_opt t.table (Txn_id.to_int id)

let mark_committed t id ~scn =
  Hashtbl.replace t.table (Txn_id.to_int id) (Committed scn);
  if Lsn.(scn > t.last_scn) then t.last_scn <- scn

let mark_aborted t id = Hashtbl.replace t.table (Txn_id.to_int id) Aborted

let commit_scn t id =
  match status t id with
  | Some (Committed scn) -> Some scn
  | Some Active | Some Aborted | None -> None

let is_active t id = status t id = Some Active

let active t =
  Hashtbl.fold
    (fun id st acc ->
      match st with
      | Active -> Txn_id.Set.add (Txn_id.of_int id) acc
      | Committed _ | Aborted -> acc)
    t.table Txn_id.Set.empty

let active_count t = Txn_id.Set.cardinal (active t)

let last_scn t = t.last_scn
