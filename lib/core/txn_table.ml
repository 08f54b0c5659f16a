open Wal

type status = Active | Committed of Lsn.t | Aborted

(* One int per id, indexed by the id itself: ids are dense from 1 (the
   allocator's, recovery's registrations, a replica's stream commits). *)
let absent = -1
let active = -2
let aborted = -3

type t = {
  alloc : Txn_id.Allocator.t;
  mutable rows : int array; (* [absent], [active], [aborted], or the SCN (>= 1) *)
}

let create () = { alloc = Txn_id.Allocator.create (); rows = Array.make 256 absent }

let row t id =
  let i = Txn_id.to_int id in
  if i < Array.length t.rows then t.rows.(i) else absent

let set t id r =
  let i = Txn_id.to_int id in
  if i >= Array.length t.rows then begin
    let rows = Array.make (Int.max (2 * Array.length t.rows) (i + 1)) absent in
    Array.blit t.rows 0 rows 0 (Array.length t.rows);
    t.rows <- rows
  end;
  t.rows.(i) <- r

let begin_txn t =
  let id = Txn_id.Allocator.take t.alloc in
  set t id active;
  id

let register t id = set t id active
let note_floor t id = Txn_id.Allocator.reset_above t.alloc id

let status t id =
  let r = row t id in
  if r >= 1 then Some (Committed (Lsn.of_int r))
  else if r = active then Some Active
  else if r = aborted then Some Aborted
  else None

let mark_committed t id ~scn =
  if Lsn.is_none scn then invalid_arg "Txn_table.mark_committed: no SCN";
  set t id (Lsn.to_int scn)

let mark_aborted t id = set t id aborted
let forget t id = set t id absent

let scn t id =
  let r = row t id in
  if r >= 1 then Lsn.of_int r else Lsn.none

let commit_scn t id =
  let r = row t id in
  if r >= 1 then Some (Lsn.of_int r) else None

(* Read-only commits are forgotten, so every SCN here is its own record's:
   no two rows share one, and the order by SCN is total. *)
let committed_upto t scn =
  let bound = Lsn.to_int scn in
  let acc = ref [] in
  for i = Array.length t.rows - 1 downto 0 do
    let r = t.rows.(i) in
    if r >= 1 && r <= bound then acc := (Txn_id.of_int i, Lsn.of_int r) :: !acc
  done;
  List.sort (fun (_, x) (_, y) -> Lsn.compare x y) !acc
