open Wal

type t = { as_of : Lsn.t; owner : Txn_id.t option }

let make ~as_of ?owner () = { as_of; owner }

let visible t txns (v : Storage.Block_store.version) =
  match t.owner with
  (* A transaction always sees its own writes, even above the anchor:
     "after which it may not see any changes other than its own". *)
  | Some me when Txn_id.equal me v.txn -> true
  | Some _ | None ->
    Lsn.(v.lsn <= t.as_of)
    &&
    let scn = Txn_table.scn txns v.txn in
    (not (Lsn.is_none scn)) && Lsn.(scn <= t.as_of)

(* A suffix of the chain, so a lookup allocates nothing. *)
let rec visible_suffix t txns = function
  | [] -> []
  | v :: rest as chain -> if visible t txns v then chain else visible_suffix t txns rest

let value t txns chain =
  match visible_suffix t txns chain with v :: _ -> v.value | [] -> None
