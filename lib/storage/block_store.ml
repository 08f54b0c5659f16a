open Wal

type version = { value : string option; txn : Txn_id.t; lsn : Lsn.t }

type entry = {
  keys : (string, version list) Hashtbl.t;
  mutable stored_checksum : int;
  mutable multi : string list;
      (* GC index: exactly the keys whose chain holds >= 2 versions, each
         once.  A single-version key has nothing to collect. *)
}

type t = {
  table : entry Block_id.Tbl.t;
  mutable applied : Lsn.t;
  mutable nversions : int;
  mutable bytes : int;
}

let create () =
  { table = Block_id.Tbl.create 64; applied = Lsn.none; nversions = 0; bytes = 0 }

let entry_of t block =
  match Block_id.Tbl.find_opt t.table block with
  | Some e -> e
  | None ->
    let e = { keys = Hashtbl.create 8; stored_checksum = 0; multi = [] } in
    Block_id.Tbl.add t.table block e;
    e

let version_bytes key v =
  String.length key
  + (match v.value with Some s -> String.length s | None -> 0)
  + 24 (* txn + lsn + tag overhead *)

let is_multi = function _ :: _ :: _ -> true | [] | [ _ ] -> false

(* One key's term of the block checksum: a digest of its newest version. *)
let head_hash key = function
  | [] -> 0
  | v :: _ ->
    let h = Simcore.Bits.fnv1a_string key in
    let h =
      match v.value with
      | Some s -> Simcore.Bits.fnv1a_add_string h s
      | None -> Simcore.Bits.fnv1a_add_int h (-1)
    in
    let h = Simcore.Bits.fnv1a_add_int h (Txn_id.to_int v.txn) in
    Simcore.Bits.fnv1a_add_int h (Lsn.to_int v.lsn)

(* Digest of the current (newest-version-per-key) contents.  Combining with
   an order-independent sum keeps it stable across hash-table iteration
   order, and lets a legitimate write swap its key's term in O(1) (integer
   wrap-around keeps the swap exact). *)
let compute_checksum e =
  Hashtbl.fold (fun key versions acc -> acc + head_hash key versions) e.keys 0

(* Every legitimate rewrite of a key's chain passes through here.  Only the
   key's own term moves, so a corrupted head stays mismatched however many
   writes follow, until [load_snapshot] recomputes the sum. *)
let rechain e key ~before after =
  e.stored_checksum <-
    e.stored_checksum - head_hash key before + head_hash key after;
  after

let add_version t e key v =
  let prior = match Hashtbl.find_opt e.keys key with Some l -> l | None -> [] in
  Hashtbl.replace e.keys key (rechain e key ~before:prior (v :: prior));
  (match prior with [ _ ] -> e.multi <- key :: e.multi | [] | _ :: _ :: _ -> ());
  t.nversions <- t.nversions + 1;
  t.bytes <- t.bytes + version_bytes key v

let apply t (r : Log_record.t) =
  (match r.op with
  | Put { key; value } ->
    add_version t (entry_of t r.block) key
      { value = Some value; txn = r.txn; lsn = r.lsn }
  | Delete { key } ->
    add_version t (entry_of t r.block) key { value = None; txn = r.txn; lsn = r.lsn }
  | Commit | Abort | Noop -> ());
  if Lsn.(r.lsn > t.applied) then t.applied <- r.lsn

let applied_upto t = t.applied

let versions t block ~key =
  match Block_id.Tbl.find_opt t.table block with
  | None -> []
  | Some e -> ( match Hashtbl.find_opt e.keys key with Some l -> l | None -> [])

let read_at t block ~key ~as_of ~exclude =
  let rec pick = function
    | [] -> None
    | v :: rest ->
      if Lsn.(v.lsn <= as_of) && not (Txn_id.Set.mem v.txn exclude) then Some v
      else pick rest
  in
  pick (versions t block ~key)

let block_snapshot t block =
  match Block_id.Tbl.find_opt t.table block with
  | None -> []
  | Some e -> Hashtbl.fold (fun key vs acc -> (key, vs) :: acc) e.keys []

let drop_versions t key vs =
  List.iter
    (fun v ->
      t.nversions <- t.nversions - 1;
      t.bytes <- t.bytes - version_bytes key v)
    vs

let load_snapshot t block snapshot =
  (* Remove existing accounting for the block, then install. *)
  (match Block_id.Tbl.find_opt t.table block with
  | None -> ()
  | Some e ->
    Hashtbl.iter (drop_versions t) e.keys;
    Block_id.Tbl.remove t.table block);
  let e = entry_of t block in
  List.iter
    (fun (key, vs) ->
      Hashtbl.replace e.keys key vs;
      if is_multi vs then e.multi <- key :: e.multi;
      List.iter
        (fun v ->
          t.nversions <- t.nversions + 1;
          t.bytes <- t.bytes + version_bytes key v;
          if Lsn.(v.lsn > t.applied) then t.applied <- v.lsn)
        vs)
    snapshot;
  (* The authoritative repair: the only write that recomputes the sum. *)
  e.stored_checksum <- compute_checksum e

let repair t block snapshot =
  match Block_id.Tbl.find_opt t.table block with
  | Some e
    when compute_checksum e <> e.stored_checksum
         && List.fold_left (fun acc (key, vs) -> acc + head_hash key vs) 0 snapshot
            = e.stored_checksum ->
    load_snapshot t block snapshot;
    true
  | Some _ | None -> false

(* Recovery truncation is rare, so it scans every key.  Emptied chains stay
   in the table as [[]]: block images carry them. *)
let rollback_above t bound =
  let dropped = ref 0 in
  Block_id.Tbl.iter
    (fun _ e ->
      e.multi <- [];
      Hashtbl.filter_map_inplace
        (fun key vs ->
          let keep =
            match List.partition (fun v -> Lsn.(v.lsn <= bound)) vs with
            | _, [] -> vs
            | keep, drop ->
              dropped := !dropped + List.length drop;
              drop_versions t key drop;
              rechain e key ~before:vs keep
          in
          if is_multi keep then e.multi <- key :: e.multi;
          Some keep)
        e.keys)
    t.table;
  if Lsn.(t.applied > bound) then t.applied <- bound;
  !dropped

let gc t ~keep_at_or_above ~is_committed =
  let dropped = ref 0 in
  (* Versions older than the newest *committed* version at or below the
     floor are unreachable by any legal read view.  Versions of transactions
     whose outcome this segment does not know are kept (conservative: an
     in-flight or elsewhere-committed transaction must not lose its data,
     and an aborted one must not anchor the cut).  [below_cut] is the
     collectable tail of a chain, [[]] when nothing is. *)
  let rec below_cut = function
    | [] -> []
    | v :: rest ->
      if Lsn.(v.lsn <= keep_at_or_above) && is_committed v.txn then rest
      else below_cut rest
  in
  let collect e key =
    let vs = Hashtbl.find e.keys key in
    match below_cut vs with
    | [] -> true
    | old ->
      let n_old = List.length old in
      dropped := !dropped + n_old;
      drop_versions t key old;
      let n_kept = List.length vs - n_old in
      let kept = List.filteri (fun i _ -> i < n_kept) vs in
      (* The head always survives the cut, so the checksum is unchanged. *)
      Hashtbl.replace e.keys key kept;
      is_multi kept
  in
  Block_id.Tbl.iter
    (fun _ e ->
      match e.multi with
      | [] -> ()
      | multi -> e.multi <- List.filter (collect e) multi)
    t.table;
  !dropped

let blocks t = Block_id.Tbl.fold (fun b _ acc -> b :: acc) t.table []
let version_count t = t.nversions
let bytes_used t = t.bytes

(* The victim is the first non-empty newest value; an empty one cannot
   change without changing its length (and so [bytes_used]).  Adding one to
   the first byte, rather than flipping a bit, means a second corruption of
   the same head cannot undo the first. *)
let corrupt t block =
  match Block_id.Tbl.find_opt t.table block with
  | None -> false
  | Some e ->
    let victim =
      Hashtbl.fold
        (fun key vs acc ->
          match (acc, vs) with
          | Some _, _ -> acc
          | None, { value = Some s; _ } :: _ when String.length s > 0 -> Some key
          | None, _ -> None)
        e.keys None
    in
    (match victim with
    | None -> false
    | Some key ->
      (match Hashtbl.find e.keys key with
      | ({ value = Some s; _ } as v) :: rest ->
        let b = Bytes.of_string s in
        Bytes.set b 0 (Char.chr ((Char.code (Bytes.get b 0) + 1) land 0xff));
        (* Mutate the data but deliberately leave stored_checksum stale. *)
        Hashtbl.replace e.keys key
          ({ v with value = Some (Bytes.to_string b) } :: rest);
        true
      | _ -> false))

let verify t block =
  match Block_id.Tbl.find_opt t.table block with
  | None -> true
  | Some e -> compute_checksum e = e.stored_checksum
