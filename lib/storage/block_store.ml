open Wal

type version = Log_record.version = {
  value : string option;
  txn : Txn_id.t;
  lsn : Lsn.t;
}

type entry = {
  keys : (string, version list) Hashtbl.t;
  mutable stored_checksum : int;
  mutable work : string list;
      (* GC work list: the keys with >= 2 versions that are not parked, each
         once.  A single-version key has nothing to collect.  The entry is
         on [t.busy] exactly when this is non-empty. *)
  mutable parked : int; (* keys with >= 2 versions not on [work] *)
  mutable bytes : int; (* [version_bytes] of every version held: its share of [t.bytes] *)
}

type t = {
  table : entry Block_id.Tbl.t;
  mutable applied : Lsn.t;
  mutable nversions : int;
  mutable bytes : int;
  outcomes : (int, Lsn.Outcome.t) Hashtbl.t; (* txn -> outcome *)
  mutable busy : entry list; (* the entries with a non-empty work list *)
  mutable waited : Bytes.t;
      (* Bit per txn id: set when a key parks on it, cleared by the wake scan
         its commit triggers.  A stale bit only costs a scan. *)
}

let create () =
  {
    table = Block_id.Tbl.create 64;
    applied = Lsn.none;
    nversions = 0;
    bytes = 0;
    outcomes = Hashtbl.create 64;
    busy = [];
    waited = Bytes.empty;
  }

let entry_of t block =
  match Block_id.Tbl.find_opt t.table block with
  | Some e -> e
  | None ->
    let e =
      { keys = Hashtbl.create 8; stored_checksum = 0; work = []; parked = 0; bytes = 0 }
    in
    Block_id.Tbl.add t.table block e;
    e

let push_work t e key =
  (match e.work with [] -> t.busy <- e :: t.busy | _ :: _ -> ());
  e.work <- key :: e.work

let unpark t e key =
  e.parked <- e.parked - 1;
  push_work t e key

let version_bytes key v =
  String.length key
  + (match v.value with Some s -> String.length s | None -> 0)
  + 24 (* txn + lsn + tag overhead *)

let is_multi = function _ :: _ :: _ -> true | [] | [ _ ] -> false

(* One key's term of the block checksum: a digest of its newest version,
   folded a word at a time.  [head_term] starts from the key already folded
   ([key_mix]), so [rechain]'s two terms fold the key once.  A delete folds
   -1 where a value's length would go, which no string has. *)
let key_mix key = Simcore.Bits.mix_add_string Simcore.Bits.mix_seed key

let head_term hk = function
  | [] -> 0
  | v :: _ ->
    let h =
      match v.value with
      | Some s -> Simcore.Bits.mix_add_string hk s
      | None -> Simcore.Bits.mix_add_int hk (-1)
    in
    let h = Simcore.Bits.mix_add_int h (Txn_id.to_int v.txn) in
    Simcore.Bits.mix_finish (Simcore.Bits.mix_add_int h (Lsn.to_int v.lsn))

let head_hash key = function [] -> 0 | vs -> head_term (key_mix key) vs

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
  let hk = key_mix key in
  e.stored_checksum <- e.stored_checksum - head_term hk before + head_term hk after;
  after

(* Every version added ([dir] = 1) or dropped ([dir] = -1) moves the count,
   the store's byte total and the entry's share of it together. *)
let account t (e : entry) dir key v =
  let n = dir * version_bytes key v in
  t.nversions <- t.nversions + dir;
  t.bytes <- t.bytes + n;
  e.bytes <- e.bytes + n

let rec drop_versions t e key = function
  | [] -> ()
  | v :: rest ->
    account t e (-1) key v;
    drop_versions t e key rest

(* A write to a parked key can make it collectable: wake it. *)
let add_version t e key v =
  let prior = match Hashtbl.find_opt e.keys key with Some l -> l | None -> [] in
  Hashtbl.replace e.keys key (rechain e key ~before:prior (v :: prior));
  (match prior with
  | [] -> ()
  | [ _ ] -> push_work t e key
  | _ :: _ :: _ ->
    if e.parked > 0 && not (List.exists (String.equal key) e.work) then
      unpark t e key);
  account t e 1 key v

let apply t (r : Log_record.t) =
  (match r.op with
  | Put { key; _ } | Delete { key } ->
    add_version t (entry_of t r.block) key r.version
  | Commit | Abort | Noop -> ());
  if Lsn.(r.lsn > t.applied) then t.applied <- r.lsn

let applied_upto t = t.applied

let waits_on t id =
  let i = id lsr 3 in
  i < Bytes.length t.waited && Bytes.get_uint8 t.waited i land (1 lsl (id land 7)) <> 0

let set_waited t id =
  let i = id lsr 3 in
  if i >= Bytes.length t.waited then begin
    let grown = Bytes.make (max (2 * Bytes.length t.waited) (i + 1)) '\000' in
    Bytes.blit t.waited 0 grown 0 (Bytes.length t.waited);
    t.waited <- grown
  end;
  Bytes.set_uint8 t.waited i (Bytes.get_uint8 t.waited i lor (1 lsl (id land 7)))

let clear_waited t id =
  let i = id lsr 3 in
  Bytes.set_uint8 t.waited i (Bytes.get_uint8 t.waited i land lnot (1 lsl (id land 7)))

(* Whether [vs] holds a non-last version written by [txn]. *)
let rec waits_for txn = function
  | [] | [ _ ] -> false
  | v :: rest -> Txn_id.equal v.txn txn || waits_for txn rest

(* A commit is the only outcome that can let a floor anchor on a version,
   so only a commit wakes the parked keys that wait on its transaction.
   The bit says some key may; the scan visits the blocks holding parked
   keys and finds them. *)
let note_outcome t txn lsn ~aborted =
  let id = Txn_id.to_int txn in
  Hashtbl.replace t.outcomes id (Lsn.Outcome.make lsn ~aborted);
  if (not aborted) && waits_on t id then begin
    clear_waited t id;
    Block_id.Tbl.iter
      (fun _ e ->
        if e.parked > 0 then
          Hashtbl.iter
            (fun key vs ->
              if waits_for txn vs && not (List.exists (String.equal key) e.work)
              then unpark t e key)
            e.keys)
      t.table
  end

let outcomes t =
  Hashtbl.fold
    (fun txn o acc ->
      (Txn_id.of_int txn, Lsn.Outcome.lsn o, Lsn.Outcome.aborted o) :: acc)
    t.outcomes []

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

(* One pass over the block's chains.  Chains are newest first by LSN, so the
   versions visible at [as_of] are a suffix, shared as is; only the heads
   hidden above it are sized, and the image's size is the entry's total
   less theirs. *)
let image t block ~as_of =
  match Block_id.Tbl.find_opt t.table block with
  | None -> ([], 0)
  | Some e ->
    let hidden = ref 0 in
    let rec visible key = function
      | v :: rest when Lsn.(v.lsn > as_of) ->
        hidden := !hidden + version_bytes key v;
        visible key rest
      | vs -> vs
    in
    let entries =
      Hashtbl.fold
        (fun key vs acc ->
          match visible key vs with [] -> acc | vs -> (key, vs) :: acc)
        e.keys []
    in
    (entries, e.bytes - !hidden)

let load_snapshot t block snapshot =
  (* Remove existing accounting for the block, then install.  The old entry
     may still be on [t.busy]; an empty work list makes GC pass it by. *)
  (match Block_id.Tbl.find_opt t.table block with
  | None -> ()
  | Some e ->
    Hashtbl.iter (drop_versions t e) e.keys;
    e.work <- [];
    Block_id.Tbl.remove t.table block);
  let e = entry_of t block in
  List.iter
    (fun (key, vs) ->
      Hashtbl.replace e.keys key vs;
      if is_multi vs then push_work t e key;
      List.iter
        (fun v ->
          account t e 1 key v;
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

(* Recovery truncation is rare, so it scans every key and rebuilds the GC
   index with nothing parked.  Emptied chains stay in the table as [[]]:
   block images carry them. *)
let rollback_above t bound =
  let dropped = ref 0 in
  t.busy <- [];
  Block_id.Tbl.iter
    (fun _ e ->
      e.work <- [];
      e.parked <- 0;
      Hashtbl.filter_map_inplace
        (fun key vs ->
          let keep =
            match List.partition (fun v -> Lsn.(v.lsn <= bound)) vs with
            | _, [] -> vs
            | keep, drop ->
              dropped := !dropped + List.length drop;
              drop_versions t e key drop;
              rechain e key ~before:vs keep
          in
          if is_multi keep then push_work t e key;
          Some keep)
        e.keys)
    t.table;
  if Lsn.(t.applied > bound) then t.applied <- bound;
  !dropped

let gc t ~keep_at_or_above =
  let dropped = ref 0 in
  let outcome v = Hashtbl.find_opt t.outcomes (Txn_id.to_int v.txn) in
  (* Versions older than the newest version at or below the floor whose
     transaction committed at or below it are unreachable by any legal read
     view.  Versions of transactions whose outcome this segment does not
     know are kept (conservative: an in-flight or elsewhere-committed
     transaction must not lose its data, and an aborted one must not anchor
     the cut).  [below_cut] is the collectable tail of a chain, [[]] when
     nothing is. *)
  let anchors v =
    match outcome v with
    | Some o -> (not (Lsn.Outcome.aborted o)) && Lsn.(Lsn.Outcome.lsn o <= keep_at_or_above)
    | None -> false
  in
  let rec below_cut = function
    | [] -> []
    | v :: rest ->
      if Lsn.(v.lsn <= keep_at_or_above) && anchors v then rest else below_cut rest
  in
  (* Only a non-last version can anchor a cut.  With none committed, no
     floor can collect the chain until a write or a commit changes it. *)
  let rec parkable = function
    | [] | [ _ ] -> true
    | v :: rest -> (
      match outcome v with
      | Some o when not (Lsn.Outcome.aborted o) -> false
      | Some _ | None -> parkable rest)
  in
  let rec wait_on = function
    | [] | [ _ ] -> ()
    | v :: rest ->
      set_waited t (Txn_id.to_int v.txn);
      wait_on rest
  in
  (* Collect [key]'s tail; whether the key stays on the work list. *)
  let visit e key =
    let vs = Hashtbl.find e.keys key in
    let kept =
      match below_cut vs with
      | [] -> vs
      | old ->
        let n_old = List.length old in
        dropped := !dropped + n_old;
        drop_versions t e key old;
        let n_kept = List.length vs - n_old in
        let kept = List.filteri (fun i _ -> i < n_kept) vs in
        (* The head always survives the cut, so the checksum is unchanged. *)
        Hashtbl.replace e.keys key kept;
        kept
    in
    if not (is_multi kept) then false
    else if parkable kept then begin
      wait_on kept;
      e.parked <- e.parked + 1;
      false
    end
    else true
  in
  let busy = t.busy in
  t.busy <- [];
  List.iter
    (fun e ->
      match List.filter (visit e) e.work with
      | [] -> e.work <- []
      | work ->
        e.work <- work;
        t.busy <- e :: t.busy)
    busy;
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
        (* Swap in an altered copy (the version itself is shared with the
           record and with peers) and deliberately leave stored_checksum
           stale. *)
        Hashtbl.replace e.keys key
          ({ v with value = Some (Bytes.to_string b) } :: rest);
        true
      | _ -> false))

let verify t block =
  match Block_id.Tbl.find_opt t.table block with
  | None -> true
  | Some e -> compute_checksum e = e.stored_checksum
