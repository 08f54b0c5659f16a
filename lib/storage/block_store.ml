open Wal

type version = Log_record.version = {
  value : string option;
  txn : Txn_id.t;
  lsn : Lsn.t;
}

(* A block's keys live in a chained hash table of this module's own: the
   bucket nodes hold the version chains in place, so a write finds its key
   with one hash and conses onto the node, and the GC work list holds
   nodes, so a visit rewrites a chain without a lookup.  A node is 4 words,
   as a [Hashtbl] bucket is.  Iteration order is the table's own, and
   nothing may depend on it. *)
type bucket =
  | Empty
  | Node of { key : string; mutable vs : version list; mutable next : bucket }

type entry = {
  mutable slots : bucket array; (* length a power of two *)
  mutable nkeys : int;
  mutable work : bucket list;
      (* GC work list: the nodes with >= 2 versions that are not parked, each
         once.  A single-version key has nothing to collect.  The entry is
         on [t.busy] exactly when this is non-empty. *)
  mutable parked : int; (* nodes with >= 2 versions not on [work] *)
  mutable listed : bool; (* on [t.parked_in] *)
  mutable bytes : int; (* [version_bytes] of every version held: its share of [t.bytes] *)
  mutable newest : Lsn.t; (* at or above every version's LSN *)
  mutable memo : (string * version list) list * int;
      (* The image every [as_of >= newest] reads, or [no_image].  Every
         change to a chain clears it. *)
}

(* The empty memo, told apart by physical equality: a block whose chains
   are all empty memoises its own [([], 0)]. *)
let no_image : (string * version list) list * int = ([], -1)

(* A segment holds one stripe of the block space ([Volume.pg_of_block] is
   [b mod group_count]), so under [Block_id.Tbl]'s identity hash only
   1/group_count of the power-of-two buckets would be used.  The word mix
   spreads the stripe over all of them; nothing observes the order. *)
module Blocks = Hashtbl.Make (struct
  type t = Block_id.t

  let equal = Block_id.equal
  let hash b = Simcore.Bits.mix_finish (Block_id.to_int b)
end)

type t = {
  table : entry Blocks.t;
  sums : int Blocks.t;
      (* The tracked blocks' stored checksums.  A block is here only from a
         [corrupt] to its next [load_snapshot]; every other block's sum is
         implicit, the sum of its heads' terms, and costs nothing. *)
  mutable applied : Lsn.t;
  mutable nversions : int;
  mutable bytes : int;
  outcomes : Simcore.Int_table.t; (* txn -> outcome, as its int *)
  mutable busy : entry list; (* the entries with a non-empty work list *)
  mutable parked_in : entry list;
      (* Every entry with parked keys, and entries whose last parked key
         left since the last wake ([listed] is true exactly for these). *)
  mutable waited : Bytes.t;
      (* Bit per txn id: set when a key parks on it, cleared by the wake scan
         its commit triggers.  A stale bit only costs a scan. *)
}

let create () =
  {
    table = Blocks.create 64;
    sums = Blocks.create 8;
    applied = Lsn.none;
    nversions = 0;
    bytes = 0;
    outcomes = Simcore.Int_table.create 64;
    busy = [];
    parked_in = [];
    waited = Bytes.empty;
  }

let entry_of t block =
  match Blocks.find_opt t.table block with
  | Some e -> e
  | None ->
    let e =
      {
        slots = Array.make 8 Empty;
        nkeys = 0;
        work = [];
        parked = 0;
        listed = false;
        bytes = 0;
        newest = Lsn.none;
        memo = no_image;
      }
    in
    Blocks.add t.table block e;
    e

let push_work t e node =
  (match e.work with [] -> t.busy <- e :: t.busy | _ :: _ -> ());
  e.work <- node :: e.work

let park t e =
  e.parked <- e.parked + 1;
  if not e.listed then begin
    e.listed <- true;
    t.parked_in <- e :: t.parked_in
  end

let unpark t e node =
  e.parked <- e.parked - 1;
  push_work t e node

let version_bytes key v =
  String.length key
  + (match v.value with Some s -> String.length s | None -> 0)
  + 24 (* txn + lsn + tag overhead *)

let is_multi = function _ :: _ :: _ -> true | [] | [ _ ] -> false

(* One key's term of the block checksum: a digest of its newest version,
   folded a word at a time.  [head_term] starts from the key already folded
   ([key_mix]), which also picks the key's slot, so a write folds its key
   once.  A delete folds -1 where a value's length would go, which no
   string has. *)
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

(* ---- The key table ---- *)

let slot slots hk = Simcore.Bits.mix_finish hk land (Array.length slots - 1)

(* [key]'s node in one bucket, or [Empty]. *)
let rec find key = function
  | Empty -> Empty
  | Node n as node -> if String.equal n.key key then node else find key n.next

(* Double the slots, as [Hashtbl] does, at two keys per slot. *)
let grow e =
  let slots = Array.make (2 * Array.length e.slots) Empty in
  let rec move = function
    | Empty -> ()
    | Node n as node ->
      let next = n.next in
      let i = slot slots (key_mix n.key) in
      n.next <- slots.(i);
      slots.(i) <- node;
      move next
  in
  Array.iter move e.slots;
  e.slots <- slots

(* A new node for [key], which is in no bucket, at slot [i]. *)
let add_node e i key vs =
  let node = Node { key; vs; next = e.slots.(i) } in
  e.slots.(i) <- node;
  e.nkeys <- e.nkeys + 1;
  if e.nkeys > 2 * Array.length e.slots then grow e;
  node

let fold_chains f e acc =
  let rec bucket acc = function Empty -> acc | Node n -> bucket (f n.key n.vs acc) n.next in
  Array.fold_left bucket acc e.slots

let iter_nodes f e =
  let rec bucket = function
    | Empty -> ()
    | Node n as node ->
      f node;
      bucket n.next
  in
  Array.iter bucket e.slots

(* Digest of the current (newest-version-per-key) contents.  Combining with
   an order-independent sum keeps it stable across table iteration order,
   and lets a legitimate write swap its key's term in O(1) (integer
   wrap-around keeps the swap exact). *)
let compute_checksum e = fold_chains (fun key vs acc -> acc + head_hash key vs) e 0

(* Every legitimate rewrite of a key's head passes through here.  An
   implicit block has nothing to keep, and no benchmark workload tracks
   any, so the common cost is one length test.  On a tracked block only
   the key's own term moves, so a corrupted head stays mismatched however
   many writes follow, until [load_snapshot] returns the block to
   implicit. *)
let rechain t block hk ~before after =
  if Blocks.length t.sums > 0 then
    match Blocks.find_opt t.sums block with
    | None -> ()
    | Some sum ->
      Blocks.replace t.sums block (sum - head_term hk before + head_term hk after)

(* Every version added ([dir] = 1) or dropped ([dir] = -1) moves the count,
   the store's byte total and the entry's share of it together. *)
let account t (e : entry) dir key v =
  let n = dir * version_bytes key v in
  t.nversions <- t.nversions + dir;
  t.bytes <- t.bytes + n;
  e.bytes <- e.bytes + n

(* Unaccount [vs]; [n] plus the versions dropped. *)
let rec drop_versions t e key n = function
  | [] -> n
  | v :: rest ->
    account t e (-1) key v;
    drop_versions t e key (n + 1) rest

(* One hash finds the key's node, or the slot a new one goes in.  A write
   to a parked key can make it collectable: wake it. *)
let add_version t block e key v =
  e.memo <- no_image;
  if Lsn.(v.lsn > e.newest) then e.newest <- v.lsn;
  let hk = key_mix key in
  let i = slot e.slots hk in
  (match find key e.slots.(i) with
  | Node n as node -> (
    let prior = n.vs in
    n.vs <- v :: prior;
    rechain t block hk ~before:prior n.vs;
    match prior with
    | [] -> ()
    | [ _ ] -> push_work t e node
    | _ :: _ :: _ -> if e.parked > 0 && not (List.memq node e.work) then unpark t e node)
  | Empty ->
    let vs = [ v ] in
    rechain t block hk ~before:[] vs;
    ignore (add_node e i key vs : bucket));
  account t e 1 key v

let apply t (r : Log_record.t) =
  (match r.op with
  | Put { key; _ } | Delete { key } ->
    add_version t r.block (entry_of t r.block) key r.version
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
   The bit says some key may; the scan visits the blocks on [t.parked_in]
   that still hold parked keys, finds them, and keeps only the blocks that
   still do. *)
let note_outcome t txn lsn ~aborted =
  let id = Txn_id.to_int txn in
  Simcore.Int_table.replace t.outcomes id (Lsn.Outcome.make lsn ~aborted :> int);
  if (not aborted) && waits_on t id then begin
    clear_waited t id;
    let listed = t.parked_in in
    t.parked_in <- [];
    List.iter
      (fun e ->
        if e.parked > 0 then
          iter_nodes
            (fun node ->
              match node with
              | Node n when waits_for txn n.vs && not (List.memq node e.work) ->
                unpark t e node
              | Node _ | Empty -> ())
            e;
        if e.parked > 0 then t.parked_in <- e :: t.parked_in else e.listed <- false)
      listed
  end

let outcomes t =
  Simcore.Int_table.fold
    (fun txn o acc ->
      let o = Lsn.Outcome.of_int o in
      (Txn_id.of_int txn, Lsn.Outcome.lsn o, Lsn.Outcome.aborted o) :: acc)
    t.outcomes []

let versions t block ~key =
  match Blocks.find_opt t.table block with
  | None -> []
  | Some e -> (
    match find key e.slots.(slot e.slots (key_mix key)) with Node n -> n.vs | Empty -> [])

let read_at t block ~key ~as_of ~exclude =
  let rec pick = function
    | [] -> None
    | v :: rest ->
      if Lsn.(v.lsn <= as_of) && not (Txn_id.Set.mem v.txn exclude) then Some v
      else pick rest
  in
  pick (versions t block ~key)

let block_snapshot t block =
  match Blocks.find_opt t.table block with
  | None -> []
  | Some e -> fold_chains (fun key vs acc -> (key, vs) :: acc) e []

(* One pass over the block's chains.  Chains are newest first by LSN, so the
   versions visible at [as_of] are a suffix, shared as is; only the heads
   hidden above it are sized, and the image's size is the entry's total
   less theirs. *)
let build e ~as_of =
  let hidden = ref 0 in
  let rec visible key = function
    | v :: rest when Lsn.(v.lsn > as_of) ->
      hidden := !hidden + version_bytes key v;
      visible key rest
    | vs -> vs
  in
  let entries =
    fold_chains
      (fun key vs acc -> match visible key vs with [] -> acc | vs -> (key, vs) :: acc)
      e []
  in
  (entries, e.bytes - !hidden)

(* At or above [newest] every chain is visible whole: that image is built
   once and kept until a chain changes.  [find] rather than [find_opt], so
   a memo hit allocates nothing. *)
let image t block ~as_of =
  match Blocks.find t.table block with
  | exception Not_found -> ([], 0)
  | e when Lsn.(e.newest <= as_of) ->
    if e.memo == no_image then e.memo <- build e ~as_of;
    e.memo
  | e -> build e ~as_of

let load_snapshot t block snapshot =
  (* Remove existing accounting for the block, then install.  The old entry
     may still be on [t.busy] and [t.parked_in]; an empty work list makes GC
     pass it by, and no parked keys make a wake pass it by. *)
  (match Blocks.find_opt t.table block with
  | None -> ()
  | Some e ->
    ignore (fold_chains (fun key vs n -> drop_versions t e key n vs) e 0 : int);
    e.work <- [];
    e.parked <- 0;
    Blocks.remove t.table block);
  let e = entry_of t block in
  List.iter
    (fun (key, vs) ->
      let i = slot e.slots (key_mix key) in
      let node =
        match find key e.slots.(i) with
        | Node n as node ->
          n.vs <- vs;
          node
        | Empty -> add_node e i key vs
      in
      if is_multi vs then push_work t e node;
      List.iter
        (fun v ->
          account t e 1 key v;
          if Lsn.(v.lsn > e.newest) then e.newest <- v.lsn;
          if Lsn.(v.lsn > t.applied) then t.applied <- v.lsn)
        vs)
    snapshot;
  (* The authoritative repair: the image is the block's contents, so its
     sum is implicit again. *)
  Blocks.remove t.sums block

(* A tracked block's stored sum, when its heads no longer digest to it. *)
let mismatch t block =
  if Blocks.length t.sums = 0 then None
  else
    match (Blocks.find_opt t.sums block, Blocks.find_opt t.table block) with
    | Some sum, Some e when compute_checksum e <> sum -> Some sum
    | _ -> None

let repair t block snapshot =
  match mismatch t block with
  | Some sum when List.fold_left (fun acc (key, vs) -> acc + head_hash key vs) 0 snapshot = sum
    ->
    load_snapshot t block snapshot;
    true
  | Some _ | None -> false

(* Recovery truncation is rare, so it scans every key and rebuilds the GC
   index with nothing parked.  Emptied chains stay in the table as [[]]:
   block images carry them. *)
let rollback_above t bound =
  let dropped = ref 0 in
  t.busy <- [];
  t.parked_in <- [];
  Blocks.iter
    (fun block e ->
      e.work <- [];
      e.parked <- 0;
      e.listed <- false;
      if Lsn.(e.newest > bound) then e.newest <- bound;
      iter_nodes
        (fun node ->
          match node with
          | Empty -> ()
          | Node n ->
            let vs = n.vs in
            (match List.partition (fun v -> Lsn.(v.lsn <= bound)) vs with
            | _, [] -> ()
            | keep, drop ->
              dropped := drop_versions t e n.key !dropped drop;
              n.vs <- keep;
              e.memo <- no_image;
              rechain t block (key_mix n.key) ~before:vs keep);
            if is_multi n.vs then push_work t e node)
        e)
    t.table;
  if Lsn.(t.applied > bound) then t.applied <- bound;
  !dropped

let gc t ~keep_at_or_above =
  let dropped = ref 0 in
  (* An outcome is stored as its int, which is never negative. *)
  let outcome v = Simcore.Int_table.find t.outcomes (Txn_id.to_int v.txn) ~default:(-1) in
  (* [live]: a version of the kept chain other than its last has a commit
     outcome, so the key cannot park (see [cut]). *)
  let live = ref false in
  (* Versions older than the newest version at or below the floor whose
     transaction committed at or below it are unreachable by any legal read
     view.  Versions of transactions whose outcome this segment does not
     know are kept (conservative: an in-flight or elsewhere-committed
     transaction must not lose its data, and an aborted one must not anchor
     the cut).  [cut key e vs] drops the collectable tail of [vs] and
     returns the kept prefix, [vs] itself when nothing goes.

     Only a non-last kept version can anchor a later cut, so the same walk
     sets [live] when one of those has a commit outcome.  With none, no
     floor can collect the chain until a write or a commit changes it: the
     key parks.  An outcome is looked up only where one of the two
     decisions needs it. *)
  let rec cut key e = function
    | [] -> []
    | v :: rest as vs ->
      let o =
        match rest with
        | _ :: _ when not !live -> outcome v
        | _ -> if Lsn.(v.lsn <= keep_at_or_above) then outcome v else -1
      in
      let committed = o >= 0 && not (Lsn.Outcome.aborted (Lsn.Outcome.of_int o)) in
      if
        committed
        && Lsn.(v.lsn <= keep_at_or_above)
        && Lsn.(Lsn.Outcome.lsn (Lsn.Outcome.of_int o) <= keep_at_or_above)
      then (
        match rest with
        | [] -> vs
        | _ :: _ ->
          dropped := drop_versions t e key !dropped rest;
          [ v ])
      else begin
        (match rest with _ :: _ when committed -> live := true | _ -> ());
        let kept = cut key e rest in
        if kept == rest then vs else v :: kept
      end
  in
  let rec wait_on = function
    | [] | [ _ ] -> ()
    | v :: rest ->
      set_waited t (Txn_id.to_int v.txn);
      wait_on rest
  in
  (* Collect a node's tail; whether it stays on the work list.  The head
     always survives the cut, so the checksum is unchanged. *)
  let visit e = function
    | Empty -> false
    | Node n ->
      live := false;
      let kept = cut n.key e n.vs in
      if kept != n.vs then begin
        n.vs <- kept;
        e.memo <- no_image
      end;
      if not (is_multi kept) then false
      else if !live then true
      else begin
        wait_on kept;
        park t e;
        false
      end
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

let blocks t = Blocks.fold (fun b _ acc -> b :: acc) t.table []

(* Only a tracked block can mismatch, so the scan is over [sums]. *)
let mismatched t =
  Blocks.fold
    (fun b _ acc -> match mismatch t b with Some _ -> b :: acc | None -> acc)
    t.sums []

let version_count t = t.nversions
let bytes_used t = t.bytes

(* The victim is the first non-empty newest value in table order; an empty
   one cannot change without changing its length (and so [bytes_used]).
   Adding one to the first byte, rather than flipping a bit, means a second
   corruption of the same head cannot undo the first.  The one door for a
   fault's edit: the block's legitimate sum is stored before the first edit
   lands, and a block already tracked keeps the sum its writes left. *)
let corrupt t block =
  match Blocks.find_opt t.table block with
  | None -> false
  | Some e ->
    let victim = ref Empty in
    iter_nodes
      (fun node ->
        match (!victim, node) with
        | Empty, Node { vs = { value = Some s; _ } :: _; _ } when String.length s > 0 ->
          victim := node
        | _ -> ())
      e;
    (match !victim with
    | Node ({ vs = ({ value = Some s; _ } as v) :: rest; _ } as n) ->
      let b = Bytes.of_string s in
      Bytes.set b 0 (Char.chr ((Char.code (Bytes.get b 0) + 1) land 0xff));
      if not (Blocks.mem t.sums block) then Blocks.replace t.sums block (compute_checksum e);
      (* Swap in an altered copy (the version itself is shared with the
         record and with peers); the stored sum keeps the legitimate head. *)
      n.vs <- { v with value = Some (Bytes.to_string b) } :: rest;
      e.memo <- no_image;
      true
    | Node _ | Empty -> false)

let verify t block = Option.is_none (mismatch t block)
