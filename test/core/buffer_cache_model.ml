(* Reference model for [Aurora_core.Buffer_cache]: the eager cache it
   replaced.  Every block holds a key table from the start, and an install
   hashes each key of the image into it, merging with what a local write
   left.  Kept only as the oracle of the lazy image entry's model test. *)

open Wal

(* Every cached block sits on one circular doubly-linked list threaded
   through [prev]/[next], least recently used right after the sentinel,
   most recently used right before it.  List order is recency order, so no
   use stamp is kept. *)
type cached_block = {
  block : Block_id.t;
  keys : (string, Storage.Block_store.version list) Hashtbl.t;
  mutable last_lsn : Lsn.t;
  (* A block created by a blind write holds only the keys written since it
     entered the cache; only a storage image makes it authoritative for
     absent keys. *)
  mutable complete : bool;
  mutable prev : cached_block;
  mutable next : cached_block;
}

type stats = { hits : int; misses : int; evictions : int; eviction_blocked : int }

type t = {
  capacity : int;
  table : cached_block Block_id.Tbl.t;
  lru : cached_block; (* sentinel: [lru.next] is the LRU block *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable eviction_blocked : int;
}

let node block =
  let rec n =
    {
      block;
      keys = Hashtbl.create 8;
      last_lsn = Lsn.none;
      complete = false;
      prev = n;
      next = n;
    }
  in
  n

let create ~capacity =
  if capacity <= 0 then invalid_arg "Buffer_cache.create: capacity";
  {
    capacity;
    table = Block_id.Tbl.create capacity;
    lru = node (Block_id.of_int 0) (* never in [table] *);
    hits = 0;
    misses = 0;
    evictions = 0;
    eviction_blocked = 0;
  }

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_mru t e =
  e.prev <- t.lru.prev;
  e.next <- t.lru;
  t.lru.prev.next <- e;
  t.lru.prev <- e

let touch t entry =
  unlink entry;
  push_mru t entry

let contains t block = Block_id.Tbl.mem t.table block

type lookup =
  | Hit of Storage.Block_store.version list
  | Partial of Storage.Block_store.version list
  | Miss

let read t block ~key =
  match Block_id.Tbl.find_opt t.table block with
  | None ->
    t.misses <- t.misses + 1;
    Miss
  | Some entry ->
    touch t entry;
    let chain =
      match Hashtbl.find_opt entry.keys key with Some l -> l | None -> []
    in
    if entry.complete then begin
      t.hits <- t.hits + 1;
      Hit chain
    end
    else Partial chain

(* Evict LRU blocks whose redo is durable (last_lsn <= vdl) until at
   capacity.  Dirty blocks are skipped; if everything over capacity is
   dirty we stay oversized — the WAL rule wins over the memory target.
   One walk from the LRU end: a block skipped as dirty stays dirty for the
   rest of the call, so the walk never restarts. *)
let evict_pressure t ~vdl =
  let rec walk e =
    if Block_id.Tbl.length t.table > t.capacity then
      if e == t.lru then t.eviction_blocked <- t.eviction_blocked + 1
      else if Lsn.(e.last_lsn <= vdl) then begin
        let next = e.next in
        unlink e;
        Block_id.Tbl.remove t.table e.block;
        t.evictions <- t.evictions + 1;
        walk next
      end
      else walk e.next
  in
  walk t.lru.next

let entry_of t block =
  match Block_id.Tbl.find_opt t.table block with
  | Some e -> e
  | None ->
    let e = node block in
    Block_id.Tbl.add t.table block e;
    push_mru t e;
    e

let apply_to_entry t entry (r : Log_record.t) =
  (match r.op with
  | Put { key; _ } | Delete { key } ->
    let prior =
      match Hashtbl.find_opt entry.keys key with Some l -> l | None -> []
    in
    Hashtbl.replace entry.keys key (r.version :: prior)
  | Commit | Abort | Noop -> ());
  if Lsn.(r.lsn > entry.last_lsn) then entry.last_lsn <- r.lsn;
  touch t entry

let apply t r ~vdl =
  let entry = entry_of t r.Log_record.block in
  apply_to_entry t entry r;
  evict_pressure t ~vdl

let apply_if_present t r ~vdl =
  match Block_id.Tbl.find_opt t.table r.Log_record.block with
  | None -> false
  | Some entry ->
    apply_to_entry t entry r;
    evict_pressure t ~vdl;
    true

let note_partial_hit t = t.hits <- t.hits + 1

let install t (img : Storage.Protocol.block_image) ~vdl =
  let entry = entry_of t img.image_block in
  entry.complete <- true;
  List.iter
    (fun (key, versions) ->
      (* Merge: keep whichever chain is longer/newer.  Locally written
         versions above the image's as_of must not be lost. *)
      let local =
        match Hashtbl.find_opt entry.keys key with Some l -> l | None -> []
      in
      let merged =
        let newer =
          List.filter
            (fun (v : Storage.Block_store.version) ->
              Lsn.(v.lsn > img.image_as_of))
            local
        in
        newer @ versions
      in
      Hashtbl.replace entry.keys key merged;
      List.iter
        (fun (v : Storage.Block_store.version) ->
          if Lsn.(v.lsn > entry.last_lsn) then entry.last_lsn <- v.lsn)
        merged)
    img.image_entries;
  touch t entry;
  evict_pressure t ~vdl

let last_modified t block =
  match Block_id.Tbl.find_opt t.table block with
  | None -> None
  | Some e -> Some e.last_lsn

let size t = Block_id.Tbl.length t.table
let capacity t = t.capacity

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    eviction_blocked = t.eviction_blocked;
  }

let drop_all t =
  Block_id.Tbl.reset t.table;
  t.lru.prev <- t.lru;
  t.lru.next <- t.lru
