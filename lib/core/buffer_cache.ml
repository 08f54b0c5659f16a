open Wal

(* How a block got its contents.  A block created by a blind write holds
   only the keys written since it entered the cache; only a storage image
   makes it authoritative for absent keys.  A block filled from one image,
   with nothing since, keeps the image's list and its [keys] is the cache's
   shared, always empty [unbuilt] table: most such blocks are evicted
   before a second lookup, so hashing their keys would be wasted. *)
type fill =
  | Blind (* blind writes only: keys in [keys], not authoritative *)
  | Built (* authoritative, keys in [keys] *)
  | Image of (string * Storage.Block_store.version list) list
      (* authoritative, keys still in the image's list *)

(* A block's keys, hashed with the word mix [Block_store]'s checksum
   terms use: four bytes a step, no C call and no polymorphic compare. *)
module Keys = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash k = Simcore.Bits.(mix_finish (mix_add_string mix_seed k))
end)

(* Every cached block sits on one circular doubly-linked list threaded
   through [prev]/[next], least recently used right after the sentinel,
   most recently used right before it.  List order is recency order, so no
   use stamp is kept. *)
type cached_block = {
  block : Block_id.t;
  mutable keys : Storage.Block_store.version list Keys.t;
  mutable fill : fill;
  mutable last_lsn : Lsn.t;
  mutable prev : cached_block;
  mutable next : cached_block;
}

type stats = { hits : int; misses : int; evictions : int; eviction_blocked : int }

(* The block table is an array indexed by block id, holding the sentinel
   [lru] for an absent block: a lookup hashes nothing and boxes no option.
   Ids above [n_blocks] appear when [Volume.grow] adds blocks, so it grows
   on demand.  Nothing iterates it, so no order can leak. *)
type t = {
  capacity : int;
  mutable table : cached_block array;
  mutable count : int; (* blocks present *)
  unbuilt : Storage.Block_store.version list Keys.t;
      (* the [keys] of every [Image] block: never written, never read *)
  lru : cached_block; (* sentinel: [lru.next] is the LRU block *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable eviction_blocked : int;
}

let node block keys fill =
  let rec n =
    {
      block;
      keys;
      fill;
      last_lsn = Lsn.none;
      prev = n;
      next = n;
    }
  in
  n

let create ~capacity =
  if capacity <= 0 then invalid_arg "Buffer_cache.create: capacity";
  let unbuilt = Keys.create 1 in
  let lru = node (Block_id.of_int 0) unbuilt Blind (* never in [table] *) in
  {
    capacity;
    table = Array.make 64 lru;
    count = 0;
    unbuilt;
    lru;
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

(* [block]'s entry, or the sentinel. *)
let find t block =
  let i = Block_id.to_int block in
  if i < Array.length t.table then t.table.(i) else t.lru

let contains t block = find t block != t.lru

type lookup =
  | Hit of Storage.Block_store.version list
  | Partial of Storage.Block_store.version list
  | Miss

(* [find] and [Not_found] rather than [find_opt], which would box a [Some]
   per hit. *)
let chain_of keys key = match Keys.find keys key with l -> l | exception Not_found -> []

(* An image holds each key once. *)
let rec chain_in entries key =
  match entries with
  | [] -> []
  | (k, versions) :: rest -> if String.equal k key then versions else chain_in rest key

let read t block ~key =
  let entry = find t block in
  if entry == t.lru then begin
    t.misses <- t.misses + 1;
    Miss
  end
  else begin
    touch t entry;
    match entry.fill with
    | Blind -> Partial (chain_of entry.keys key)
    | Built ->
      t.hits <- t.hits + 1;
      Hit (chain_of entry.keys key)
    | Image entries ->
      t.hits <- t.hits + 1;
      Hit (chain_in entries key)
  end

(* Evict LRU blocks whose redo is durable (last_lsn <= vdl) until at
   capacity.  Dirty blocks are skipped; if everything over capacity is
   dirty we stay oversized — the WAL rule wins over the memory target.
   One walk from the LRU end: a block skipped as dirty stays dirty for the
   rest of the call, so the walk never restarts. *)
let evict_pressure t ~vdl =
  let rec walk e =
    if t.count > t.capacity then
      if e == t.lru then t.eviction_blocked <- t.eviction_blocked + 1
      else if Lsn.(e.last_lsn <= vdl) then begin
        let next = e.next in
        unlink e;
        t.table.(Block_id.to_int e.block) <- t.lru;
        t.count <- t.count - 1;
        t.evictions <- t.evictions + 1;
        walk next
      end
      else walk e.next
  in
  walk t.lru.next

let add t block keys fill =
  let e = node block keys fill in
  let i = Block_id.to_int block in
  if i >= Array.length t.table then begin
    let table = Array.make (Int.max (2 * Array.length t.table) (i + 1)) t.lru in
    Array.blit t.table 0 table 0 (Array.length t.table);
    t.table <- table
  end;
  t.table.(i) <- e;
  t.count <- t.count + 1;
  push_mru t e;
  e

(* A local write or a second image merges into the block: build its key
   table first, from the image it was filled with. *)
let keys_of entry =
  (match entry.fill with
  | Image entries ->
    let keys = Keys.create 8 in
    List.iter (fun (key, versions) -> Keys.replace keys key versions) entries;
    entry.keys <- keys;
    entry.fill <- Built
  | Blind | Built -> ());
  entry.keys

let apply_to_entry t entry (r : Log_record.t) =
  (match r.op with
  | Put { key; _ } | Delete { key } ->
    let keys = keys_of entry in
    Keys.replace keys key (r.version :: chain_of keys key)
  | Commit | Abort | Noop -> ());
  if Lsn.(r.lsn > entry.last_lsn) then entry.last_lsn <- r.lsn;
  touch t entry

let apply t r ~vdl =
  let entry =
    let e = find t r.Log_record.block in
    if e != t.lru then e else add t r.Log_record.block (Keys.create 8) Blind
  in
  apply_to_entry t entry r;
  evict_pressure t ~vdl

let apply_if_present t r ~vdl =
  let entry = find t r.Log_record.block in
  if entry == t.lru then false
  else begin
    apply_to_entry t entry r;
    evict_pressure t ~vdl;
    true
  end

let note_partial_hit t = t.hits <- t.hits + 1

let rec newest_of (chain : Storage.Block_store.version list) acc =
  match chain with
  | [] -> acc
  | v :: rest -> newest_of rest (if Lsn.(v.lsn > acc) then v.lsn else acc)

let install t (img : Storage.Protocol.block_image) ~vdl =
  let entry = find t img.image_block in
  let entry =
    if entry == t.lru then begin
      let entry = add t img.image_block t.unbuilt (Image img.image_entries) in
      List.iter
        (fun (_, versions) -> entry.last_lsn <- newest_of versions entry.last_lsn)
        img.image_entries;
      entry
    end
    else begin
      let keys = keys_of entry in
      List.iter
        (fun (key, versions) ->
          (* Merge: keep whichever chain is longer/newer.  Locally written
             versions above the image's as_of must not be lost. *)
          let merged =
            let newer =
              List.filter
                (fun (v : Storage.Block_store.version) ->
                  Lsn.(v.lsn > img.image_as_of))
                (chain_of keys key)
            in
            newer @ versions
          in
          Keys.replace keys key merged;
          entry.last_lsn <- newest_of merged entry.last_lsn)
        img.image_entries;
      entry.fill <- Built;
      entry
    end
  in
  touch t entry;
  evict_pressure t ~vdl

let last_modified t block =
  let e = find t block in
  if e == t.lru then None else Some e.last_lsn

let size t = t.count
let capacity t = t.capacity

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    eviction_blocked = t.eviction_blocked;
  }

let drop_all t =
  Array.fill t.table 0 (Array.length t.table) t.lru;
  t.count <- 0;
  t.lru.prev <- t.lru;
  t.lru.next <- t.lru
