open Wal
open Quorum
module Pg_id = Storage.Pg_id

(* [roster]'s and [full_roster]'s last answers and the membership they
   were derived from. *)
type roster_memo = {
  of_membership : Membership.t;
  all : (Member_id.t * Simnet.Addr.t) list;
  full : (Member_id.t * Simnet.Addr.t) list;
}

type pg = {
  id : Pg_id.t;
  mutable membership : Membership.t;
  mutable addr_of : Simnet.Addr.t Member_id.Map.t;
  mutable segment_tail : Lsn.t;
  mutable memo : roster_memo option;
}

(* Block routing must be stable under volume growth: blocks written before
   a group was added keep their owner.  The block-id space is split into
   regions; each region stripes over the first [group_count] groups that
   existed when it was opened. *)
type region = { first_block : int; group_count : int }

type t = {
  mutable groups : pg list;
  mutable regions : region list; (* descending by first_block *)
  mutable volume_epoch : Epoch.t;
  mutable geometry_epoch : Epoch.t;
  alloc : Lsn.Allocator.t;
  mutable volume_tail : Lsn.t;
  block_tails : Lsn.t Block_id.Tbl.t;
}

let make_pg (id, membership, addrs) =
  {
    id;
    membership;
    addr_of =
      List.fold_left
        (fun acc (m, a) -> Member_id.Map.add m a acc)
        Member_id.Map.empty addrs;
    segment_tail = Lsn.none;
    memo = None;
  }

let create groups =
  if groups = [] then invalid_arg "Volume.create: no protection groups";
  {
    groups = List.map make_pg groups;
    regions = [ { first_block = 0; group_count = List.length groups } ];
    volume_epoch = Epoch.initial;
    geometry_epoch = Epoch.initial;
    alloc = Lsn.Allocator.create ();
    volume_tail = Lsn.none;
    block_tails = Block_id.Tbl.create 256;
  }

let pgs t = t.groups
let pg_count t = List.length t.groups

let find_pg t id =
  match List.find_opt (fun g -> Pg_id.equal g.id id) t.groups with
  | Some g -> g
  | None -> invalid_arg "Volume.find_pg: unknown protection group"

let pg_of_block t block =
  let b = Block_id.to_int block in
  let region =
    match List.find_opt (fun r -> b >= r.first_block) t.regions with
    | Some r -> r
    | None -> invalid_arg "Volume.pg_of_block: negative block"
  in
  List.nth t.groups (b mod region.group_count)

let volume_epoch t = t.volume_epoch

let bump_volume_epoch t =
  t.volume_epoch <- Epoch.next t.volume_epoch;
  t.volume_epoch

let geometry_epoch t = t.geometry_epoch
let last_lsn t = Lsn.Allocator.last t.alloc
let tail t = t.volume_tail

let epochs_for t pg =
  {
    Storage.Protocol.volume = t.volume_epoch;
    membership = Membership.epoch pg.membership;
  }

let rule pg = Membership.rule pg.membership

(* Every boxcar flush asks for the roster and every read miss for its full
   segments.  Both change only with the membership, a new value at every
   transition, and [adopt] never changes the address map without it. *)
let rosters pg =
  match pg.memo with
  | Some m when m.of_membership == pg.membership -> m
  | Some _ | None ->
    let members = Membership.members pg.membership in
    let pick keep =
      List.filter_map
        (fun (m : Membership.member) ->
          match Member_id.Map.find_opt m.id pg.addr_of with
          | Some addr when keep m -> Some (m.id, addr)
          | Some _ | None -> None)
        members
    in
    let m =
      {
        of_membership = pg.membership;
        all = pick (fun _ -> true);
        full =
          pick (fun m -> match m.kind with Membership.Full -> true | Membership.Tail -> false);
      }
    in
    pg.memo <- Some m;
    m

let roster pg = (rosters pg).all
let full_roster pg = (rosters pg).full

let make_record t ~block ~txn ~mtr_id ~mtr_end ~op =
  let pg = pg_of_block t block in
  let lsn = Lsn.Allocator.take t.alloc in
  let prev_block =
    match Block_id.Tbl.find_opt t.block_tails block with
    | Some l -> l
    | None -> Lsn.none
  in
  let record =
    Log_record.make ~lsn ~prev_volume:t.volume_tail
      ~prev_segment:pg.segment_tail ~prev_block ~block ~txn ~mtr_id ~mtr_end
      ~op
  in
  t.volume_tail <- lsn;
  pg.segment_tail <- lsn;
  Block_id.Tbl.replace t.block_tails block lsn;
  (record, pg)

let grow t ~new_blocks_from membership addrs =
  let id = Pg_id.of_int (List.length t.groups) in
  let g = make_pg (id, membership, addrs) in
  t.groups <- t.groups @ [ g ];
  let boundary = Block_id.to_int new_blocks_from in
  (match t.regions with
  | r :: _ when boundary <= r.first_block ->
    invalid_arg "Volume.grow: new region must start above existing ones"
  | _ -> ());
  t.regions <-
    { first_block = boundary; group_count = List.length t.groups } :: t.regions;
  t.geometry_epoch <- Epoch.next t.geometry_epoch;
  g

(* Every transition ends here: on [Ok m], install [m] and keep only its
   members' addresses. *)
let adopt g addr_of = function
  | Error _ as e -> e
  | Ok m ->
    g.membership <- m;
    g.addr_of <-
      Member_id.Map.filter (fun id _ -> Option.is_some (Membership.find_member m id)) addr_of;
    Ok ()

let begin_membership_change t pg_id ~suspect ~replacement ~replacement_addr =
  let g = find_pg t pg_id in
  adopt g
    (Member_id.Map.add replacement.Membership.id replacement_addr g.addr_of)
    (Membership.begin_change g.membership ~suspect ~replacement)

let commit_membership_change t pg_id ~suspect =
  let g = find_pg t pg_id in
  adopt g g.addr_of (Membership.commit_change g.membership ~suspect)

let revert_membership_change t pg_id ~suspect =
  let g = find_pg t pg_id in
  adopt g g.addr_of (Membership.revert_change g.membership ~suspect)

let change_scheme t pg_id ~scheme members =
  let g = find_pg t pg_id in
  if List.exists (fun (m : Membership.member) -> not (Member_id.Map.mem m.id g.addr_of)) members
  then Error "a member of the new roster has no address"
  else adopt g g.addr_of (Membership.change_scheme g.membership ~scheme members)

let restore_tails t ~alloc_above ~volume_tail ~pg_tails ~block_tails =
  Lsn.Allocator.reset_above t.alloc alloc_above;
  t.volume_tail <- volume_tail;
  List.iter
    (fun (pg_id, tail) ->
      match List.find_opt (fun g -> Pg_id.equal g.id pg_id) t.groups with
      | Some g -> g.segment_tail <- tail
      | None -> ())
    pg_tails;
  Block_id.Tbl.reset t.block_tails;
  List.iter
    (fun (block, tail) -> Block_id.Tbl.replace t.block_tails block tail)
    block_tails
