open Wal
open Quorum

type t = {
  pg : Pg_id.t;
  seg : Member_id.t;
  kind : Membership.segment_kind;
  mutable hot_log : Hot_log.t;
  store : Block_store.t;
  mutable coalesced : Lsn.t;
  mutable volume_epoch : Epoch.t;
  mutable membership_epoch : Epoch.t;
  mutable pgmrpl : Lsn.t;
  mutable backup_upto : Lsn.t;
  mutable pgcl_known : Lsn.t; (* writer-advertised group durable point *)
  mutable peers : (Member_id.t * Simnet.Addr.t) list;
}

let create ~pg ~seg ~kind =
  {
    pg;
    seg;
    kind;
    hot_log = Hot_log.create ();
    store = Block_store.create ();
    coalesced = Lsn.none;
    volume_epoch = Epoch.initial;
    membership_epoch = Epoch.initial;
    pgmrpl = Lsn.none;
    backup_upto = Lsn.none;
    pgcl_known = Lsn.none;
    peers = [];
  }

let pg t = t.pg
let seg_id t = t.seg
let kind t = t.kind
let hot_log t = t.hot_log
let store t = t.store
let scl t = Hot_log.scl t.hot_log
let coalesced_upto t = t.coalesced
let volume_epoch t = t.volume_epoch
let membership_epoch t = t.membership_epoch
let pgmrpl t = t.pgmrpl
let backup_upto t = t.backup_upto
let set_backup_upto t lsn = if Lsn.(lsn > t.backup_upto) then t.backup_upto <- lsn
let peers t = t.peers
let set_peers t peers = t.peers <- peers

let note_pgcl t pgcl =
  if Lsn.(pgcl > t.pgcl_known) then t.pgcl_known <- pgcl

let check_epochs t (e : Protocol.epochs) =
  (* Newer volume epochs are adopted: only a writer that fenced the old one
     through a quorum write can hold a higher epoch. *)
  if Epoch.compare e.volume t.volume_epoch > 0 then t.volume_epoch <- e.volume;
  if Epoch.is_stale e.volume ~current:t.volume_epoch then
    Error (Protocol.Stale_volume_epoch t.volume_epoch)
  else if Epoch.is_stale e.membership ~current:t.membership_epoch then
    Error (Protocol.Stale_membership_epoch t.membership_epoch)
  else Ok ()

let install_membership t ~epoch ~peers =
  if Epoch.compare epoch t.membership_epoch >= 0 then begin
    t.membership_epoch <- epoch;
    t.peers <- peers
  end

let install_volume_epoch t epoch =
  if Epoch.compare epoch t.volume_epoch > 0 then t.volume_epoch <- epoch

(* Durable transaction outcomes observed in received redo survive hot-log
   GC the way txn-system pages do in the production system; the block store
   keeps them, since its GC reads them. *)
let note_status t (r : Log_record.t) =
  match r.op with
  | Log_record.Commit -> Block_store.note_outcome t.store r.txn r.lsn ~aborted:false
  | Log_record.Abort -> Block_store.note_outcome t.store r.txn r.lsn ~aborted:true
  | Log_record.Put _ | Log_record.Delete _ | Log_record.Noop -> ()

let insert_records t records =
  List.iter
    (fun r ->
      match Hot_log.insert t.hot_log r with
      | Hot_log.Accepted -> note_status t r
      | Hot_log.Duplicate | Hot_log.Annulled -> ())
    records;
  scl t

let txn_statuses t = Block_store.outcomes t.store

let merge_statuses t statuses =
  List.iter
    (fun (txn, lsn, aborted) -> Block_store.note_outcome t.store txn lsn ~aborted)
    statuses

let retained_from t = Hot_log.dropped_upto t.hot_log

let coalesce t =
  match t.kind with
  | Membership.Tail -> 0
  | Membership.Full ->
    let applied =
      Hot_log.iter_chained_above t.hot_log t.coalesced (Block_store.apply t.store)
    in
    if Lsn.(scl t > t.coalesced) then t.coalesced <- scl t;
    applied

let read_block t ~block ~as_of =
  match t.kind with
  | Membership.Tail -> Error Protocol.Tail_segment
  | Membership.Full ->
    (* Acceptance: the segment chain must cover every group record at or
       below [as_of].  [as_of] is a volume LSN; the last group record at or
       below it is bounded by the group's durable point, so
       [scl >= min (as_of, pgcl_known)] suffices (records between PGCL and
       VCL for this group cannot exist by VCL's definition). *)
    if Lsn.(scl t < Lsn.min as_of t.pgcl_known) then
      Error (Protocol.Beyond_scl (scl t))
    else if Lsn.(as_of < t.pgmrpl) then
      Error (Protocol.Below_gc_floor t.pgmrpl)
    else begin
      ignore (coalesce t : int);
      Ok (Protocol.image_of ~block ~as_of (Block_store.image t.store block ~as_of))
    end

let truncate t ~above ~upto =
  let dropped_log = Hot_log.annul_range t.hot_log ~above ~upto in
  let dropped_versions =
    if Lsn.(t.coalesced > above) then begin
      let d = Block_store.rollback_above t.store above in
      t.coalesced <- above;
      d
    end
    else 0
  in
  dropped_log + dropped_versions

let advance_pgmrpl t floor =
  if Lsn.(floor > t.pgmrpl) then begin
    t.pgmrpl <- floor;
    Block_store.gc t.store ~keep_at_or_above:floor
  end
  else 0

let gc_hot_log t =
  let materialized =
    match t.kind with Membership.Full -> t.coalesced | Membership.Tail -> scl t
  in
  let floor = Lsn.min t.backup_upto (Lsn.min materialized t.pgmrpl) in
  if Lsn.is_none floor then 0 else Hot_log.drop_below t.hot_log ~upto:floor

let hydrate_export t ~since ~want_blocks =
  let records = Hot_log.chained_records_above t.hot_log since in
  let blocks =
    if want_blocks then
      List.map
        (fun b -> (b, Block_store.block_snapshot t.store b))
        (Block_store.blocks t.store)
    else []
  in
  (records, blocks)

let hydrate_import t ~records ~blocks ~donor_scl ~coalesced =
  (* Adopt the donor's chain position.  If the donor retains records, the
     anchor is the link below its oldest retained record; if its hot log
     was fully GCed (every record below its floor), the donor's SCL itself
     is the anchor — everything below it was durable before it could be
     collected. *)
  let anchor =
    match records with
    | first :: _ -> first.Log_record.prev_segment
    | [] -> donor_scl
  in
  if Lsn.(anchor > scl t) then t.hot_log <- Hot_log.create_anchored anchor;
  ignore (insert_records t records : Lsn.t);
  (* A donor's block snapshots are authoritative only up to the donor's
     coalesce point.  Once this segment has materialized past that point —
     e.g. a replacement that anchored off an earlier pull and has been
     applying the live write stream since — installing them would roll
     every block back to the donor's staler image while our own coalesce
     watermark stays high, so the overwritten versions would never be
     re-applied from the hot log: silent loss of acknowledged writes.
     Stale snapshots are therefore discarded.  At an equal coalesce point
     both sides materialized the same chain, so the donor's image can
     repair a block that fails its checksum here — the scrubber's path
     once writes stop.  [Block_store.repair] rejects an image that does
     not match the block's expected contents (a corrupt donor). *)
  if blocks <> [] then
    if Lsn.(coalesced > t.coalesced) then begin
      List.iter
        (fun (block, snapshot) -> Block_store.load_snapshot t.store block snapshot)
        blocks;
      t.coalesced <- coalesced
    end
    else if Lsn.equal coalesced t.coalesced then
      List.iter
        (fun (block, snapshot) ->
          ignore (Block_store.repair t.store block snapshot : bool))
        blocks;
  (match t.kind with
  | Membership.Full -> ignore (coalesce t : int)
  | Membership.Tail -> ())

let scrub t = Block_store.mismatched t.store

let bytes_stored t =
  Hot_log.bytes_stored t.hot_log + Block_store.bytes_used t.store
