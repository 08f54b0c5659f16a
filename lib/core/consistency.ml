open Wal
open Quorum
module Pg_id = Storage.Pg_id

type pg_state = {
  mutable write_quorum : Quorum_set.t;
  scls : Lsn.t Member_id.Tbl.t;
  chain : Lsn.t Queue.t; (* submitted, not yet durable, in order *)
  mutable pgcl : Lsn.t;
}

type volume_entry = { lsn : Lsn.t; pg : Pg_id.t; mtr_end : bool }

type t = {
  pgs : pg_state Pg_id.Tbl.t;
  volume_chain : volume_entry Queue.t; (* submitted, not yet <= VCL *)
  mutable last_submitted : Lsn.t;
  mutable vcl : Lsn.t;
  mutable vdl : Lsn.t;
  mutable vcl_watchers : (Lsn.t -> unit) list;
  mutable vdl_watchers : (Lsn.t -> unit) list;
  mutable durable_watchers : (Pg_id.t -> Lsn.t -> unit) list;
}

let create () =
  {
    pgs = Pg_id.Tbl.create 8;
    volume_chain = Queue.create ();
    last_submitted = Lsn.none;
    vcl = Lsn.none;
    vdl = Lsn.none;
    vcl_watchers = [];
    vdl_watchers = [];
    durable_watchers = [];
  }

let register_pg t pg ~write_quorum =
  match Pg_id.Tbl.find_opt t.pgs pg with
  | Some st -> st.write_quorum <- write_quorum
  | None ->
    Pg_id.Tbl.add t.pgs pg
      {
        write_quorum;
        scls = Member_id.Tbl.create 8;
        chain = Queue.create ();
        pgcl = Lsn.none;
      }

let set_write_quorum t pg q =
  match Pg_id.Tbl.find_opt t.pgs pg with
  | Some st -> st.write_quorum <- q
  | None -> register_pg t pg ~write_quorum:q

let pg_state t pg =
  match Pg_id.Tbl.find_opt t.pgs pg with
  | Some st -> st
  | None -> invalid_arg "Consistency: unknown protection group"

let note_submitted t ~pg ~lsn ~mtr_end =
  if Lsn.(lsn <= t.last_submitted) then
    invalid_arg "Consistency.note_submitted: LSNs must be submitted in order";
  t.last_submitted <- lsn;
  let st = pg_state t pg in
  Queue.push lsn st.chain;
  Queue.push { lsn; pg; mtr_end } t.volume_chain

(* Segments whose SCL covers [lsn]. *)
let covering st lsn =
  Member_id.Tbl.fold
    (fun seg scl acc -> if Lsn.(scl >= lsn) then Member_id.Set.add seg acc else acc)
    st.scls Member_id.Set.empty

(* Advance the group's PGCL: pop chain heads while the segments covering
   them satisfy the write quorum.  SCL coverage is antitone in LSN, so a
   failing head stops the scan. *)
let advance_pgcl t pg st =
  let continue = ref true in
  while !continue do
    match Queue.peek_opt st.chain with
    | None -> continue := false
    | Some lsn ->
      if Quorum_set.satisfied st.write_quorum (covering st lsn) then begin
        ignore (Queue.pop st.chain : Lsn.t);
        st.pgcl <- lsn;
        List.iter (fun f -> f pg lsn) t.durable_watchers
      end
      else continue := false
  done

(* Advance VCL: pop the volume chain while each head is covered by its own
   group's PGCL ("no pending writes preventing PGCL from advancing"). *)
let advance_vcl t =
  let new_vcl = ref t.vcl in
  let new_vdl = ref t.vdl in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt t.volume_chain with
    | None -> continue := false
    | Some entry ->
      let st = pg_state t entry.pg in
      if Lsn.(entry.lsn <= st.pgcl) then begin
        ignore (Queue.pop t.volume_chain : volume_entry);
        new_vcl := entry.lsn;
        if entry.mtr_end then new_vdl := entry.lsn
      end
      else continue := false
  done;
  if Lsn.(!new_vcl > t.vcl) then begin
    t.vcl <- !new_vcl;
    List.iter (fun f -> f t.vcl) t.vcl_watchers
  end;
  if Lsn.(!new_vdl > t.vdl) then begin
    t.vdl <- !new_vdl;
    List.iter (fun f -> f t.vdl) t.vdl_watchers
  end

let note_ack t ~pg ~seg ~scl =
  let st = pg_state t pg in
  (* Acks can be reordered in flight; a segment's SCL is monotone, so a
     lower value is always stale news and must not regress the tracker. *)
  let prev =
    match Member_id.Tbl.find_opt st.scls seg with
    | Some l -> l
    | None -> Lsn.none
  in
  if Lsn.(scl > prev) then begin
    Perf.Probe.start Perf.Probe.Consistency_advance;
    Member_id.Tbl.replace st.scls seg scl;
    let before = st.pgcl in
    advance_pgcl t pg st;
    if Lsn.(st.pgcl > before) then advance_vcl t;
    Perf.Probe.stop Perf.Probe.Consistency_advance
  end

let pgcl t pg = (pg_state t pg).pgcl
let vcl t = t.vcl
let vdl t = t.vdl

let segments_at_or_above t ~pg ~lsn = covering (pg_state t pg) lsn

let on_vcl_advance t f = t.vcl_watchers <- f :: t.vcl_watchers
let on_vdl_advance t f = t.vdl_watchers <- f :: t.vdl_watchers
let on_record_durable t f = t.durable_watchers <- f :: t.durable_watchers

let restore t ~vcl ~vdl ~pg_points =
  Queue.clear t.volume_chain;
  t.last_submitted <- Lsn.max t.last_submitted vcl;
  t.vcl <- vcl;
  t.vdl <- vdl;
  List.iter
    (fun (pg, point) ->
      match Pg_id.Tbl.find_opt t.pgs pg with
      | None -> ()
      | Some st ->
        Queue.clear st.chain;
        st.pgcl <- point)
    pg_points
