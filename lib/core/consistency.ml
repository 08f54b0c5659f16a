open Wal
open Quorum
module Pg_id = Storage.Pg_id

type pg_state = {
  mutable write_quorum : Quorum_set.t;
  mutable scls : Lsn.t array;
      (* highest SCL acked, by member id; [Lsn.none] = never acked *)
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
  on_pgcl : Pg_id.t -> Lsn.t -> unit;
  on_volume : vcl:Lsn.t -> vdl:Lsn.t option -> unit;
}

let create ?(on_pgcl = fun _ _ -> ()) ?(on_volume = fun ~vcl:_ ~vdl:_ -> ()) () =
  {
    pgs = Pg_id.Tbl.create 8;
    volume_chain = Queue.create ();
    last_submitted = Lsn.none;
    vcl = Lsn.none;
    vdl = Lsn.none;
    on_pgcl;
    on_volume;
  }

let pg_state t pg =
  match Pg_id.Tbl.find t.pgs pg with
  | st -> st
  | exception Not_found -> invalid_arg "Consistency: unknown protection group"

let note_submitted t ~pg ~lsn ~mtr_end =
  if Lsn.(lsn <= t.last_submitted) then
    invalid_arg "Consistency.note_submitted: LSNs must be submitted in order";
  t.last_submitted <- lsn;
  let st = pg_state t pg in
  Queue.push lsn st.chain;
  Queue.push { lsn; pg; mtr_end } t.volume_chain

let scl_of st seg =
  let i = Member_id.to_int seg in
  if i < Array.length st.scls then st.scls.(i) else Lsn.none

let set_scl st seg scl =
  let i = Member_id.to_int seg in
  let n = Array.length st.scls in
  if i >= n then begin
    let grown = Array.make (max (i + 1) (2 * n)) Lsn.none in
    Array.blit st.scls 0 grown 0 n;
    st.scls <- grown
  end;
  st.scls.(i) <- scl

(* Does [seg]'s SCL cover [lsn]?  A segment that never acked holds
   nothing the writer knows of, so it covers nothing. *)
let scl_covers st lsn seg =
  let scl = scl_of st seg in
  (not (Lsn.is_none scl)) && Lsn.(scl >= lsn)

(* Advance the group's PGCL: pop chain heads while the segments covering
   them satisfy the write quorum.  SCL coverage is antitone in LSN, so a
   failing head stops the scan. *)
let advance_pgcl st =
  while
    (not (Queue.is_empty st.chain))
    && Quorum_set.satisfied_by st.write_quorum
         (scl_covers st (Queue.peek st.chain))
  do
    st.pgcl <- Queue.pop st.chain
  done

(* Advance VCL: pop the volume chain while each head is covered by its own
   group's PGCL ("no pending writes preventing PGCL from advancing").  VDL
   only moves with VCL.  Both are set before [on_volume] hears of either,
   so whatever it triggers (a commit ack, a read) sees the new VDL. *)
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
    let vdl_moved = Lsn.(!new_vdl > t.vdl) in
    if vdl_moved then t.vdl <- !new_vdl;
    t.on_volume ~vcl:t.vcl ~vdl:(if vdl_moved then Some t.vdl else None)
  end

let advance t pg st =
  let before = st.pgcl in
  advance_pgcl st;
  if Lsn.(st.pgcl > before) then begin
    t.on_pgcl pg st.pgcl;
    advance_vcl t
  end

let note_ack t ~pg ~seg ~scl =
  let st = pg_state t pg in
  (* Acks can be reordered in flight; a segment's SCL is monotone, so a
     lower value is always stale news and must not regress the tracker. *)
  if Lsn.(scl > scl_of st seg) then begin
    Perf.Probe.start Perf.Probe.Consistency_advance;
    set_scl st seg scl;
    advance t pg st;
    Perf.Probe.stop Perf.Probe.Consistency_advance
  end

(* A looser write quorum can cover chain heads the old one did not, and no
   further ack may arrive to notice, so a swap re-runs the advance. *)
let register_pg t pg ~write_quorum =
  match Pg_id.Tbl.find_opt t.pgs pg with
  | Some st ->
    st.write_quorum <- write_quorum;
    advance t pg st
  | None ->
    Pg_id.Tbl.add t.pgs pg
      {
        write_quorum;
        scls = Array.make 8 Lsn.none;
        chain = Queue.create ();
        pgcl = Lsn.none;
      }

let set_write_quorum t pg q = register_pg t pg ~write_quorum:q

let pgcl t pg = (pg_state t pg).pgcl
let vcl t = t.vcl
let vdl t = t.vdl

let covers t ~pg ~lsn =
  let st = pg_state t pg in
  fun seg -> scl_covers st lsn seg

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
