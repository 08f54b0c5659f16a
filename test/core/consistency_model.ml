(* Reference model for [Aurora_core.Consistency]: the set-based tracker it
   replaced.  Every quorum check folds the group's SCL table into a member
   set ([covering]) and evaluates the write quorum on that set with the
   intersect-and-count [satisfied].  Slow and obviously faithful to the
   definitions in consistency.mli; kept only as the oracle of the tracker's
   model test. *)

open Wal
open Quorum

let rec satisfied (q : Quorum_set.t) responsive =
  match q with
  | Atom { threshold; members } ->
    Member_id.Set.cardinal (Member_id.Set.inter members responsive)
    >= threshold
  | All qs -> List.for_all (fun q -> satisfied q responsive) qs
  | Any qs -> List.exists (fun q -> satisfied q responsive) qs

type pg_state = {
  mutable write_quorum : Quorum_set.t;
  scls : (int, Lsn.t) Hashtbl.t; (* member -> highest SCL acked *)
  chain : Lsn.t Queue.t; (* submitted, not yet durable, in order *)
  mutable pgcl : Lsn.t;
}

type t = {
  pgs : (int, pg_state) Hashtbl.t;
  volume_chain : (Lsn.t * int * bool) Queue.t; (* (lsn, pg, mtr_end) *)
  mutable vcl : Lsn.t;
  mutable vdl : Lsn.t;
  mutable durable : (int * int) list; (* (pg, lsn), newest first *)
}

let create () =
  {
    pgs = Hashtbl.create 8;
    volume_chain = Queue.create ();
    vcl = Lsn.none;
    vdl = Lsn.none;
    durable = [];
  }

let covering st lsn =
  Hashtbl.fold
    (fun seg scl acc ->
      if Lsn.(scl >= lsn) then Member_id.Set.add (Member_id.of_int seg) acc
      else acc)
    st.scls Member_id.Set.empty

let advance t pg st =
  while
    (not (Queue.is_empty st.chain))
    && satisfied st.write_quorum (covering st (Queue.peek st.chain))
  do
    let lsn = Queue.pop st.chain in
    st.pgcl <- lsn;
    t.durable <- (pg, Lsn.to_int lsn) :: t.durable
  done;
  while
    (not (Queue.is_empty t.volume_chain))
    &&
    let lsn, pg, _ = Queue.peek t.volume_chain in
    Lsn.(lsn <= (Hashtbl.find t.pgs pg).pgcl)
  do
    let lsn, _, mtr_end = Queue.pop t.volume_chain in
    t.vcl <- lsn;
    if mtr_end then t.vdl <- lsn
  done

let set_write_quorum t pg q =
  match Hashtbl.find_opt t.pgs pg with
  | Some st ->
    st.write_quorum <- q;
    advance t pg st
  | None ->
    Hashtbl.replace t.pgs pg
      {
        write_quorum = q;
        scls = Hashtbl.create 8;
        chain = Queue.create ();
        pgcl = Lsn.none;
      }

let note_submitted t ~pg ~lsn ~mtr_end =
  Queue.push lsn (Hashtbl.find t.pgs pg).chain;
  Queue.push (lsn, pg, mtr_end) t.volume_chain

let note_ack t ~pg ~seg ~scl =
  let st = Hashtbl.find t.pgs pg in
  let prev = Option.value (Hashtbl.find_opt st.scls seg) ~default:Lsn.none in
  if Lsn.(scl > prev) then begin
    Hashtbl.replace st.scls seg scl;
    advance t pg st
  end

let pgcl t pg = (Hashtbl.find t.pgs pg).pgcl
let covering_at t ~pg ~lsn = covering (Hashtbl.find t.pgs pg) lsn
let durable t = List.rev t.durable
