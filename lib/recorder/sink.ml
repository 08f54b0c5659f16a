module Cp = Obs.Commit_path

type t = {
  sim : Simcore.Sim.t;
  node : int;
  rings : Rings.t option;
  ledger : Cp.t option;
}

let create ~sim ~node ?rings ?ledger () = { sim; node; rings; ledger }
let recording t = Option.is_some t.rings

let note t ev =
  match t.rings with
  | Some r -> Rings.note r ~node:t.node ~at:(Simcore.Sim.now t.sim) ev
  | None -> ()

(* Each moment marks the ledger, then notes its event.  The event is built
   inside the [Some] branch, so a bare cluster allocates none. *)

let lsn_allocated t ~pg ~lsn =
  let at = Simcore.Sim.now t.sim in
  (match t.ledger with Some l -> Cp.allocated l ~at ~lsn ~pg | None -> ());
  match t.rings with
  | Some r -> Rings.note r ~node:t.node ~at (Event.Lsn_alloc { pg; lsn })
  | None -> ()

let boxcar_flushed t ~pg ~lsn_lo ~lsn_hi =
  let at = Simcore.Sim.now t.sim in
  (match t.ledger with
  | Some l -> Cp.flushed l ~at ~pg ~lsn_lo ~lsn_hi
  | None -> ());
  match t.rings with
  | Some r ->
    Rings.note r ~node:t.node ~at (Event.Boxcar_flush { pg; lsn_lo; lsn_hi })
  | None -> ()

let storage_acked t ~pg ~scl =
  match t.ledger with
  | Some l -> Cp.acked l ~at:(Simcore.Sim.now t.sim) ~pg ~scl
  | None -> ()

let pgcl_advanced t ~pg ~pgcl =
  let at = Simcore.Sim.now t.sim in
  (match t.ledger with Some l -> Cp.pgcl_advanced l ~at ~pg ~pgcl | None -> ());
  match t.rings with
  | Some r -> Rings.note r ~node:t.node ~at (Event.Pgcl_advance { pg; pgcl })
  | None -> ()

let vcl_advanced t ~vcl ~durable =
  let at = Simcore.Sim.now t.sim in
  (match t.ledger with Some l -> Cp.vcl_advanced l ~at ~vcl ~durable | None -> ());
  match t.rings with
  | Some r -> Rings.note r ~node:t.node ~at (Event.Vcl_advance { vcl })
  | None -> ()

let vdl_advanced t ~vdl =
  let at = Simcore.Sim.now t.sim in
  (match t.ledger with Some l -> Cp.vdl_advanced l ~at ~vdl | None -> ());
  match t.rings with
  | Some r -> Rings.note r ~node:t.node ~at (Event.Vdl_advance { vdl })
  | None -> ()

let commit_submitted t ~txn ~scn =
  match t.rings with
  | Some r ->
    Rings.note r ~node:t.node ~at:(Simcore.Sim.now t.sim)
      (Event.Commit_submit { txn; scn })
  | None -> ()

let commit_acked t ~txn ~scn =
  let at = Simcore.Sim.now t.sim in
  (match t.ledger with Some l -> Cp.commit_acked l ~at ~lsn:scn | None -> ());
  match t.rings with
  | Some r -> Rings.note r ~node:t.node ~at (Event.Commit_ack { txn; scn })
  | None -> ()

let crashed t =
  (match t.ledger with Some l -> Cp.clear l | None -> ());
  note t Event.Crashed

(* ---------------------------------------------------------------- replay -- *)

let valid_pg pg = pg >= 0 && pg < 65536

let replay ledger events =
  let durable = Simcore.Histogram.create () in
  let open_ = ref true in
  List.iter
    (fun (at, (ev : Event.t)) ->
      match ev with
      | Lsn_alloc { pg; lsn } when valid_pg pg -> Cp.allocated ledger ~at ~lsn ~pg
      | Boxcar_flush { pg; lsn_lo; lsn_hi } ->
        Cp.flushed ledger ~at ~pg ~lsn_lo ~lsn_hi
      | Receive { kind = Write_ack; pg; lsn_hi = scl; _ } when !open_ ->
        Cp.acked ledger ~at ~pg ~scl
      | Pgcl_advance { pg; pgcl } -> Cp.pgcl_advanced ledger ~at ~pg ~pgcl
      | Vcl_advance { vcl } -> Cp.vcl_advanced ledger ~at ~vcl ~durable
      | Vdl_advance { vdl } -> Cp.vdl_advanced ledger ~at ~vdl
      | Commit_ack { scn; _ } -> Cp.commit_acked ledger ~at ~lsn:scn
      | Crashed ->
        Cp.clear ledger;
        open_ := false
      | Fenced _ | Recovery_start _ -> open_ := false
      | Started -> open_ := true
      | _ -> ())
    events
