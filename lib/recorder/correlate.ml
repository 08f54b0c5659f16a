(* Cross-node correlation: merge per-node rings into one causal timeline.

   Ordering is (sim time, node id, ring position) — deterministic because
   every component is; two events on the same node at the same instant
   keep their recording order. *)

type entry = { at : int; node : int; role : Event.role; event : Event.t }

let entries (s : Rings.snapshot) =
  let tagged =
    List.concat_map
      (fun (n : Rings.node_ring) ->
        List.mapi (fun i (at, ev) -> (at, n.Rings.node, i, n.Rings.role, ev))
          n.Rings.events)
      s.Rings.nodes
  in
  let cmp (a_at, a_node, a_i, _, _) (b_at, b_node, b_i, _, _) =
    match Int.compare a_at b_at with
    | 0 -> (
      match Int.compare a_node b_node with
      | 0 -> Int.compare a_i b_i
      | c -> c)
    | c -> c
  in
  List.sort cmp tagged
  |> List.map (fun (at, node, _, role, event) -> { at; node; role; event })

let filter_snapshot mk (s : Rings.snapshot) =
  {
    Rings.nodes =
      List.map
        (fun (n : Rings.node_ring) ->
          let keep = mk n in
          {
            n with
            Rings.events =
              List.filter (fun (_, ev) -> keep ev) n.Rings.events;
          })
        s.Rings.nodes;
  }

(* Kinds whose LSN range is actual log-record (or truncation) payload, so
   range containment means "this message concerned that LSN". *)
let payload_kind = function
  | Event.Write_batch | Event.Gossip_reply | Event.Hydrate_reply
  | Event.Redo_stream | Event.Truncate ->
    true
  | _ -> false

(* Kinds whose LSN is a durability watermark: an ack at [scl >= lsn]
   covers the record. *)
let watermark_kind = function
  | Event.Write_ack | Event.Scl_reply -> true
  | _ -> false

(* The per-node relevance predicate for one LSN.  Exact payload matches
   are all kept; watermark events (acks, SCL/PGCL/VCL/VDL/PGMRPL advances)
   are kept only the first time they cover the LSN on that node, which is
   the moment the record's state machine actually moved there.  Once the
   node's ring shows the record's allocation, its boxcar flushes and PGCL
   advances must also name the record's group. *)
let lsn_relevant ~lsn () =
  let first flag hit = if (not !flag) && hit then (flag := true; true) else false in
  let ack_send = ref false and ack_recv = ref false in
  let scl = ref false and pgcl = ref false and vcl = ref false in
  let vdl = ref false and floor = ref false in
  let group = ref (-1) in
  let in_group pg = !group < 0 || pg = !group in
  fun (ev : Event.t) ->
    match ev with
    | Lsn_alloc { pg; lsn = l } ->
      if l = lsn then group := pg;
      l = lsn
    | Boxcar_flush { pg; lsn_lo; lsn_hi } ->
      in_group pg && lsn_lo <= lsn && lsn <= lsn_hi
    | Pgcl_advance { pg; pgcl = p } -> in_group pg && first pgcl (p >= lsn)
    | Send { kind; lsn_lo; lsn_hi; _ } when payload_kind kind ->
      lsn_lo >= 0 && lsn_lo <= lsn && lsn <= lsn_hi
    | Receive { kind; lsn_lo; lsn_hi; _ } when payload_kind kind ->
      lsn_lo >= 0 && lsn_lo <= lsn && lsn <= lsn_hi
    | Drop { kind; lsn_lo; lsn_hi; _ } when payload_kind kind ->
      lsn_lo >= 0 && lsn_lo <= lsn && lsn <= lsn_hi
    | Send { kind; lsn_hi; _ } when watermark_kind kind ->
      first ack_send (lsn_hi >= lsn)
    | Receive { kind; lsn_hi; _ } when watermark_kind kind ->
      first ack_recv (lsn_hi >= lsn)
    | Scl_advance { scl = s; _ } -> first scl (s >= lsn)
    | Vcl_advance { vcl = v } -> first vcl (v >= lsn)
    | Vdl_advance { vdl = v } -> first vdl (v >= lsn)
    | Pgmrpl_advance { floor = f; _ } -> first floor (f >= lsn)
    | Commit_submit { scn; _ } | Commit_ack { scn; _ } -> scn = lsn
    | _ -> false

let timeline_for_lsn s ~lsn =
  entries (filter_snapshot (fun _ -> lsn_relevant ~lsn ()) s)

let commit_scn_of_txn (s : Rings.snapshot) ~txn =
  List.find_map
    (fun (n : Rings.node_ring) ->
      List.find_map
        (fun (_, ev) ->
          match ev with
          | Event.Commit_submit { txn = t; scn } when t = txn -> Some scn
          | Event.Commit_ack { txn = t; scn } when t = txn -> Some scn
          | _ -> None)
        n.Rings.events)
    s.Rings.nodes

let timeline_for_txn s ~txn =
  match commit_scn_of_txn s ~txn with
  | Some scn when scn >= 0 -> timeline_for_lsn s ~lsn:scn
  | _ ->
    entries
      (filter_snapshot
         (fun _ ev ->
           match (ev : Event.t) with
           | Commit_submit { txn = t; _ } | Commit_ack { txn = t; _ } ->
             t = txn
           | _ -> false)
         s)

let event_pg = function
  | Event.Send { pg; _ }
  | Event.Receive { pg; _ }
  | Event.Drop { pg; _ }
  | Event.Scl_advance { pg; _ }
  | Event.Gossip_fill { pg; _ }
  | Event.Hydrate_import { pg; _ }
  | Event.Lsn_alloc { pg; _ }
  | Event.Boxcar_flush { pg; _ }
  | Event.Pgcl_advance { pg; _ }
  | Event.Pgmrpl_advance { pg; _ }
  | Event.Epoch_change { pg; _ }
  | Event.Membership_change { pg; _ }
  | Event.Health_edge { pg; _ } ->
    pg
  | _ -> -1

let timeline_for_pg s ~pg =
  entries (filter_snapshot (fun _ ev -> event_pg ev = pg) s)

(* --------------------------------------------------------------- render -- *)

let render_entry e =
  let ms = e.at / 1_000_000 and us = e.at mod 1_000_000 / 1_000 in
  Printf.sprintf "t=%6d.%03dms  n%-3d %-8s %s" ms us e.node
    (Event.role_name e.role) (Event.describe e.event)

let render_text es = String.concat "\n" (List.map render_entry es)

let entry_to_json e =
  let open Obs.Json in
  let fields =
    match Event.to_json e.event with
    | Obj fs -> fs
    | j -> [ ("event", j) ]
  in
  Obj
    (("at", Int e.at)
    :: ("node", Int e.node)
    :: ("role", String (Event.role_name e.role))
    :: fields)

let to_json es = Obs.Json.List (List.map entry_to_json es)
