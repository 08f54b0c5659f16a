(* Reference model for [Obs.Commit_path]: the per-LSN table the ledger
   replaced, plus the writer's per-record queues it folded in (the records
   awaiting their first ack and their PGCL per PG, awaiting VDL, and
   awaiting VCL with their allocation time).  Simple and obviously faithful to the
   stage rules; kept only as the oracle of the ledger's model test. *)

module Histogram = Simcore.Histogram

let n = Obs.Commit_path.n_stages

type t = {
  registry : Obs.Registry.t;
  capacity : int;
  (* lsn -> (owning pg, per-stage time); -1 = unknown / unset *)
  timelines : (int, int ref * int array) Hashtbl.t;
  order : int Queue.t; (* allocation order, for eviction *)
  hists : Histogram.t option array; (* (from * n + to) -> histogram *)
  unacked : (int, int Queue.t) Hashtbl.t; (* pg -> LSNs without an ack *)
  below_pgcl : (int, int Queue.t) Hashtbl.t; (* pg -> LSNs above PGCL *)
  vdl_pending : int Queue.t;
  inflight : (int * int) Queue.t; (* (lsn, allocated at) awaiting VCL *)
}

let create ~capacity ~registry =
  {
    registry;
    capacity;
    timelines = Hashtbl.create 64;
    order = Queue.create ();
    hists = Array.make (n * n) None;
    unacked = Hashtbl.create 8;
    below_pgcl = Hashtbl.create 8;
    vdl_pending = Queue.create ();
    inflight = Queue.create ();
  }

let hist_for t ~from ~upto =
  let idx = (from * n) + upto in
  match t.hists.(idx) with
  | Some h -> h
  | None ->
    let label =
      Obs.Commit_path.(stage_label (stage_of_index from) (stage_of_index upto))
    in
    let h =
      Obs.Registry.histogram t.registry ~labels:[ ("stage", label) ]
        "commit_stage_ns"
    in
    t.hists.(idx) <- Some h;
    h

let record_pair t ~from ~upto span = Histogram.record (hist_for t ~from ~upto) span

(* vcl_advanced→commit_acked. *)
let marquee = [ (4, 6) ]

let evict_beyond_capacity t =
  while Hashtbl.length t.timelines > t.capacity do
    match Queue.take_opt t.order with
    | None -> Hashtbl.reset t.timelines
    | Some lsn -> Hashtbl.remove t.timelines lsn
  done

let mark t ~at ~lsn ?(pg = -1) idx =
  match Hashtbl.find_opt t.timelines lsn with
  | None ->
    if idx = 0 then begin
      let tl = Array.make n (-1) in
      tl.(0) <- at;
      Hashtbl.replace t.timelines lsn (ref pg, tl);
      Queue.push lsn t.order;
      evict_beyond_capacity t
    end
  | Some (pg_ref, tl) ->
    if pg >= 0 && !pg_ref < 0 then pg_ref := pg;
    if tl.(idx) < 0 then begin
      tl.(idx) <- at;
      let rec prev i = if i < 0 then -1 else if tl.(i) >= 0 then i else prev (i - 1) in
      let p = prev (idx - 1) in
      if p >= 0 then record_pair t ~from:p ~upto:idx (at - tl.(p));
      List.iter
        (fun (a, b) ->
          if b = idx && a <> p && tl.(a) >= 0 then
            record_pair t ~from:a ~upto:b (at - tl.(a)))
        marquee
    end

(* Pop [q]'s head while [covered]; [f] on each popped element. *)
let drain q covered f =
  let continue = ref true in
  while !continue do
    match Queue.peek_opt q with
    | Some x when covered x ->
      ignore (Queue.pop q);
      f x
    | Some _ | None -> continue := false
  done

let queue_of tbl pg =
  match Hashtbl.find_opt tbl pg with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add tbl pg q;
    q

let allocated t ~at ~lsn ~pg =
  mark t ~at ~lsn ~pg 0;
  Queue.push lsn (queue_of t.unacked pg);
  Queue.push lsn (queue_of t.below_pgcl pg);
  Queue.push lsn t.vdl_pending;
  Queue.push (lsn, at) t.inflight

let flushed t ~at ~pg ~lsn_lo ~lsn_hi =
  for lsn = lsn_lo to lsn_hi do
    match Hashtbl.find_opt t.timelines lsn with
    | Some (pg', _) when !pg' = pg -> mark t ~at ~lsn 1
    | Some _ | None -> ()
  done

let drain_pg tbl ~at ~pg ~upto t idx =
  match Hashtbl.find_opt tbl pg with
  | None -> ()
  | Some q -> drain q (fun lsn -> lsn <= upto) (fun lsn -> mark t ~at ~lsn ~pg idx)

let acked t ~at ~pg ~scl = drain_pg t.unacked ~at ~pg ~upto:scl t 2
let pgcl_advanced t ~at ~pg ~pgcl = drain_pg t.below_pgcl ~at ~pg ~upto:pgcl t 3

(* The durable sample is taken only for a record whose timeline is still
   live: an evicted record's allocation time is gone with it. *)
let vcl_advanced t ~at ~vcl ~durable =
  drain t.inflight
    (fun (lsn, _) -> lsn <= vcl)
    (fun (lsn, allocated_at) ->
      if Hashtbl.mem t.timelines lsn then
        Histogram.record_span durable allocated_at at;
      mark t ~at ~lsn 4)

let vdl_advanced t ~at ~vdl =
  drain t.vdl_pending (fun lsn -> lsn <= vdl) (fun lsn -> mark t ~at ~lsn 5)

let commit_acked t ~at ~lsn = mark t ~at ~lsn 6

let clear t =
  Hashtbl.reset t.timelines;
  Queue.clear t.order;
  Hashtbl.reset t.unacked;
  Hashtbl.reset t.below_pgcl;
  Queue.clear t.vdl_pending;
  Queue.clear t.inflight

let timelines t =
  Obs.Stable.sorted_bindings ~cmp:Int.compare t.timelines
  |> List.map (fun (lsn, (pg, tl)) -> (lsn, !pg, Array.copy tl))
