open Simcore
open Wal
open Quorum
module Protocol = Storage.Protocol
module Pg_id = Storage.Pg_id
module Sink = Recorder.Sink

type config = {
  n_blocks : int;
  cache_capacity : int;
  boxcar : Boxcar.policy;
  read_strategy : Reader.strategy;
  replication_interval : Time_ns.t;
  pgmrpl_interval : Time_ns.t;
}

let default_config =
  {
    n_blocks = 256;
    cache_capacity = 128;
    boxcar = Boxcar.First_record (Time_ns.us 20);
    read_strategy =
      Reader.Direct_tracked
        { hedge_after = Some (Time_ns.ms 2); explore_probability = 0.02 };
    replication_interval = Time_ns.ms 5;
    pgmrpl_interval = Time_ns.ms 200;
  }

type metrics = {
  commit_latency : Histogram.t;
  record_durable_latency : Histogram.t;
  mutable txns_started : int;
  mutable txns_committed : int;
  mutable txns_aborted : int;
  mutable commit_acks : int;
  mutable puts : int;
  mutable deletes : int;
  mutable gets : int;
  mutable cache_hit_reads : int;
  mutable storage_reads : int;
  mutable records_written : int;
  mutable write_rejects : int;
  mutable fenced : int;
}

let fresh_metrics () =
  {
    commit_latency = Histogram.create ();
    record_durable_latency = Histogram.create ();
    txns_started = 0;
    txns_committed = 0;
    txns_aborted = 0;
    commit_acks = 0;
    puts = 0;
    deletes = 0;
    gets = 0;
    cache_hit_reads = 0;
    storage_reads = 0;
    records_written = 0;
    write_rejects = 0;
    fenced = 0;
  }

type t = {
  sim : Sim.t;
  rng : Rng.t;
  net : Protocol.t Simnet.Net.t;
  addr : Simnet.Addr.t;
  volume : Volume.t;
  config : config;
  metrics : metrics;
  obs : Obs.Ctx.t;
  sink : Sink.t; (* every writer moment: ledger + rings *)
  mutable consistency : Consistency.t;
  mutable cache : Buffer_cache.t;
  mutable txns : Txn_table.t;
  mutable commit_queue : Commit_queue.t;
  mutable reader : Reader.t;
  boxcars : Boxcar.t Pg_id.Tbl.t; (* one per protection group *)
  txn_last_block : Block_id.t Txn_id.Tbl.t;
  mutable mtr_counter : int;
  stream : Replication_stream.t;
  (* The epoch this instance presents on requests.  Deliberately a cached
     copy of the volume metadata: a fenced-out instance keeps its stale
     value and gets rejected, even though the metadata object is shared
     in-process (§2.4). *)
  mutable my_volume_epoch : Epoch.t;
  mutable open_ : bool;
  mutable generation : int;
  mutable recovering : Recovery.t option;
}

let sim t = t.sim
let addr t = t.addr
let obs t = t.obs

let volume t = t.volume
let config t = t.config
let consistency t = t.consistency
let reader t = t.reader
let metrics t = t.metrics
let cache t = t.cache
let txn_table t = t.txns
let is_open t = t.open_
let vcl t = Consistency.vcl t.consistency
let vdl t = Consistency.vdl t.consistency
let commit_queue_depth t = Commit_queue.pending t.commit_queue
let open_writers t = Txn_id.Tbl.length t.txn_last_block

let mean_batch_size t =
  let add _ b (n, r) = (n + Boxcar.batches_flushed b, r + Boxcar.records_flushed b) in
  let batches, records = Pg_id.Tbl.fold add t.boxcars (0, 0) in
  if batches = 0 then 0. else float_of_int records /. float_of_int batches

let block_of_key config key =
  Block_id.of_int (Bits.fnv1a_string key mod config.n_blocks)

let send t ~dst msg =
  Simnet.Net.send t.net ~src:t.addr ~dst ~bytes:(Protocol.bytes msg) msg

(* Requests carry this instance's cached volume epoch, not the live shared
   metadata value — see [my_volume_epoch]. *)
let epochs_for t (g : Volume.pg) =
  {
    Protocol.volume = t.my_volume_epoch;
    membership = Membership.epoch g.Volume.membership;
  }

(* ---- consistency points ---- *)

let fresh_consistency t =
  let sink = t.sink in
  let c =
    Consistency.create
      ~on_pgcl:(fun pg pgcl ->
        Sink.pgcl_advanced sink ~pg:(Pg_id.to_int pg) ~pgcl:(Lsn.to_int pgcl))
      ~on_volume:(fun ~vcl ~vdl ->
        (* Marked and noted before the commit queue drains, in the stage
           enum's order, so a commit ack always follows the VCL and VDL
           advances that released it, in the ledger and on the ring.  Both
           points are already set: a read issued from an ack anchors at or
           above its commit. *)
        Sink.vcl_advanced sink ~vcl:(Lsn.to_int vcl)
          ~durable:t.metrics.record_durable_latency;
        (match vdl with
        | Some vdl ->
          Sink.vdl_advanced sink ~vdl:(Lsn.to_int vdl);
          (* Newly durable redo may unpin dirty blocks: apply cache pressure. *)
          Buffer_cache.evict_pressure t.cache ~vdl
        | None -> ());
        ignore (Commit_queue.drain t.commit_queue ~vcl : int))
      ()
  in
  List.iter
    (fun (g : Volume.pg) ->
      Consistency.register_pg c g.Volume.id
        ~write_quorum:(Volume.rule g).Quorum_set.Rule.write)
    (Volume.pgs t.volume);
  t.consistency <- c

(* ---- write path ---- *)

(* One boxcar per group (§2.2): a record enters it once, and the flush sends
   the batch to the group's roster at that instant.  A timer armed before a
   crash must not ship its annulled records once the instance recovers. *)
let boxcar_for t (g : Volume.pg) =
  match Pg_id.Tbl.find_opt t.boxcars g.Volume.id with
  | Some b -> b
  | None ->
    let gen = t.generation in
    let b =
      Boxcar.create ~sim:t.sim ~policy:t.config.boxcar ~flush:(fun records ->
          if t.open_ && t.generation = gen then begin
            let pg = g.Volume.id and bytes = Protocol.write_batch_bytes records in
            (match Log_record.lsn_range records with
            | Some (lo, hi) ->
              Sink.boxcar_flushed t.sink ~pg:(Pg_id.to_int pg)
                ~lsn_lo:(Lsn.to_int lo) ~lsn_hi:(Lsn.to_int hi)
            | None -> ());
            let pgcl = Consistency.pgcl t.consistency pg and epochs = epochs_for t g in
            List.iter
              (fun (seg, dst) ->
                Simnet.Net.send t.net ~src:t.addr ~dst ~bytes
                  (Protocol.Write_batch { pg; seg; records; pgcl; epochs }))
              (Volume.roster g)
          end)
    in
    Pg_id.Tbl.add t.boxcars g.Volume.id b;
    b

let submit_record t (record : Log_record.t) (g : Volume.pg) =
  Consistency.note_submitted t.consistency ~pg:g.Volume.id ~lsn:record.lsn
    ~mtr_end:record.mtr_end;
  Sink.lsn_allocated t.sink ~pg:(Pg_id.to_int g.Volume.id)
    ~lsn:(Lsn.to_int record.lsn);
  Buffer_cache.apply t.cache record ~vdl:(vdl t);
  Replication_stream.submit t.stream record;
  t.metrics.records_written <- t.metrics.records_written + 1;
  (* The flush fans out to every member of the group; the quorum set
     decides when the record counts as durable. *)
  Boxcar.add (boxcar_for t g) record

let write_op t ~txn ~mtr_id ~mtr_end ~block ~op =
  let record, g = Volume.make_record t.volume ~block ~txn ~mtr_id ~mtr_end ~op in
  submit_record t record g;
  record

let next_mtr t =
  t.mtr_counter <- t.mtr_counter + 1;
  t.mtr_counter

let require_open t = if not t.open_ then failwith "database instance is not open"

let begin_txn t =
  require_open t;
  t.metrics.txns_started <- t.metrics.txns_started + 1;
  Txn_table.begin_txn t.txns

let put t ~txn ~key ~value =
  require_open t;
  t.metrics.puts <- t.metrics.puts + 1;
  let block = block_of_key t.config key in
  let record =
    write_op t ~txn ~mtr_id:(next_mtr t) ~mtr_end:true ~block
      ~op:(Log_record.Put { key; value })
  in
  Txn_id.Tbl.replace t.txn_last_block txn record.block

let delete t ~txn ~key =
  require_open t;
  t.metrics.deletes <- t.metrics.deletes + 1;
  let block = block_of_key t.config key in
  let record =
    write_op t ~txn ~mtr_id:(next_mtr t) ~mtr_end:true ~block
      ~op:(Log_record.Delete { key })
  in
  Txn_id.Tbl.replace t.txn_last_block txn record.block

let put_multi t ~txn kvs =
  require_open t;
  match kvs with
  | [] -> ()
  | kvs ->
    let mtr_id = next_mtr t in
    let n = List.length kvs in
    List.iteri
      (fun i (key, value) ->
        t.metrics.puts <- t.metrics.puts + 1;
        let block = block_of_key t.config key in
        let record =
          write_op t ~txn ~mtr_id ~mtr_end:(i = n - 1) ~block
            ~op:(Log_record.Put { key; value })
        in
        Txn_id.Tbl.replace t.txn_last_block txn record.block)
      kvs

(* ---- read path ---- *)

(* A segment holds everything needed for a read at [as_of] once its SCL
   reaches the last group record at or below [as_of], which is bounded by
   min(as_of, PGCL) — see Segment.read_block.  A read that needs nothing
   durable (fresh volume) is served by any full segment. *)
let covered_candidates t as_of (g : Volume.pg) =
  let needed = Lsn.min as_of (Consistency.pgcl t.consistency g.Volume.id) in
  let covers = Consistency.covers t.consistency ~pg:g.Volume.id ~lsn:needed in
  List.filter
    (fun (seg, _) -> Lsn.is_none needed || covers seg)
    (Volume.full_roster g)

let get t ?txn ~key callback =
  require_open t;
  let m = t.metrics in
  m.gets <- m.gets + 1;
  Reader.get t.reader ~cache:t.cache ~volume:t.volume
    ~read_point:(fun () -> vdl t)
    ?owner:txn
    ~txns:t.txns
    ~candidates:(covered_candidates t) ~epochs:(epochs_for t)
    ~on_hit:(fun () -> m.cache_hit_reads <- m.cache_hit_reads + 1)
    ~on_fetch:(fun () -> m.storage_reads <- m.storage_reads + 1)
    ~block:(block_of_key t.config key) ~key callback

(* ---- commit / abort (§2.3) ---- *)

(* The last block a transaction wrote carries its commit or abort record;
   [commit] and [abort] consume the entry, so the map only holds open
   writers. *)
let take_last_block t txn =
  let block = Txn_id.Tbl.find_opt t.txn_last_block txn in
  Txn_id.Tbl.remove t.txn_last_block txn;
  block

let commit t ~txn callback =
  require_open t;
  match take_last_block t txn with
  | None ->
    (* Read-only: nothing to make durable, and no version for a reader to
       ask about, so nothing to remember. *)
    Txn_table.forget t.txns txn;
    t.metrics.txns_committed <- t.metrics.txns_committed + 1;
    t.metrics.commit_acks <- t.metrics.commit_acks + 1;
    callback (Ok ())
  | Some block ->
    let record =
      write_op t ~txn ~mtr_id:(next_mtr t) ~mtr_end:true ~block
        ~op:Log_record.Commit
    in
    let scn = record.lsn in
    Txn_table.mark_committed t.txns txn ~scn;
    t.metrics.txns_committed <- t.metrics.txns_committed + 1;
    Sink.commit_submitted t.sink ~txn:(Txn_id.to_int txn) ~scn:(Lsn.to_int scn);
    let started = Sim.now t.sim in
    Commit_queue.enqueue t.commit_queue ~txn ~scn ~on_ack:(fun () ->
        t.metrics.commit_acks <- t.metrics.commit_acks + 1;
        Histogram.record_span t.metrics.commit_latency started (Sim.now t.sim);
        Sink.commit_acked t.sink ~txn:(Txn_id.to_int txn)
          ~scn:(Lsn.to_int scn);
        callback (Ok ()))

let abort t ~txn =
  require_open t;
  t.metrics.txns_aborted <- t.metrics.txns_aborted + 1;
  (match take_last_block t txn with
  | Some block ->
    ignore
      (write_op t ~txn ~mtr_id:(next_mtr t) ~mtr_end:true ~block
         ~op:Log_record.Abort
        : Log_record.t)
  | None -> ());
  Txn_table.mark_aborted t.txns txn

(* ---- replication stream (§3.2-3.4) ---- *)

let attach_replica t a =
  Replication_stream.attach t.stream a ~from:(Volume.tail t.volume)

let detach_replica t a = Replication_stream.detach t.stream a
let replicas t = Replication_stream.replicas t.stream
let replication_stream t = t.stream
let stream_backlog t = Replication_stream.backlog t.stream

let replication_tick t =
  Replication_stream.tick t.stream ~vdl:(vdl t) ~volume_epoch:t.my_volume_epoch
    ~committed:(Txn_table.committed_upto t.txns) ~send:(fun dst msg -> send t ~dst msg)

let pgmrpl_tick t =
  let floor =
    Replication_stream.floor t.stream ~default:(Reader.floor t.reader ~default:(vdl t))
  in
  if not (Lsn.is_none floor) then
    List.iter
      (fun (g : Volume.pg) ->
        List.iter
          (fun (seg, dst) ->
            send t ~dst
              (Protocol.Pgmrpl_update
                 {
                   pg = g.Volume.id;
                   seg;
                   floor;
                   pgcl = Consistency.pgcl t.consistency g.Volume.id;
                 }))
          (Volume.roster g))
      (Volume.pgs t.volume)

(* ---- membership (§4.1) ---- *)

let broadcast_membership t pg_id =
  let g = Volume.find_pg t.volume pg_id in
  let peers = Volume.roster g in
  List.iter
    (fun (_, dst) ->
      send t ~dst
        (Protocol.Membership_update
           { pg = pg_id; epoch = Membership.epoch g.Volume.membership; peers }))
    peers

let after_membership_change t pg_id =
  let g = Volume.find_pg t.volume pg_id in
  Consistency.set_write_quorum t.consistency pg_id
    (Volume.rule g).Quorum_set.Rule.write;
  broadcast_membership t pg_id

let note_membership t pg_id phase =
  if Sink.recording t.sink then
    let g = Volume.find_pg t.volume pg_id in
    Sink.note t.sink
      (Recorder.Event.Membership_change
         {
           pg = Pg_id.to_int pg_id;
           epoch = Epoch.to_int (Membership.epoch g.Volume.membership);
           phase;
         })

let begin_segment_replacement t pg_id ~suspect ~replacement ~replacement_addr =
  match
    Volume.begin_membership_change t.volume pg_id ~suspect ~replacement
      ~replacement_addr
  with
  | Error _ as e -> e
  | Ok () ->
    note_membership t pg_id Recorder.Event.Change_begun;
    after_membership_change t pg_id;
    Ok ()

let commit_segment_replacement t pg_id ~suspect =
  match Volume.commit_membership_change t.volume pg_id ~suspect with
  | Error _ as e -> e
  | Ok () ->
    note_membership t pg_id Recorder.Event.Change_committed;
    after_membership_change t pg_id;
    Ok ()

let revert_segment_replacement t pg_id ~suspect =
  match Volume.revert_membership_change t.volume pg_id ~suspect with
  | Error _ as e -> e
  | Ok () ->
    note_membership t pg_id Recorder.Event.Change_reverted;
    after_membership_change t pg_id;
    Ok ()

(* ---- network handler ---- *)

let handle_message t (env : Protocol.t Simnet.Net.envelope) =
  (match t.recovering with
  | Some r when not (Recovery.is_done r) ->
    Recovery.on_message r env.msg ~from:env.src
  | Some _ | None -> ());
  if t.open_ then
    match env.msg with
    | Protocol.Write_ack { pg; seg; scl } ->
      Sink.storage_acked t.sink ~pg:(Pg_id.to_int pg) ~scl:(Lsn.to_int scl);
      Consistency.note_ack t.consistency ~pg ~seg ~scl
    | Protocol.Write_reject { reason; _ } -> (
      t.metrics.write_rejects <- t.metrics.write_rejects + 1;
      match reason with
      | Protocol.Stale_volume_epoch current ->
        (* A newer writer fenced us out: stop serving immediately. *)
        t.metrics.fenced <- t.metrics.fenced + 1;
        t.open_ <- false;
        if Sink.recording t.sink then
          Sink.note t.sink
            (Recorder.Event.Fenced { epoch = Epoch.to_int current })
      | Protocol.Stale_membership_epoch _ | Protocol.Not_a_member -> ())
    | Protocol.Read_reply { req; seg; result } ->
      Reader.on_reply t.reader ~req ~seg ~from:env.src ~result
    | Protocol.Replica_feedback { read_floor; resync } ->
      Replication_stream.note_floor t.stream env.src read_floor;
      if resync then
        Replication_stream.resync t.stream env.src ~from:(Volume.tail t.volume)
    | Protocol.Write_batch _ | Protocol.Read_block _ | Protocol.Gossip_pull _
    | Protocol.Gossip_reply _ | Protocol.Scl_probe _ | Protocol.Scl_reply _
    | Protocol.Truncate _ | Protocol.Truncate_ack _ | Protocol.Epoch_update _
    | Protocol.Epoch_ack _ | Protocol.Membership_update _
    | Protocol.Hydrate_pull _ | Protocol.Hydrate_reply _
    | Protocol.Pgmrpl_update _ | Protocol.Redo_stream _ ->
      ()

(* ---- lifecycle ---- *)

let start_background t =
  let gen = t.generation in
  let every interval tick =
    Sim.every t.sim ~interval (fun () ->
        let live = t.open_ && t.generation = gen in
        if live then tick t;
        live)
  in
  every t.config.replication_interval replication_tick;
  every t.config.pgmrpl_interval pgmrpl_tick

let register_instruments t =
  let reg = Obs.Ctx.registry t.obs in
  let m = t.metrics in
  let c ?labels name f = Obs.Registry.counter_fn reg ?labels name f in
  c "db_txns_started" (fun () -> m.txns_started);
  c "db_txns_committed" (fun () -> m.txns_committed);
  c "db_txns_aborted" (fun () -> m.txns_aborted);
  c "db_commit_acks" (fun () -> m.commit_acks);
  c "db_puts" (fun () -> m.puts);
  c "db_deletes" (fun () -> m.deletes);
  c "db_gets" (fun () -> m.gets);
  c "db_cache_hit_reads" (fun () -> m.cache_hit_reads);
  c "db_storage_reads" (fun () -> m.storage_reads);
  c "db_records_written" (fun () -> m.records_written);
  c "db_write_rejects" (fun () -> m.write_rejects);
  c "db_fenced" (fun () -> m.fenced);
  c "db_vcl" (fun () -> Lsn.to_int (Consistency.vcl t.consistency));
  c "db_vdl" (fun () -> Lsn.to_int (Consistency.vdl t.consistency));
  Obs.Registry.gauge_fn reg "db_mean_batch_size" (fun () -> mean_batch_size t);
  Obs.Registry.histogram_ref reg "db_commit_latency_ns" m.commit_latency;
  Obs.Registry.histogram_ref reg "db_record_durable_latency_ns"
    m.record_durable_latency;
  List.iter
    (fun (g : Volume.pg) ->
      let pg = g.Volume.id in
      c "pg_pgcl"
        ~labels:[ ("pg", string_of_int (Pg_id.to_int pg)) ]
        (fun () -> Lsn.to_int (Consistency.pgcl t.consistency pg)))
    (Volume.pgs t.volume)

let create ~sim ~rng ~net ~addr ~volume ~config ?obs ?rings () =
  let obs = match obs with Some o -> o | None -> Obs.Ctx.create () in
  let t =
    {
      sim;
      rng;
      net;
      addr;
      volume;
      config;
      metrics = fresh_metrics ();
      obs;
      sink =
        Sink.create ~sim ~node:(Simnet.Addr.to_int addr) ?rings
          ~ledger:(Obs.Ctx.commit_path obs) ();
      consistency = Consistency.create ();
      cache = Buffer_cache.create ~capacity:config.cache_capacity;
      txns = Txn_table.create ();
      commit_queue = Commit_queue.create ();
      reader =
        Reader.create ~sim ~rng:(Rng.split rng) ~net ~my_addr:addr
          ~strategy:config.read_strategy ~obs ();
      boxcars = Pg_id.Tbl.create 64;
      txn_last_block = Txn_id.Tbl.create 256;
      mtr_counter = 0;
      stream = Replication_stream.create ();
      my_volume_epoch = Volume.volume_epoch volume;
      open_ = false;
      generation = 0;
      recovering = None;
    }
  in
  fresh_consistency t;
  register_instruments t;
  t

let start t =
  t.my_volume_epoch <- Volume.volume_epoch t.volume;
  t.open_ <- true;
  t.generation <- t.generation + 1;
  Simnet.Net.register t.net t.addr (handle_message t);
  Simnet.Net.set_up t.net t.addr;
  if Sink.recording t.sink then Sink.note t.sink Recorder.Event.Started;
  List.iter (fun pg -> broadcast_membership t pg.Volume.id) (Volume.pgs t.volume);
  start_background t

let crash t =
  Sink.crashed t.sink;
  t.open_ <- false;
  t.generation <- t.generation + 1;
  Simnet.Net.set_down t.net t.addr;
  (* All of this is ephemeral instance state — losing it is safe by
     design; recovery rebuilds it from storage (§2.4). *)
  Buffer_cache.drop_all t.cache;
  ignore (Commit_queue.drop_all t.commit_queue : (Txn_id.t * Lsn.t) list);
  Reader.drop_all t.reader;
  Pg_id.Tbl.reset t.boxcars;
  Replication_stream.drop_backlog t.stream;
  Txn_id.Tbl.reset t.txn_last_block

let rebuild_from_outcome t (o : Recovery.outcome) =
  t.my_volume_epoch <- Volume.volume_epoch t.volume;
  Volume.restore_tails t.volume ~alloc_above:o.truncate_upto
    ~volume_tail:o.vcl ~pg_tails:o.pg_tails ~block_tails:o.block_tails;
  fresh_consistency t;
  Consistency.restore t.consistency ~vcl:o.vcl ~vdl:o.vdl ~pg_points:o.pg_tails;
  List.iter
    (fun (pg, seg, scl) -> Consistency.note_ack t.consistency ~pg ~seg ~scl)
    o.scl_observations;
  t.cache <- Buffer_cache.create ~capacity:t.config.cache_capacity;
  t.txns <- Txn_table.create ();
  Txn_table.note_floor t.txns o.max_txn_seen;
  List.iter (fun (txn, scn) -> Txn_table.register t.txns txn; Txn_table.mark_committed t.txns txn ~scn) o.committed;
  List.iter (fun txn -> Txn_table.register t.txns txn; Txn_table.mark_aborted t.txns txn) o.aborted;
  (* In-flight at crash: undo happens logically — their versions are
     invisible to every read view from now on. *)
  List.iter (fun txn -> Txn_table.register t.txns txn; Txn_table.mark_aborted t.txns txn) o.interrupted;
  t.commit_queue <- Commit_queue.create ();
  (* A fenced instance recovers without a crash: drop its stale boxcars. *)
  Pg_id.Tbl.reset t.boxcars;
  (* Request ids outlive the crash, so a late reply to a dead read cannot
     complete a new one. *)
  t.reader <- Reader.renew t.reader ~rng:(Rng.split t.rng);
  (* What was queued or committed since the last tick is lost with the
     queue: each replica starts again from a hand-off of the recovered
     commits. *)
  Replication_stream.restart t.stream ~from:(Volume.tail t.volume)

let recover t on_ready =
  (* Recovery must never run against a serving instance: the §2.4 walk
     computes VCL from a point-in-time storage poll and then truncates the
     ragged edge above it, so commits acknowledged while the poll is in
     flight would be annulled — acknowledged-write loss.  An open instance
     is fenced (crashed) first, exactly as a new writer's epoch bump boxes
     out the old one. *)
  if t.open_ then crash t;
  t.generation <- t.generation + 1;
  Simnet.Net.register t.net t.addr (handle_message t);
  Simnet.Net.set_up t.net t.addr;
  if Sink.recording t.sink then
    Sink.note t.sink
      (Recorder.Event.Recovery_start
         { epoch = Epoch.to_int (Volume.volume_epoch t.volume) });
  let r =
    Recovery.start ~sim:t.sim ~net:t.net ~my_addr:t.addr ~volume:t.volume
      ~on_done:(fun result ->
        (match result with
        | Ok outcome ->
          rebuild_from_outcome t outcome;
          t.open_ <- true;
          t.generation <- t.generation + 1;
          if Sink.recording t.sink then begin
            Sink.note t.sink
              (Recorder.Event.Recovery_finish
                 {
                   vcl = Lsn.to_int outcome.Recovery.vcl;
                   vdl = Lsn.to_int outcome.Recovery.vdl;
                 });
            Sink.note t.sink Recorder.Event.Started
          end;
          List.iter
            (fun pg -> broadcast_membership t pg.Volume.id)
            (Volume.pgs t.volume);
          start_background t
        | Error _ -> ());
        t.recovering <- None;
        on_ready result)
  in
  t.recovering <- Some r
