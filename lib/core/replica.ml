open Simcore
open Wal
open Quorum
module Protocol = Storage.Protocol

(* A replica's cache and read strategy are the writer defaults; it reports
   its read floor to the writer every 100 ms. *)
let cache_capacity = Database.default_config.Database.cache_capacity
let read_strategy = Database.default_config.Database.read_strategy
let feedback_interval = Time_ns.ms 100

type metrics = {
  mutable chunks_applied : int;
  mutable records_applied : int;
  mutable records_skipped : int;
  mutable commits_seen : int;
  mutable gets : int;
  mutable cache_hit_reads : int;
  mutable storage_reads : int;
  mutable stale_streams_dropped : int;
  stream_lag : Histogram.t;
}

type t = {
  sim : Sim.t;
  net : Protocol.t Simnet.Net.t;
  addr : Simnet.Addr.t;
  volume : Volume.t;
  writer : Simnet.Addr.t;
  writer_config : Database.config; (* for the writer's key->block hashing *)
  cache : Buffer_cache.t;
  txns : Txn_table.t;
  reader : Reader.t;
  metrics : metrics;
  rings : Recorder.Rings.t option; (* handed to the writer [promote] makes *)
  mutable vdl_seen : Lsn.t;
  mutable resyncing : bool; (* a stream message went missing *)
  mutable volume_epoch_seen : Epoch.t;
  mutable running : bool;
  mutable generation : int;
}

let register_instruments ~obs ~addr metrics =
  match obs with
  | None -> ()
  | Some obs ->
    let reg = Obs.Ctx.registry obs in
    let labels = [ ("node", string_of_int (Simnet.Addr.to_int addr)) ] in
    let c name f = Obs.Registry.counter_fn reg ~labels name f in
    c "replica_chunks_applied" (fun () -> metrics.chunks_applied);
    c "replica_records_applied" (fun () -> metrics.records_applied);
    c "replica_records_skipped" (fun () -> metrics.records_skipped);
    c "replica_commits_seen" (fun () -> metrics.commits_seen);
    c "replica_gets" (fun () -> metrics.gets);
    c "replica_cache_hit_reads" (fun () -> metrics.cache_hit_reads);
    c "replica_storage_reads" (fun () -> metrics.storage_reads);
    c "replica_stale_streams_dropped" (fun () -> metrics.stale_streams_dropped);
    Obs.Registry.histogram_ref reg ~labels "replica_stream_lag_ns"
      metrics.stream_lag

let create ~sim ~rng ~net ~addr ~writer ?obs ?rings () =
  let metrics =
    {
      chunks_applied = 0;
      records_applied = 0;
      records_skipped = 0;
      commits_seen = 0;
      gets = 0;
      cache_hit_reads = 0;
      storage_reads = 0;
      stale_streams_dropped = 0;
      stream_lag = Histogram.create ();
    }
  in
  register_instruments ~obs ~addr metrics;
  {
    sim;
    net;
    addr;
    volume = Database.volume writer;
    writer = Database.addr writer;
    writer_config = Database.config writer;
    cache = Buffer_cache.create ~capacity:cache_capacity;
    txns = Txn_table.create ();
    reader =
      Reader.create ~sim ~rng:(Rng.split rng) ~net ~my_addr:addr
        ~strategy:read_strategy ?obs
        ~obs_labels:[ ("node", string_of_int (Simnet.Addr.to_int addr)) ]
        ();
    metrics;
    rings;
    vdl_seen = Lsn.none;
    resyncing = false;
    volume_epoch_seen = Epoch.initial;
    running = false;
    generation = 0;
  }

let addr t = t.addr
let vdl_seen t = t.vdl_seen
let metrics t = t.metrics
let cache t = t.cache
let is_running t = t.running
let committed t txn = Txn_table.commit_scn t.txns txn

let read_floor t = Reader.floor t.reader ~default:t.vdl_seen

(* Apply one MTR chunk atomically: every record lands (on cached blocks) in
   one simulation event, and visibility is anyway gated by vdl_seen, which
   only rests on MTR completions (§3.3). *)
let apply_chunk t (chunk : Protocol.mtr_chunk) =
  List.iter
    (fun (r : Log_record.t) ->
      if Buffer_cache.apply_if_present t.cache r ~vdl:t.vdl_seen then
        t.metrics.records_applied <- t.metrics.records_applied + 1
      else t.metrics.records_skipped <- t.metrics.records_skipped + 1)
    chunk.chunk_records;
  t.metrics.chunks_applied <- t.metrics.chunks_applied + 1

let handle_stream t ~sent_at ~chunks ~vdl ~commits ~volume_epoch ~prev =
  let hand_off = Lsn.is_none prev in
  if Epoch.is_stale volume_epoch ~current:t.volume_epoch_seen then
    t.metrics.stale_streams_dropped <- t.metrics.stale_streams_dropped + 1
  else if not (hand_off || ((not t.resyncing) && Lsn.equal prev t.vdl_seen))
  then
    (* A message went missing: its records never reached the cache and its
       commits never reached the table.  Stay anchored where the stream is
       whole, and ask for a fresh hand-off (feedback's [resync]). *)
    t.resyncing <- true
  else begin
    (* The hand-off that ends a gap: cached blocks may lack the lost
       records, and later ones were read at the old anchor. *)
    if hand_off && t.resyncing then begin
      t.resyncing <- false;
      Buffer_cache.drop_all t.cache
    end;
    (* A new writer generation: the stream may have skipped redo for cached
       blocks (the old writer's last, unshipped records). *)
    if Epoch.compare volume_epoch t.volume_epoch_seen > 0 then begin
      t.volume_epoch_seen <- volume_epoch;
      Buffer_cache.drop_all t.cache
    end;
    List.iter (apply_chunk t) chunks;
    List.iter
      (fun (txn, scn) ->
        t.metrics.commits_seen <- t.metrics.commits_seen + 1;
        Txn_table.register t.txns txn;
        Txn_table.mark_committed t.txns txn ~scn)
      commits;
    if Lsn.(vdl > t.vdl_seen) then t.vdl_seen <- vdl;
    Histogram.record_span t.metrics.stream_lag sent_at (Sim.now t.sim)
  end

let handle_message t (env : Protocol.t Simnet.Net.envelope) =
  if t.running then
    match env.msg with
    | Protocol.Redo_stream { chunks; vdl; commits; volume_epoch; prev } ->
      handle_stream t ~sent_at:env.sent_at ~chunks ~vdl ~commits ~volume_epoch
        ~prev
    | Protocol.Read_reply { req; seg; result } ->
      Reader.on_reply t.reader ~req ~seg ~from:env.src ~result
    | _ -> ()

let get t ~key callback =
  if not t.running then callback (Error "replica is not running")
  else begin
    let m = t.metrics in
    m.gets <- m.gets + 1;
    Reader.get t.reader ~cache:t.cache ~volume:t.volume
      ~read_point:(fun () -> t.vdl_seen)
      ~txns:t.txns
      ~candidates:(fun _ -> Volume.full_roster)
      ~epochs:(Volume.epochs_for t.volume)
      ~on_hit:(fun () -> m.cache_hit_reads <- m.cache_hit_reads + 1)
      ~on_fetch:(fun () -> m.storage_reads <- m.storage_reads + 1)
      ~block:(Database.block_of_key t.writer_config key) ~key callback
  end

let start t =
  t.running <- true;
  t.generation <- t.generation + 1;
  let gen = t.generation in
  Simnet.Net.register t.net t.addr (handle_message t);
  Simnet.Net.set_up t.net t.addr;
  Sim.every t.sim ~interval:feedback_interval (fun () ->
      if t.running && t.generation = gen then begin
        Simnet.Net.send t.net ~src:t.addr ~dst:t.writer ~bytes:48
          (Protocol.Replica_feedback
             { read_floor = read_floor t; resync = t.resyncing });
        true
      end
      else false)

let stop t =
  t.running <- false;
  t.generation <- t.generation + 1

let promote t ~config on_done =
  stop t;
  let db =
    Database.create ~sim:t.sim ~rng:(Rng.create (Simnet.Addr.to_int t.addr + 7919))
      ~net:t.net ~addr:t.addr ~volume:t.volume ~config ?rings:t.rings ()
  in
  Database.recover db (fun result ->
      match result with
      | Ok outcome -> on_done (Ok (db, outcome))
      | Error e -> on_done (Error e))
