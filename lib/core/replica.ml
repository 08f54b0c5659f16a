open Simcore
open Wal
open Quorum
module Protocol = Storage.Protocol

type config = {
  n_blocks : int; (* must match the writer's key->block hashing *)
  cache_capacity : int;
  read_strategy : Reader.strategy;
  feedback_interval : Time_ns.t;
}

let default_config =
  {
    n_blocks = Database.default_config.Database.n_blocks;
    cache_capacity = 128;
    read_strategy =
      Reader.Direct_tracked
        { hedge_after = Some (Time_ns.ms 2); explore_probability = 0.02 };
    feedback_interval = Time_ns.ms 100;
  }

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
  config : config;
  cache : Buffer_cache.t;
  txns : Txn_table.t;
  reader : Reader.t;
  metrics : metrics;
  active_views : (int, int) Hashtbl.t;
  rings : Recorder.Rings.t option; (* handed to the writer [promote] makes *)
  mutable vdl_seen : Lsn.t;
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

let create ~sim ~rng ~net ~addr ~volume ~writer ~config ?obs ?rings () =
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
    volume;
    writer;
    config;
    cache = Buffer_cache.create ~capacity:config.cache_capacity;
    txns = Txn_table.create ();
    reader =
      Reader.create ~sim ~rng:(Rng.split rng) ~net ~my_addr:addr
        ~strategy:config.read_strategy ?obs
        ~obs_labels:[ ("node", string_of_int (Simnet.Addr.to_int addr)) ]
        ();
    metrics;
    active_views = Hashtbl.create 16;
    rings;
    vdl_seen = Lsn.none;
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

let track_view t as_of =
  let k = Lsn.to_int as_of in
  let n = match Hashtbl.find_opt t.active_views k with Some n -> n | None -> 0 in
  Hashtbl.replace t.active_views k (n + 1)

let untrack_view t as_of =
  let k = Lsn.to_int as_of in
  match Hashtbl.find_opt t.active_views k with
  | Some 1 | None -> Hashtbl.remove t.active_views k
  | Some n -> Hashtbl.replace t.active_views k (n - 1)

let read_floor t =
  Hashtbl.fold (fun k _ acc -> Lsn.min acc (Lsn.of_int k)) t.active_views t.vdl_seen

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

let handle_stream t ~sent_at ~chunks ~vdl ~commits ~volume_epoch =
  if Epoch.is_stale volume_epoch ~current:t.volume_epoch_seen then
    t.metrics.stale_streams_dropped <- t.metrics.stale_streams_dropped + 1
  else begin
    if Epoch.compare volume_epoch t.volume_epoch_seen > 0 then
      t.volume_epoch_seen <- volume_epoch;
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
    | Protocol.Redo_stream { chunks; vdl; commits; volume_epoch } ->
      handle_stream t ~sent_at:env.sent_at ~chunks ~vdl ~commits ~volume_epoch
    | Protocol.Read_reply { req; seg; result } ->
      Reader.on_reply t.reader ~req ~seg ~from:env.src ~result
    | _ -> ()

let full_candidates (g : Volume.pg) =
  List.filter
    (fun (seg, _) ->
      match Membership.find_member g.Volume.membership seg with
      | Some m -> m.Membership.kind = Membership.Full
      | None -> false)
    (Volume.roster g)

let get t ~key callback =
  if not t.running then callback (Error "replica is not running")
  else begin
    t.metrics.gets <- t.metrics.gets + 1;
    let block = Block_id.of_int (Bits.fnv1a_string key mod t.config.n_blocks) in
    let as_of = t.vdl_seen in
    let view = Read_view.make ~as_of () in
    let commit_scn txn = Txn_table.commit_scn t.txns txn in
    let from_storage () =
      t.metrics.storage_reads <- t.metrics.storage_reads + 1;
      let g = Volume.pg_of_block t.volume block in
      track_view t as_of;
      Reader.read t.reader ~pg:g.Volume.id ~candidates:(full_candidates g)
        ~block ~as_of ~epochs:(Volume.epochs_for t.volume g)
        ~callback:(fun result ->
          untrack_view t as_of;
          match result with
          | Error e -> callback (Error e)
          | Ok img ->
            Buffer_cache.install t.cache img ~vdl:t.vdl_seen;
            let chain =
              match
                List.find_opt (fun (k, _) -> String.equal k key) img.image_entries
              with
              | Some (_, versions) -> versions
              | None -> []
            in
            callback (Ok (Read_view.value view ~commit_scn chain)))
    in
    match Buffer_cache.read t.cache block ~key with
    | Buffer_cache.Hit chain ->
      t.metrics.cache_hit_reads <- t.metrics.cache_hit_reads + 1;
      callback (Ok (Read_view.value view ~commit_scn chain))
    | Buffer_cache.Partial chain -> (
      match Read_view.pick view ~commit_scn chain with
      | Some v ->
        t.metrics.cache_hit_reads <- t.metrics.cache_hit_reads + 1;
        callback (Ok v.Storage.Block_store.value)
      | None -> from_storage ())
    | Buffer_cache.Miss -> from_storage ()
  end

let start t =
  t.running <- true;
  t.generation <- t.generation + 1;
  let gen = t.generation in
  Simnet.Net.register t.net t.addr (handle_message t);
  Simnet.Net.set_up t.net t.addr;
  Sim.every t.sim ~interval:t.config.feedback_interval (fun () ->
      if t.running && t.generation = gen then begin
        Simnet.Net.send t.net ~src:t.addr ~dst:t.writer ~bytes:48
          (Protocol.Replica_feedback { read_floor = read_floor t });
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
