(* One repetition of a cluster workload: set-up, the measured window, the
   read-back check, and the metrics.

   The load generator is the benchmark's own: it calls the public client API
   ([Database.begin_txn/put/put_multi/get/commit], [Replica.get]) directly and
   keeps only the last acknowledged value per key, so neither its heap nor
   edits elsewhere in the repository move what it measures. *)

open Simcore
module Cluster = Harness.Cluster
module Database = Aurora_core.Database
module Replica = Aurora_core.Replica
module Reader = Aurora_core.Reader
module Storage_node = Storage.Storage_node
module Segment = Storage.Segment

let value_size = 64
let slices = 4
let drain = Time_ns.sec 2
let warm_up = Time_ns.sec 1

(* Calibration slices (see {!Calib}): the arrival window is cut into
   [window_slices] (a multiple of [slices]), and the drain and the warm-up
   into [rest_slices] each; the preload runs in 100 ms slices. *)
let window_slices = 64
let rest_slices = 8
let preload_batch = 100
let readback_keys = 2000

(* Exact latency samples (sim ns), so percentiles are not bucket edges. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  (* Nearest-rank percentile, in microseconds; 0 when empty. *)
  let percentile_us t p =
    if t.n = 0 then 0.
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort Int.compare s;
      let k = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n)) - 1 in
      float_of_int s.(max 0 k) /. 1e3
    end
end

type gen = {
  spec : Workloads.cluster;
  sim : Sim.t;
  db : Database.t;
  replicas : Replica.t list;
  zipf : Workload.Zipf.t;
  keys : string array;
  (* Oracle: issue number and value of the last acknowledged write per key
     (issue order is LSN order, since puts allocate LSNs synchronously). *)
  last_issue : int array;
  last_value : string array;
  tracer : Tracer.t option;
  commit_lat : Samples.t;
  read_lat : Samples.t;
  mutable issued : int;
  mutable acked : int;
  mutable failed_txns : int;
  mutable reads : int;
  mutable reads_done : int;
  mutable failed_reads : int;
  mutable values : int;
  arrivals : int array;  (** Per quarter of the window. *)
}

let value tag n =
  let s = Printf.sprintf "%c%09d-" tag n in
  s ^ String.make (value_size - String.length s) 'x'

let stamp g = match g.tracer with None -> 0 | Some _ -> Clock.now_ns ()

let lap g api t0 =
  match g.tracer with None -> () | Some tr -> Tracer.api tr api (Clock.now_ns () - t0)

let note_read g ~due result =
  g.reads_done <- g.reads_done + 1;
  Samples.add g.read_lat (Sim.now g.sim - due);
  match result with Ok _ -> () | Error _ -> g.failed_reads <- g.failed_reads + 1

(* One transaction, issued at its due instant: writes first (buffered,
   synchronous), then reads, then commit once every read has returned. *)
let issue_txn g ~rng ~due =
  g.issued <- g.issued + 1;
  let issue = g.issued in
  let t0 = stamp g in
  match Database.begin_txn g.db with
  | exception Failure _ -> g.failed_txns <- g.failed_txns + 1
  | txn ->
    lap g Tracer.Begin_txn t0;
    let s = g.spec in
    let writes =
      List.init s.writes_per_txn (fun _ ->
          let k = Workload.Zipf.sample g.zipf rng in
          g.values <- g.values + 1;
          (k, value 'v' g.values))
    in
    (if s.writes_per_txn > 1 && Rng.bernoulli rng s.mtr_fraction then begin
       let kvs = List.map (fun (k, v) -> (g.keys.(k), v)) writes in
       let t0 = stamp g in
       Database.put_multi g.db ~txn kvs;
       lap g Tracer.Put_multi t0
     end
     else
       List.iter
         (fun (k, v) ->
           let t0 = stamp g in
           Database.put g.db ~txn ~key:g.keys.(k) ~value:v;
           lap g Tracer.Put t0)
         writes);
    let pending = ref (s.ops_per_txn - s.writes_per_txn) in
    let issuing = ref true in
    let commit () =
      let t0 = stamp g in
      Database.commit g.db ~txn (function
        | Ok () ->
          g.acked <- g.acked + 1;
          Samples.add g.commit_lat (Sim.now g.sim - due);
          List.iter
            (fun (k, v) ->
              if issue >= g.last_issue.(k) then begin
                g.last_issue.(k) <- issue;
                g.last_value.(k) <- v
              end)
            writes
        | Error _ -> g.failed_txns <- g.failed_txns + 1);
      lap g Tracer.Commit t0
    in
    for _ = 1 to !pending do
      let k = Workload.Zipf.sample g.zipf rng in
      g.reads <- g.reads + 1;
      let t0 = stamp g in
      Database.get g.db ~txn ~key:g.keys.(k) (fun result ->
          note_read g ~due result;
          decr pending;
          (* A read served from cache returns inside [get]: commit after the
             loop instead, so commit time is never inside a timed get. *)
          if !pending = 0 && not !issuing then commit ());
      lap g Tracer.Get t0
    done;
    issuing := false;
    if !pending = 0 then commit ()

let replica_get g r ~rng ~due =
  let k = Workload.Zipf.sample g.zipf rng in
  g.reads <- g.reads + 1;
  let t0 = stamp g in
  Replica.get r ~key:g.keys.(k) (note_read g ~due);
  lap g Tracer.Replica_get t0

(* Open-loop Poisson arrivals on the sim clock, each scheduling the next.
   An arrival runs exactly at its due instant, so latencies measured from
   [due] include any wait a stall imposes and the generator is never late.
   [rng] is the stream's own: its gaps and the keys [f] draws. *)
let arrivals g ~rng ~rate ~start ~stop f =
  let mean = 1e9 /. rate in
  let rec arrive due () =
    (match g.tracer with Some tr -> Tracer.client_event tr | None -> ());
    f ~rng ~due;
    let next = due + int_of_float (Rng.exponential rng ~mean) in
    if next < stop then ignore (Sim.schedule_at g.sim ~at:next (arrive next))
  in
  let first = start + int_of_float (Rng.exponential rng ~mean) in
  if first < stop then ignore (Sim.schedule_at g.sim ~at:first (arrive first))

(* Write every key once, [preload_batch] keys per txn, one txn per ms, and
   run until all are acknowledged, [step] advancing the sim by 100 ms. *)
let preload g ~step =
  let n = Array.length g.keys in
  let next = ref 0 and outstanding = ref 0 and failed = ref 0 in
  let rec batch () =
    let txn = Database.begin_txn g.db in
    let hi = min n (!next + preload_batch) in
    for k = !next to hi - 1 do
      let v = value 'p' k in
      Database.put g.db ~txn ~key:g.keys.(k) ~value:v;
      g.last_issue.(k) <- 0;
      g.last_value.(k) <- v
    done;
    next := hi;
    incr outstanding;
    Database.commit g.db ~txn (function
      | Ok () -> decr outstanding
      | Error _ -> incr failed);
    if hi < n then ignore (Sim.schedule g.sim ~delay:(Time_ns.ms 1) batch)
  in
  batch ();
  let deadline = Time_ns.add (Sim.now g.sim) (Time_ns.sec 120) in
  while (!next < n || !outstanding > 0) && !failed = 0 && Sim.now g.sim < deadline do
    step ()
  done;
  if !next < n || !outstanding > 0 || !failed > 0 then failwith "preload did not complete"

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let ratio = Tracer.ratio

(* After quiescing, read back a fixed stride of keys through the writer and
   every replica and compare with the oracle.  Returns (reads, bad), where a
   read that errs, mismatches or never returns is bad. *)
let read_back g cluster =
  let n = Array.length g.keys in
  let m = min n readback_keys in
  let issued = ref 0 and good = ref 0 in
  let check k = function
    | Ok (Some v) when String.equal v g.last_value.(k) -> incr good
    | Ok _ | Error _ -> ()
  in
  for i = 0 to m - 1 do
    let k = i * n / m in
    issued := !issued + 1 + List.length g.replicas;
    Database.get g.db ~key:g.keys.(k) (check k);
    List.iter (fun r -> Replica.get r ~key:g.keys.(k) (check k)) g.replicas
  done;
  Cluster.run_for cluster drain;
  (!issued, !issued - !good)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* [top_heap_words] of this process: each repetition is a fresh process. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let gc_rows (gc0 : Gc.stat) (gc1 : Gc.stat) ~commits =
  let per_commit f = (f gc1 -. f gc0) /. float_of_int (max 1 commits) in
  [
    ("gc.minor_words_per_commit", per_commit (fun s -> s.Gc.minor_words));
    ("gc.promoted_words_per_commit", per_commit (fun s -> s.Gc.promoted_words));
    ( "gc.major_collections",
      float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
  ]

(* Storage-layer state at the end of the run: footprint per byte of live
   user data, versions kept per stored key, hot-log records per segment,
   gossip records filled per record sent. *)
let storage_rows cluster ~user_bytes =
  let nodes = Cluster.storage_nodes cluster in
  let segs = List.concat_map Storage_node.segments nodes in
  let versions = sum (fun s -> Storage.Block_store.version_count (Segment.store s)) segs in
  let hot_log_records = sum (fun s -> Wal.Hot_log.record_count (Segment.hot_log s)) segs in
  let stored_keys =
    sum
      (fun s ->
        let store = Segment.store s in
        sum (fun b -> List.length (Storage.Block_store.block_snapshot store b))
          (Storage.Block_store.blocks store))
      segs
  in
  let m f = sum (fun n -> f (Storage_node.metrics n)) nodes in
  [
    ("storage.bytes_per_user_byte", ratio (sum Segment.bytes_stored segs) user_bytes);
    ("storage.versions_per_key", ratio versions stored_keys);
    ("storage.hot_log_records", ratio hot_log_records (List.length segs));
    ( "storage.gossip_fill_ratio",
      ratio
        (m (fun x -> x.Storage_node.gossip_records_filled))
        (m (fun x -> x.Storage_node.gossip_records_sent)) );
  ]

(* Cumulative counters the window rows are deltas of. *)
type counters = {
  events : int;
  sent : int;
  bytes : int;
  gets : int;
  hits : int;
  storage_reads : int;
  records : int;
  reads : int;
  ios : int;
  hedges : int;
  replica_gets : int;
  replica_hits : int;
  applied : int;
  skipped : int;
}

let counters g cluster =
  let net = Simnet.Net.stats (Cluster.net cluster) in
  let dbm = Database.metrics g.db in
  let rd = Reader.metrics (Database.reader g.db) in
  let rsum f = sum (fun r -> f (Replica.metrics r)) g.replicas in
  {
    events = Sim.processed g.sim;
    sent = net.Simnet.Net.sent;
    bytes = net.Simnet.Net.bytes_sent;
    gets = dbm.Database.gets;
    hits = dbm.Database.cache_hit_reads;
    storage_reads = dbm.Database.storage_reads;
    records = dbm.Database.records_written;
    reads = rd.Reader.reads;
    ios = rd.Reader.ios_issued;
    hedges = rd.Reader.hedges;
    replica_gets = rsum (fun m -> m.Replica.gets);
    replica_hits = rsum (fun m -> m.Replica.cache_hit_reads);
    applied = rsum (fun m -> m.Replica.records_applied);
    skipped = rsum (fun m -> m.Replica.records_skipped);
  }


let run ~seed ~traced (spec : Workloads.cluster) =
  let setup = Calib.create () in
  let cluster, replicas =
    Calib.time setup (fun () ->
        let cluster =
          Cluster.create
            {
              Cluster.default_config with
              Cluster.seed;
              n_pgs = spec.n_pgs;
              db_config =
                {
                  Database.default_config with
                  Database.n_blocks = spec.n_blocks;
                  cache_capacity = spec.cache_blocks;
                };
            }
        in
        (cluster, List.init spec.replicas (fun _ -> Cluster.add_replica cluster)))
  in
  let sim = Cluster.sim cluster in
  let g =
    {
      spec;
      sim;
      db = Cluster.db cluster;
      replicas;
      zipf = Workload.Zipf.create ~n:spec.keys ~theta:spec.zipf_theta;
      keys = Array.init spec.keys (Printf.sprintf "key-%06d");
      last_issue = Array.make spec.keys (-1);
      last_value = Array.make spec.keys "";
      tracer = (if traced then Some (Tracer.create sim) else None);
      commit_lat = Samples.create ();
      read_lat = Samples.create ();
      issued = 0;
      acked = 0;
      failed_txns = 0;
      reads = 0;
      reads_done = 0;
      failed_reads = 0;
      values = 0;
      arrivals = Array.make slices 0;
    }
  in
  preload g ~step:(fun () ->
      Calib.time setup (fun () -> Cluster.run_for cluster (Time_ns.ms 100)));
  let warm_start = Sim.now sim in
  for i = 1 to rest_slices do
    Calib.time setup (fun () ->
        Sim.run_until sim (Time_ns.add warm_start (i * (warm_up / rest_slices))))
  done;
  let setup_s = setup.Calib.ref_ns /. 1e9 in
  (* ---- the measured window ---- *)
  let rng = Rng.create ((seed * 7919) + 17) in
  let start = Sim.now sim in
  let duration = Time_ns.of_float_us (float_of_int spec.txns /. spec.txn_rate *. 1e6) in
  let stop = Time_ns.add start duration in
  let slice_len = duration / window_slices in
  let per_quarter = window_slices / slices in
  arrivals g ~rng:(Rng.split rng) ~rate:spec.txn_rate ~start ~stop (fun ~rng ~due ->
      let i = min (slices - 1) ((due - start) / slice_len / per_quarter) in
      g.arrivals.(i) <- g.arrivals.(i) + 1;
      issue_txn g ~rng ~due);
  if spec.replica_get_rate > 0. then
    List.iter
      (fun r ->
        arrivals g ~rng:(Rng.split rng) ~rate:spec.replica_get_rate ~start ~stop
          (replica_get g r))
      replicas;
  let net = Cluster.net cluster in
  let dbm = Database.metrics g.db in
  let c0 = counters g cluster in
  let batch0 = Database.mean_batch_size g.db in
  let durable0 = Histogram.snapshot dbm.Database.record_durable_latency in
  let lag r = (Replica.metrics r).Replica.stream_lag in
  let lag0 = List.map (fun r -> Histogram.snapshot (lag r)) replicas in
  (match g.tracer with Some tr -> Tracer.install tr net | None -> ());
  let window = Calib.create () in
  let gc0 = Gc.quick_stat () in
  (* The window is the sum of its slices: kernel samples between slices are
     outside it.  [run_wall] is the part spent inside [Sim.run_until]. *)
  let run_wall = ref 0 in
  let run_to limit =
    Calib.time window (fun () ->
        let r0 = Clock.now_ns () in
        Sim.run_until sim limit;
        run_wall := !run_wall + (Clock.now_ns () - r0))
  in
  (* Four equal sim-time quarters of the arrival window show whether time
     per commit grows with history; the drain closes the window. *)
  let quarter_ref = Array.make slices 0. in
  for i = 0 to window_slices - 1 do
    let before = window.Calib.ref_ns in
    run_to (if i = window_slices - 1 then stop else Time_ns.add start ((i + 1) * slice_len));
    let q = i / per_quarter in
    quarter_ref.(q) <- quarter_ref.(q) +. (window.Calib.ref_ns -. before)
  done;
  for i = 1 to rest_slices do
    run_to (Time_ns.add stop (i * (drain / rest_slices)))
  done;
  let window_wall = window.Calib.wall_ns in
  let gc1 = Gc.quick_stat () in
  let trace_rows =
    match g.tracer with
    | Some tr ->
      Tracer.uninstall tr net;
      Tracer.rows tr ~acked:g.acked ~run_wall:!run_wall ~window_wall
    | None -> []
  in
  let c1 = counters g cluster in
  let d f = f c1 - f c0 in
  let per_commit x = ratio x g.acked in
  (* Records per flushed boxcar batch inside the window, from the cumulative
     mean before and after: batches = records flushed / mean, and every
     record is flushed to the same roster size. *)
  let batches records mean = if mean = 0. then 0. else float_of_int records /. mean in
  let window_batches =
    batches c1.records (Database.mean_batch_size g.db) -. batches c0.records batch0
  in
  let lag_p99 =
    List.fold_left2
      (fun acc r snap ->
        Float.max acc (float_of_int (Histogram.percentile_since (lag r) snap 99.) /. 1e3))
      0. replicas lag0
  in
  let per_arrival q = quarter_ref.(q) /. float_of_int (max 1 g.arrivals.(q)) in
  let q1 = per_arrival 0 and q4 = per_arrival (slices - 1) in
  let unfinished = g.issued - g.acked - g.failed_txns + (g.reads - g.reads_done) in
  (* ---- outside the window: health probe timing, read-back check ---- *)
  let health_rows =
    match g.tracer with
    | None -> []
    | Some _ ->
      let n = 50 in
      let t0 = Clock.now_ns () in
      for _ = 1 to n do
        ignore (Cluster.health_sample cluster ~at:(Sim.now sim) : Obs.Health.sample)
      done;
      [ ("obs.health_sample_ns", ratio (Clock.now_ns () - t0) n) ]
  in
  let readback, mismatches = read_back g cluster in
  let failed = g.failed_txns + g.failed_reads + unfinished + mismatches in
  (* Sim-side rows: identical for a seed whether or not the run is traced. *)
  let sim_rows =
    [
      ("sim_commit_p50_us", Samples.percentile_us g.commit_lat 50.);
      ("sim_commit_p99_us", Samples.percentile_us g.commit_lat 99.);
      ("simcore.events_per_commit", per_commit (d (fun c -> c.events)));
      ("net.msgs_per_commit", per_commit (d (fun c -> c.sent)));
      ("window_ref_ns", window.Calib.ref_ns);
    ]
  in
  let user_bytes = sum String.length (Array.to_list g.keys) + (value_size * spec.keys) in
  let untraced_rows () =
    let dr num den = ratio (d num) (d den) in
    let durable_p99 =
      Histogram.percentile_since dbm.Database.record_durable_latency durable0 99.
    in
    [
      ("ns_per_commit", window.Calib.ref_ns /. float_of_int (max 1 g.acked));
      ("setup_s", setup_s);
      ("peak_heap_mb", peak_heap_mb ());
      ("wall_ns_per_commit", ratio window_wall g.acked);
      ("host.slowdown", Calib.median_slowdown [ setup; window ]);
      ("sim_read_p50_us", Samples.percentile_us g.read_lat 50.);
      ("sim_read_p99_us", Samples.percentile_us g.read_lat 99.);
      ( "simcore.events_per_sec_wall",
        float_of_int (d (fun c -> c.events)) /. (float_of_int window_wall /. 1e9) );
      ("net.bytes_per_commit", per_commit (d (fun c -> c.bytes)));
      ( "core.boxcar_records_per_batch",
        if window_batches > 0. then float_of_int (d (fun c -> c.records)) /. window_batches
        else 0. );
      ("core.cache_hit_rate", dr (fun c -> c.hits) (fun c -> c.gets));
      ("core.storage_reads_per_get", dr (fun c -> c.storage_reads) (fun c -> c.gets));
      ("core.record_durable_p99_us", float_of_int durable_p99 /. 1e3);
      ("reader.ios_per_read", dr (fun c -> c.ios) (fun c -> c.reads));
      ("reader.hedge_ratio", dr (fun c -> c.hedges) (fun c -> c.reads));
      ("replica.cache_hit_rate", dr (fun c -> c.replica_hits) (fun c -> c.replica_gets));
      ( "replica.records_skipped_ratio",
        dr (fun c -> c.skipped) (fun c -> c.applied + c.skipped) );
      ("replica.stream_lag_p99_us", lag_p99);
      ("window.q1_ns_per_commit", q1);
      ("window.q4_ns_per_commit", q4);
      ("window.growth", if q1 = 0. then 0. else q4 /. q1);
    ]
    @ gc_rows gc0 gc1 ~commits:g.acked
  in
  {
    correct = failed = 0 && g.acked > 0;
    attempted = g.issued + g.reads + readback;
    failed;
    metrics =
      (sim_rows
      @
      match g.tracer with
      | Some _ -> trace_rows @ health_rows @ storage_rows cluster ~user_bytes
      | None -> untraced_rows ());
  }
