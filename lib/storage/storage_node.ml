open Simcore
open Wal
open Quorum
module Sink = Recorder.Sink

type config = {
  disk_service : Distribution.t;
  disk_per_byte_ns : int;
  gossip_interval : Time_ns.t;
  coalesce_interval : Time_ns.t;
  backup_interval : Time_ns.t;
  gc_interval : Time_ns.t;
  scrub_interval : Time_ns.t;
  gossip_batch_limit : int;
}

let default_config =
  {
    disk_service = Distribution.lognormal ~median:(Time_ns.us 80) ~sigma:0.4;
    disk_per_byte_ns = 2;
    gossip_interval = Time_ns.ms 100;
    coalesce_interval = Time_ns.ms 50;
    backup_interval = Time_ns.sec 1;
    gc_interval = Time_ns.ms 500;
    scrub_interval = Time_ns.sec 10;
    gossip_batch_limit = 512;
  }

type metrics = {
  mutable write_batches : int;
  mutable records_stored : int;
  mutable duplicates : int;
  mutable rejects : int;
  mutable reads_ok : int;
  mutable reads_refused : int;
  mutable gossip_pulls_served : int;
  mutable gossip_records_sent : int;
  mutable gossip_records_filled : int;
  mutable backups_taken : int;
  mutable hot_log_records_gced : int;
  mutable versions_gced : int;
  mutable scrub_corruptions_found : int;
  mutable hydrations_served : int;
}

let fresh_metrics () =
  {
    write_batches = 0;
    records_stored = 0;
    duplicates = 0;
    rejects = 0;
    reads_ok = 0;
    reads_refused = 0;
    gossip_pulls_served = 0;
    gossip_records_sent = 0;
    gossip_records_filled = 0;
    backups_taken = 0;
    hot_log_records_gced = 0;
    versions_gced = 0;
    scrub_corruptions_found = 0;
    hydrations_served = 0;
  }

type t = {
  sim : Sim.t;
  rng : Rng.t;
  net : Protocol.t Simnet.Net.t;
  addr : Simnet.Addr.t;
  s3 : S3.t;
  config : config;
  segments : Segment.t Pg_id.Tbl.t;
  writer_of : Simnet.Addr.t Pg_id.Tbl.t; (* last writer seen per group *)
  disk : Disk.t;
  metrics : metrics;
  sink : Sink.t; (* flight-recorder hook point *)
  mutable alive : bool;
  mutable generation : int; (* invalidates background loops across restarts *)
}

let register_instruments ~obs ~addr ~obs_labels metrics =
  match obs with
  | None -> ()
  | Some obs ->
    let reg = Obs.Ctx.registry obs in
    let labels =
      ("node", string_of_int (Simnet.Addr.to_int addr)) :: obs_labels
    in
    let c name f = Obs.Registry.counter_fn reg ~labels name f in
    let m = metrics in
    c "storage_write_batches" (fun () -> m.write_batches);
    c "storage_records_stored" (fun () -> m.records_stored);
    c "storage_duplicates" (fun () -> m.duplicates);
    c "storage_rejects" (fun () -> m.rejects);
    c "storage_reads_ok" (fun () -> m.reads_ok);
    c "storage_reads_refused" (fun () -> m.reads_refused);
    c "storage_gossip_pulls_served" (fun () -> m.gossip_pulls_served);
    c "storage_gossip_records_sent" (fun () -> m.gossip_records_sent);
    c "storage_gossip_records_filled" (fun () -> m.gossip_records_filled);
    c "storage_backups_taken" (fun () -> m.backups_taken);
    c "storage_hot_log_records_gced" (fun () -> m.hot_log_records_gced);
    c "storage_versions_gced" (fun () -> m.versions_gced);
    c "storage_scrub_corruptions_found" (fun () -> m.scrub_corruptions_found);
    c "storage_hydrations_served" (fun () -> m.hydrations_served)

let create ~sim ~rng ~net ~addr ~s3 ~config ?obs ?(obs_labels = []) ?rings () =
  let metrics = fresh_metrics () in
  register_instruments ~obs ~addr ~obs_labels metrics;
  {
    sim;
    rng;
    net;
    addr;
    s3;
    config;
    segments = Pg_id.Tbl.create 4;
    writer_of = Pg_id.Tbl.create 4;
    disk =
      Disk.create ~sim ~rng:(Rng.split rng) ~service:config.disk_service
        ~per_byte_ns:config.disk_per_byte_ns;
    metrics;
    sink = Sink.create ~sim ~node:(Simnet.Addr.to_int addr) ?rings ();
    alive = false;
    generation = 0;
  }

let addr t = t.addr
let add_segment t seg = Pg_id.Tbl.replace t.segments (Segment.pg seg) seg
let segment t pg = Pg_id.Tbl.find_opt t.segments pg
let segments t = Pg_id.Tbl.fold (fun _ s acc -> s :: acc) t.segments []
let metrics t = t.metrics
let disk t = t.disk
let is_alive t = t.alive

let send t ~dst msg = Simnet.Net.send t.net ~src:t.addr ~dst ~bytes:(Protocol.bytes msg) msg

let reject_metric t = t.metrics.rejects <- t.metrics.rejects + 1

(* ---- foreground handlers ---- *)

let handle_write t ~reply_to ~pg ~seg ~records ~pgcl ~epochs =
  match segment t pg with
  | None -> send t ~dst:reply_to (Protocol.Write_reject { pg; seg; reason = Protocol.Not_a_member })
  | Some s ->
    if not (Member_id.equal (Segment.seg_id s) seg) then begin
      reject_metric t;
      send t ~dst:reply_to (Protocol.Write_reject { pg; seg; reason = Protocol.Not_a_member })
    end
    else begin
      match Segment.check_epochs s epochs with
      | Error reason ->
        reject_metric t;
        send t ~dst:reply_to (Protocol.Write_reject { pg; seg; reason })
      | Ok () ->
        Pg_id.Tbl.replace t.writer_of pg reply_to;
        Segment.note_pgcl s pgcl;
        (* Foreground path: durable append to the incoming/update queue,
           then acknowledge with the advanced SCL (Figure 2, steps 1-2). *)
        let bytes = Protocol.records_bytes records in
        Disk.submit t.disk ~bytes (fun () ->
            if t.alive then begin
              Perf.Probe.start Perf.Probe.Storage_apply;
              let before = Hot_log.record_count (Segment.hot_log s) in
              let scl = Segment.insert_records s records in
              let after = Hot_log.record_count (Segment.hot_log s) in
              t.metrics.write_batches <- t.metrics.write_batches + 1;
              t.metrics.records_stored <- t.metrics.records_stored + (after - before);
              t.metrics.duplicates <-
                t.metrics.duplicates + (List.length records - (after - before));
              if Sink.recording t.sink then
                Sink.note t.sink
                  (Recorder.Event.Scl_advance
                     {
                       pg = Pg_id.to_int pg;
                       scl = Lsn.to_int scl;
                       stored = after - before;
                     });
              send t ~dst:reply_to (Protocol.Write_ack { pg; seg; scl });
              Perf.Probe.stop Perf.Probe.Storage_apply
            end)
    end

let handle_read t ~reply_to ~req ~pg ~seg ~block ~as_of ~epochs =
  match segment t pg with
  | None ->
    send t ~dst:reply_to
      (Protocol.Read_reply
         { req; seg; result = Error (Protocol.Rejected Protocol.Not_a_member) })
  | Some s ->
    let result =
      match Segment.check_epochs s epochs with
      | Error reason -> Error (Protocol.Rejected reason)
      | Ok () -> Segment.read_block s ~block ~as_of
    in
    (match result with
    | Ok img ->
      t.metrics.reads_ok <- t.metrics.reads_ok + 1;
      (* Block reads hit the device: charge the image transfer. *)
      Disk.submit t.disk ~bytes:img.image_bytes (fun () ->
          if t.alive then
            send t ~dst:reply_to (Protocol.Read_reply { req; seg; result = Ok img }))
    | Error _ ->
      t.metrics.reads_refused <- t.metrics.reads_refused + 1;
      send t ~dst:reply_to (Protocol.Read_reply { req; seg; result }))

let handle_gossip_pull t ~reply_to ~pg ~scl ~epochs =
  match segment t pg with
  | None -> ()
  | Some s -> (
    match Segment.check_epochs s epochs with
    | Error _ -> reject_metric t
    | Ok () ->
      let records =
        Hot_log.chained_records_above ~limit:t.config.gossip_batch_limit
          (Segment.hot_log s) scl
      in
      t.metrics.gossip_pulls_served <- t.metrics.gossip_pulls_served + 1;
      if records <> [] then begin
        t.metrics.gossip_records_sent <-
          t.metrics.gossip_records_sent + List.length records;
        send t ~dst:reply_to (Protocol.Gossip_reply { pg; records })
      end)

let handle_gossip_reply t ~pg ~records =
  match segment t pg with
  | None -> ()
  | Some s ->
    let bytes = Protocol.records_bytes records in
    Disk.submit t.disk ~bytes (fun () ->
        if t.alive then begin
          let before = Hot_log.record_count (Segment.hot_log s) in
          let scl_before = Segment.scl s in
          let scl = Segment.insert_records s records in
          let after = Hot_log.record_count (Segment.hot_log s) in
          t.metrics.gossip_records_filled <-
            t.metrics.gossip_records_filled + (after - before);
          if Sink.recording t.sink && after > before then
            Sink.note t.sink
              (Recorder.Event.Gossip_fill
                 {
                   pg = Pg_id.to_int pg;
                   scl = Lsn.to_int scl;
                   filled = after - before;
                 });
          (* A gossip-driven SCL advance is acknowledged to the writer just
             like a write-driven one: dropped acks self-heal this way. *)
          if Lsn.(scl > scl_before) then
            match Pg_id.Tbl.find_opt t.writer_of pg with
            | Some writer ->
              send t ~dst:writer
                (Protocol.Write_ack { pg; seg = Segment.seg_id s; scl })
            | None -> ()
        end)

let handle_hydrate_pull t ~reply_to ~req ~pg ~since ~want_blocks ~epochs =
  match segment t pg with
  | None -> ()
  | Some s -> (
    match Segment.check_epochs s epochs with
    | Error _ -> reject_metric t
    | Ok () ->
      let records, blocks = Segment.hydrate_export s ~since ~want_blocks in
      t.metrics.hydrations_served <- t.metrics.hydrations_served + 1;
      send t ~dst:reply_to
        (Protocol.Hydrate_reply
           {
             req;
             pg;
             records;
             blocks;
             scl = Segment.scl s;
             coalesced = Segment.coalesced_upto s;
             retained_from = Segment.retained_from s;
             statuses = Segment.txn_statuses s;
           }))

let handle_hydrate_reply t ~pg ~records ~blocks ~donor_scl ~coalesced ~statuses =
  match segment t pg with
  | None -> ()
  | Some s ->
    Segment.merge_statuses s statuses;
    let bytes =
      Protocol.records_bytes records
      + List.fold_left (fun acc (_, snapshot) -> acc + Protocol.snapshot_bytes snapshot) 0 blocks
    in
    Disk.submit t.disk ~bytes (fun () ->
        if t.alive then begin
          Segment.hydrate_import s ~records ~blocks ~donor_scl ~coalesced;
          if Sink.recording t.sink then
            Sink.note t.sink
              (Recorder.Event.Hydrate_import
                 { pg = Pg_id.to_int pg; scl = Lsn.to_int (Segment.scl s) })
        end)

let handle_message t (env : Protocol.t Simnet.Net.envelope) =
  if t.alive then
    match env.msg with
    | Protocol.Write_batch { pg; seg; records; pgcl; epochs } ->
      handle_write t ~reply_to:env.src ~pg ~seg ~records ~pgcl ~epochs
    | Protocol.Read_block { req; pg; seg; block; as_of; epochs } ->
      handle_read t ~reply_to:env.src ~req ~pg ~seg ~block ~as_of ~epochs
    | Protocol.Gossip_pull { pg; from_seg = _; scl; epochs } ->
      handle_gossip_pull t ~reply_to:env.src ~pg ~scl ~epochs
    | Protocol.Gossip_reply { pg; records } -> handle_gossip_reply t ~pg ~records
    | Protocol.Scl_probe { req; pg; seg; epochs } -> (
      match segment t pg with
      | None -> ()
      | Some s -> (
        match Segment.check_epochs s epochs with
        | Error _ -> reject_metric t
        | Ok () ->
          send t ~dst:env.src
            (Protocol.Scl_reply
               {
                 req;
                 pg;
                 seg;
                 scl = Segment.scl s;
                 highest = Hot_log.highest_received (Segment.hot_log s);
               })))
    | Protocol.Truncate { pg; seg; above; upto; pgcl; epochs } -> (
      match segment t pg with
      | None -> ()
      | Some s -> (
        match Segment.check_epochs s epochs with
        | Error _ -> reject_metric t
        | Ok () ->
          ignore (Segment.truncate s ~above ~upto : int);
          Segment.note_pgcl s pgcl;
          send t ~dst:env.src (Protocol.Truncate_ack { pg; seg })))
    | Protocol.Epoch_update { req; pg; seg; epochs } -> (
      match segment t pg with
      | None -> ()
      | Some s ->
        (* Installing a higher epoch is itself a write at the new epoch:
           unconditionally adopted (§2.4). *)
        Segment.install_volume_epoch s epochs.volume;
        if Sink.recording t.sink then
          Sink.note t.sink
            (Recorder.Event.Epoch_change
               {
                 pg = Pg_id.to_int pg;
                 volume_epoch = Epoch.to_int (Segment.volume_epoch s);
                 membership_epoch = Epoch.to_int (Segment.membership_epoch s);
               });
        send t ~dst:env.src (Protocol.Epoch_ack { req; pg; seg }))
    | Protocol.Membership_update { pg; epoch; peers } -> (
      match segment t pg with
      | None -> ()
      | Some s ->
        Segment.install_membership s ~epoch ~peers;
        if Sink.recording t.sink then
          Sink.note t.sink
            (Recorder.Event.Epoch_change
               {
                 pg = Pg_id.to_int pg;
                 volume_epoch = Epoch.to_int (Segment.volume_epoch s);
                 membership_epoch = Epoch.to_int (Segment.membership_epoch s);
               }))
    | Protocol.Hydrate_pull { req; pg; from_seg = _; since; want_blocks; epochs }
      ->
      handle_hydrate_pull t ~reply_to:env.src ~req ~pg ~since ~want_blocks
        ~epochs
    | Protocol.Hydrate_reply
        { req = _; pg; records; blocks; scl; coalesced; retained_from = _; statuses }
      ->
      handle_hydrate_reply t ~pg ~records ~blocks ~donor_scl:scl ~coalesced
        ~statuses
    | Protocol.Pgmrpl_update { pg; seg = _; floor; pgcl } -> (
      match segment t pg with
      | None -> ()
      | Some s ->
        Segment.note_pgcl s pgcl;
        t.metrics.versions_gced <-
          t.metrics.versions_gced + Segment.advance_pgmrpl s floor;
        if Sink.recording t.sink then
          Sink.note t.sink
            (Recorder.Event.Pgmrpl_advance
               { pg = Pg_id.to_int pg; floor = Lsn.to_int floor }))
    | Protocol.Write_ack _ | Protocol.Write_reject _ | Protocol.Read_reply _
    | Protocol.Scl_reply _ | Protocol.Truncate_ack _ | Protocol.Epoch_ack _
    | Protocol.Redo_stream _ | Protocol.Replica_feedback _ ->
      (* Instance-side messages: not ours. *)
      ()

(* ---- background activities (Figure 2, steps 3-8) ---- *)

let current_epochs s =
  {
    Protocol.volume = Segment.volume_epoch s;
    membership = Segment.membership_epoch s;
  }

let gossip_round t =
  Pg_id.Tbl.iter
    (fun pg s ->
      let peers =
        List.filter
          (fun (m, a) ->
            (not (Member_id.equal m (Segment.seg_id s)))
            && not (Simnet.Addr.equal a t.addr))
          (Segment.peers s)
      in
      match peers with
      | [] -> ()
      | peers ->
        let _, peer_addr = Rng.pick_list t.rng peers in
        send t ~dst:peer_addr
          (Protocol.Gossip_pull
             {
               pg;
               from_seg = Segment.seg_id s;
               scl = Segment.scl s;
               epochs = current_epochs s;
             }))
    t.segments

let backup_round t =
  Pg_id.Tbl.iter
    (fun pg s ->
      let scl = Segment.scl s in
      if Lsn.(scl > Segment.backup_upto s) then begin
        let snap =
          {
            S3.pg;
            seg = Segment.seg_id s;
            upto = scl;
            bytes = Segment.bytes_stored s;
            taken_at = Sim.now t.sim;
          }
        in
        S3.upload t.s3 snap ~on_durable:(fun () ->
            t.metrics.backups_taken <- t.metrics.backups_taken + 1;
            Segment.set_backup_upto s snap.S3.upto)
      end)
    t.segments

let gc_round t =
  Pg_id.Tbl.iter
    (fun _ s ->
      t.metrics.hot_log_records_gced <-
        t.metrics.hot_log_records_gced + Segment.gc_hot_log s)
    t.segments

let scrub_round t =
  Pg_id.Tbl.iter
    (fun pg s ->
      match Segment.scrub s with
      | [] -> ()
      | corrupt ->
        t.metrics.scrub_corruptions_found <-
          t.metrics.scrub_corruptions_found + List.length corrupt;
        (* Repair: re-hydrate block images from a peer (records not needed). *)
        let peers =
          List.filter
            (fun (m, _) -> not (Member_id.equal m (Segment.seg_id s)))
            (Segment.peers s)
        in
        (match peers with
        | [] -> ()
        | peers ->
          let _, peer_addr = Rng.pick_list t.rng peers in
          send t ~dst:peer_addr
            (Protocol.Hydrate_pull
               {
                 req = 0;
                 pg;
                 from_seg = Segment.seg_id s;
                 since = Segment.scl s;
                 want_blocks = true;
                 epochs = current_epochs s;
               })))
    t.segments

let start_background t =
  let gen = t.generation in
  let loop interval f =
    Sim.every t.sim ~interval (fun () ->
        if t.alive && t.generation = gen then begin
          f t;
          true
        end
        else false)
  in
  loop t.config.gossip_interval gossip_round;
  loop t.config.coalesce_interval (fun t ->
      Pg_id.Tbl.iter (fun _ s -> ignore (Segment.coalesce s : int)) t.segments);
  loop t.config.backup_interval backup_round;
  loop t.config.gc_interval gc_round;
  loop t.config.scrub_interval scrub_round

let start t =
  t.alive <- true;
  t.generation <- t.generation + 1;
  Simnet.Net.register t.net t.addr (handle_message t);
  Simnet.Net.set_up t.net t.addr;
  if Sink.recording t.sink then Sink.note t.sink Recorder.Event.Started;
  start_background t

let crash t =
  t.alive <- false;
  Simnet.Net.set_down t.net t.addr;
  Sink.crashed t.sink

let restart t = start t

let destroy t =
  crash t;
  Pg_id.Tbl.reset t.segments;
  if Sink.recording t.sink then Sink.note t.sink Recorder.Event.Destroyed

let request_hydration t ~pg ~from =
  match segment t pg with
  | None -> ()
  | Some s ->
    send t ~dst:from
      (Protocol.Hydrate_pull
         {
           req = 0;
           pg;
           from_seg = Segment.seg_id s;
           since = Segment.scl s;
           want_blocks = Segment.kind s = Quorum.Membership.Full;
           epochs = current_epochs s;
         })
