open Simcore
open Quorum
module Database = Aurora_core.Database
module Replica = Aurora_core.Replica
module Consistency = Aurora_core.Consistency
module Reader = Aurora_core.Reader
module Boxcar = Aurora_core.Boxcar
module Lsn = Wal.Lsn
module Pg_id = Storage.Pg_id
module String_map = Map.Make (String)

(* Acknowledged keys the database no longer returns, by the workload's
   durability oracle ({!Workload.Txn_gen.audit}); runs the sim 10 s so the
   audit reads complete. *)
let lost_keys ~sim ~db gen =
  let lost = ref 0 in
  ignore
    (Workload.Txn_gen.audit gen
       ~get:(fun ~key cb -> Database.get db ~key cb)
       (fun ~key:_ _ -> incr lost));
  Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.sec 10));
  !lost

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 — availability of quorum schemes                       *)
(* ------------------------------------------------------------------ *)

module E1 = struct
  (* Degraded-fleet parameters: frequent-enough faults and slow-enough
     repair that rare events register at Monte Carlo scale — the shape,
     not the absolute magnitude, is what Figure 1 argues. *)
  let harsh_params =
    {
      Availability.Fleet_model.default_params with
      Availability.Fleet_model.segment_mttf = Time_ns.hours (24 * 30);
      repair_duration = Time_ns.minutes 30;
      az_mttf = Time_ns.hours (24 * 90);
      groups = 3000;
    }

  let yn b = if b then "yes" else "NO"

  let run ~seed =
    let r =
      Report.create ~title:"E1 (Figure 1): quorum availability"
        ~columns:
          [
            "scheme";
            "survives AZ (r/w)";
            "survives AZ+1 (read=repair)";
            "P(read loss | AZ down)";
            "steady write-unavail (MC)";
            "MC AZ-onset read-survival";
          ]
    in
    List.iter
      (fun (name, layout) ->
        let g = Layout.membership layout in
        let members = Membership.members g and rule = Membership.rule g in
        let mc =
          Availability.Fleet_model.run ~rng:(Rng.create seed) ~params:harsh_params
            ~members ~rule
        in
        let tol = Availability.Fleet_model.az_tolerance ~members ~rule in
        let _, az_read_loss =
          Availability.Fleet_model.analytic_given_az ~params:harsh_params
            ~members ~rule
        in
        Report.row r
          [
            name;
            Printf.sprintf "%s/%s" (yn tol.read_survives_az)
              (yn tol.write_survives_az);
            yn tol.read_survives_az_plus_one;
            Printf.sprintf "%.2e" az_read_loss;
            Report.pct mc.write_unavail;
            (if mc.az_onsets = 0 then "n/a"
             else
               Report.pct
                 (float_of_int mc.az_read_survived /. float_of_int mc.az_onsets));
          ])
      [
        ("2/3 across 3 AZs", Layout.V3);
        ("4/6 across 3 AZs", Layout.V6);
        ("tiered 3f+3t", Layout.Tiered);
      ];
    Report.note r
      "expected shape (the paper's 'why six copies'): 2/3 cannot repair \
       after AZ+1 (read quorum gone -> data loss risk); 4/6 and tiered keep \
       the read quorum through AZ+1, so every failure there stays \
       repairable";
    r
end

(* ------------------------------------------------------------------ *)
(* E2: Figure 2 — storage node pipeline under loss                     *)
(* ------------------------------------------------------------------ *)

module E2 = struct
  type t = {
    records_written : int;
    acks_processed : int;
    gossip_filled : int;
    final_scl_lag : int;
    coalesced_versions : int;
    backups : int;
    hot_log_gced : int;
    scrub_found : int;
    corruptions_injected : int;
    scrub_repaired : int;
  }

  let drop = 0.05

  let run ~seed =
    let txns = 400 in
    let cfg = { Cluster.default_config with seed; n_pgs = 1 } in
    let cluster = Cluster.create cfg in
    let sim = Cluster.sim cluster in
    let db = Cluster.db cluster in
    Simnet.Net.set_drop_probability (Cluster.net cluster) drop;
    let gen =
      Workload.Txn_gen.create ~sim ~rng:(Rng.create (seed + 1)) ~db
        ~profile:
          { Workload.Txn_gen.default_profile with ops_per_txn = 3; write_fraction = 1. }
        ()
    in
    Workload.Txn_gen.run_open_loop gen ~rate_per_sec:2000.
      ~duration:(Time_ns.ms (txns / 2));
    Sim.run_until sim (Time_ns.sec 2);
    (* Inject corruption into two materialized blocks, then let scrub run. *)
    let injected = ref [] in
    List.iter
      (fun node ->
        if List.length !injected < 2 then
          List.iter
            (fun seg ->
              if
                List.length !injected < 2
                && Storage.Segment.kind seg = Membership.Full
              then begin
                (* The lowest block id: the block table's order is its own. *)
                match
                  List.sort Wal.Block_id.compare
                    (Storage.Block_store.blocks (Storage.Segment.store seg))
                with
                | b :: _ ->
                  if Storage.Block_store.corrupt (Storage.Segment.store seg) b
                  then injected := (seg, b) :: !injected
                | [] -> ()
              end)
            (Storage.Storage_node.segments node))
      (Cluster.storage_nodes cluster);
    (* Stop dropping and let the background stages settle + scrub fire. *)
    Simnet.Net.set_drop_probability (Cluster.net cluster) 0.;
    Sim.run_until sim (Time_ns.sec 30);
    let nodes = Cluster.storage_nodes cluster in
    let sum f = List.fold_left (fun acc n -> acc + f (Storage.Storage_node.metrics n)) 0 nodes in
    let scls =
      List.concat_map
        (fun n ->
          List.map
            (fun s -> Lsn.to_int (Storage.Segment.scl s))
            (Storage.Storage_node.segments n))
        nodes
    in
    let max_scl = List.fold_left max 0 scls in
    let min_scl = List.fold_left min max_int scls in
    let coalesced =
      List.fold_left
        (fun acc n ->
          List.fold_left
            (fun acc s ->
              acc + Storage.Block_store.version_count (Storage.Segment.store s))
            acc
            (Storage.Storage_node.segments n))
        0 nodes
    in
    {
      records_written = (Database.metrics db).Database.records_written;
      acks_processed = sum (fun m -> m.Storage.Storage_node.write_batches);
      gossip_filled = sum (fun m -> m.Storage.Storage_node.gossip_records_filled);
      final_scl_lag = max_scl - min_scl;
      coalesced_versions = coalesced;
      backups = sum (fun m -> m.Storage.Storage_node.backups_taken);
      hot_log_gced = sum (fun m -> m.Storage.Storage_node.hot_log_records_gced);
      scrub_found = sum (fun m -> m.Storage.Storage_node.scrub_corruptions_found);
      corruptions_injected = List.length !injected;
      scrub_repaired =
        List.length
          (List.filter
             (fun (seg, b) ->
               Storage.Block_store.verify (Storage.Segment.store seg) b)
             !injected);
    }

  let report t =
    let r =
      Report.create ~title:"E2 (Figure 2): storage-node pipeline under loss"
        ~columns:[ "stage"; "count" ]
    in
    Report.row r [ "records written (writer)"; string_of_int t.records_written ];
    Report.row r
      [
        Printf.sprintf "write batches stored (drop=%.0f%%)" (100. *. drop);
        string_of_int t.acks_processed;
      ];
    Report.row r [ "records filled by gossip"; string_of_int t.gossip_filled ];
    Report.row r [ "final max SCL lag across segments"; string_of_int t.final_scl_lag ];
    Report.row r [ "versions coalesced"; string_of_int t.coalesced_versions ];
    Report.row r [ "snapshots backed up to S3"; string_of_int t.backups ];
    Report.row r [ "hot-log records GCed"; string_of_int t.hot_log_gced ];
    Report.row r
      [
        Printf.sprintf "scrub corruptions found (of %d injected)"
          t.corruptions_injected;
        string_of_int t.scrub_found;
      ];
    Report.row r
      [
        Printf.sprintf "scrub repaired (of %d injected)" t.corruptions_injected;
        string_of_int t.scrub_repaired;
      ];
    Report.note r
      "expected shape: gossip closes every hole (SCL lag 0) despite drops; \
       all background stages progress";
    r
end

(* ------------------------------------------------------------------ *)
(* E3: Figure 3 — consistency points                                   *)
(* ------------------------------------------------------------------ *)

module E3 = struct
  (* The figure's fixed scenario: nothing is drawn, so the seed is unused. *)
  let run ~seed:_ =
    (* Figure 3: two groups; odd LSNs 101..107 go to PG1, even 102..108 to
       PG2.  105 has not met quorum in PG1; 106 and 108 have not in PG2.
       Expected: PGCL(PG1)=103, PGCL(PG2)=104, VCL=104. *)
    let c = Consistency.create () in
    let pg1 = Pg_id.of_int 0 and pg2 = Pg_id.of_int 1 in
    let members = List.init 6 Member_id.of_int in
    let quorum = Quorum_set.k_of 4 members in
    Consistency.register_pg c pg1 ~write_quorum:quorum;
    Consistency.register_pg c pg2 ~write_quorum:quorum;
    for lsn = 101 to 108 do
      let pg = if lsn mod 2 = 1 then pg1 else pg2 in
      Consistency.note_submitted c ~pg ~lsn:(Lsn.of_int lsn) ~mtr_end:true
    done;
    (* Ack pattern: four segments of PG1 complete through 103, two reach
       105 and 107; four segments of PG2 complete through 104, two reach
       106/108. *)
    let ack pg seg scl = Consistency.note_ack c ~pg ~seg:(Member_id.of_int seg) ~scl:(Lsn.of_int scl) in
    ack pg1 0 103; ack pg1 1 103; ack pg1 2 103; ack pg1 3 103;
    ack pg1 4 107; ack pg1 5 105;
    ack pg2 0 104; ack pg2 1 104; ack pg2 2 104; ack pg2 3 104;
    ack pg2 4 108; ack pg2 5 106;
    let r =
      Report.create ~title:"E3 (Figure 3): storage consistency points"
        ~columns:[ "point"; "computed"; "paper" ]
    in
    let row point computed paper =
      Report.row r
        [ point; string_of_int (Lsn.to_int computed); string_of_int paper ]
    in
    row "PGCL(PG1)" (Consistency.pgcl c pg1) 103;
    row "PGCL(PG2)" (Consistency.pgcl c pg2) 104;
    row "VCL" (Consistency.vcl c) 104;
    r
end

(* ------------------------------------------------------------------ *)
(* E4: Figure 4 / §2.4 — recovery time vs backlog                      *)
(* ------------------------------------------------------------------ *)

module E4 = struct
  let one_point r ~seed ~txns =
    let cfg = { Cluster.default_config with seed; n_pgs = 2 } in
    let cluster = Cluster.create cfg in
    let sim = Cluster.sim cluster in
    let db = Cluster.db cluster in
    let gen =
      Workload.Txn_gen.create ~sim ~rng:(Rng.create (seed + 13)) ~db
        ~profile:
          {
            Workload.Txn_gen.default_profile with
            ops_per_txn = 4;
            write_fraction = 1.;
          }
        ()
    in
    Workload.Txn_gen.run_open_loop gen ~rate_per_sec:5000.
      ~duration:(Time_ns.us (txns * 200));
    Sim.run_until sim (Time_ns.us ((txns * 200) + 500_000));
    let records = (Database.metrics db).Database.records_written in
    let log_bytes = records * (Wal.Log_record.header_bytes + 80) in
    Database.crash db;
    Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.ms 100));
    let outcome = ref None in
    Database.recover db (fun r -> outcome := Some r);
    Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.sec 60));
    let o =
      match !outcome with
      | Some (Ok o) -> o
      | Some (Error e) -> failwith ("E4: recovery failed: " ^ e)
      | None -> failwith "E4: recovery did not complete"
    in
    let lost = lost_keys ~sim ~db gen in
    let aries =
      Baselines.Aries.recovery_time Baselines.Aries.default_config ~log_bytes
        ~records
        ~loser_records:(List.length o.Aurora_core.Recovery.interrupted * 4)
    in
    Report.require r ~ok:(lost = 0)
      [
        string_of_int txns;
        string_of_int log_bytes;
        Report.time o.Aurora_core.Recovery.duration;
        Report.time aries.Baselines.Aries.total;
        string_of_int (Workload.Txn_gen.acked gen);
        string_of_int lost;
      ]

  let run ~seed =
    let r =
      Report.create
        ~title:"E4 (Figure 4 / \xc2\xa72.4): crash recovery vs redo backlog"
        ~columns:
          [
            "txns since ckpt";
            "log bytes";
            "aurora recovery";
            "aries recovery";
            "acked commits";
            "lost";
          ]
    in
    List.iteri
      (fun i txns -> one_point r ~seed:(seed + i) ~txns)
      [ 200; 1000; 5000; 20000 ];
    Report.note r
      "expected shape: Aurora roughly flat in backlog (quorum poll + \
       truncation), ARIES linear; zero acked commits lost";
    r
end

(* ------------------------------------------------------------------ *)
(* E5: Figure 5 — membership change under load                         *)
(* ------------------------------------------------------------------ *)

module E5 = struct
  let membership_epoch cluster pg =
    Membership.epoch
      (Aurora_core.Volume.find_pg
         (Database.volume (Cluster.db cluster))
         pg)
        .Aurora_core.Volume.membership
    |> Epoch.to_int

  let run ~seed =
    let pg = Pg_id.of_int 0 in
    let suspect = Member_id.of_int 5 (* "F" *) in
    (* --- main run: replace F with G under load --- *)
    let cfg = { Cluster.default_config with seed; n_pgs = 1 } in
    let cluster = Cluster.create cfg in
    let sim = Cluster.sim cluster in
    let db = Cluster.db cluster in
    let gen =
      Workload.Txn_gen.create ~sim ~rng:(Rng.create (seed + 3)) ~db
        ~profile:
          {
            Workload.Txn_gen.default_profile with
            ops_per_txn = 2;
            write_fraction = 1.;
          }
        ()
    in
    let e0 = membership_epoch cluster pg in
    Workload.Txn_gen.run_closed_loop gen ~clients:8
      ~think_time:(Distribution.constant (Time_ns.ms 1))
      ~duration:(Time_ns.sec 8);
    Sim.run_until sim (Time_ns.sec 1);
    (* F fails permanently; monitor notices and starts the change. *)
    Cluster.destroy_storage_node cluster pg suspect;
    Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.ms 200));
    let change_start = Sim.now sim in
    let acked_before = Workload.Txn_gen.acked gen in
    let replacement =
      match Cluster.start_replacement cluster pg ~suspect with
      | Ok m -> m
      | Error e -> failwith ("E5: start_replacement: " ^ e)
    in
    let e1 = membership_epoch cluster pg in
    (* Poll for hydration catch-up, then finalize. *)
    let caught_up_at = ref None in
    let rec poll () =
      if !caught_up_at = None then
        if Cluster.replacement_caught_up cluster pg ~replacement then
          caught_up_at := Some (Sim.now sim)
        else ignore (Sim.schedule sim ~delay:(Time_ns.ms 20) poll)
    in
    poll ();
    Sim.run_until sim (Time_ns.sec 5);
    (* A stop-the-world change would stall commits for the whole
       hydration. *)
    let hydration_time =
      match !caught_up_at with
      | Some at -> Time_ns.diff at change_start
      | None -> Time_ns.sec 5
    in
    (match Cluster.finish_replacement cluster pg ~suspect with
    | Ok () -> ()
    | Error e -> failwith ("E5: finish_replacement: " ^ e));
    let e2 = membership_epoch cluster pg in
    let change_end = Sim.now sim in
    Sim.run_until sim (Time_ns.sec 10);
    (* Commit-gap during the change window. *)
    let acks_in_window =
      List.filter_map
        (fun (a : Workload.Txn_gen.acked) ->
          if
            Time_ns.compare a.acked_at change_start >= 0
            && Time_ns.compare a.acked_at change_end <= 0
          then Some a.acked_at
          else None)
        (Workload.Txn_gen.acked_writes gen)
    in
    let sorted = List.sort Time_ns.compare acks_in_window in
    let max_gap =
      let rec gaps acc = function
        | a :: (b :: _ as rest) -> gaps (Time_ns.max acc (Time_ns.diff b a)) rest
        | _ -> acc
      in
      gaps Time_ns.zero sorted
    in
    (* Availability timeline (Figure 1 / §4 shape): fixed windows across
       the change; Aurora is available in a window iff some commit acked
       in it, while a stop-the-world baseline would additionally be dark
       for the whole hydration.  Per window: (offset from change start,
       Aurora write-available, baseline write-available). *)
    let window = Time_ns.ms 250 in
    let all_acks =
      List.map
        (fun (a : Workload.Txn_gen.acked) -> a.acked_at)
        (Workload.Txn_gen.acked_writes gen)
    in
    let n_windows =
      max 1 ((Time_ns.diff change_end change_start + window - 1) / window)
    in
    let stall_end = Time_ns.add change_start hydration_time in
    let availability =
      List.init n_windows (fun i ->
          let w0 = Time_ns.add change_start (i * window) in
          let w1 = Time_ns.min change_end (Time_ns.add w0 window) in
          let aurora =
            List.exists
              (fun a -> Time_ns.compare a w0 >= 0 && Time_ns.compare a w1 < 0)
              all_acks
          in
          let baseline = aurora && Time_ns.compare w0 stall_end >= 0 in
          (Time_ns.diff w0 change_start, aurora, baseline))
    in
    let fraction f =
      float_of_int (List.length (List.filter f availability))
      /. float_of_int n_windows
    in
    let online_write_available =
      Obs.Health.write_available_fraction (Obs.Ctx.health (Cluster.obs cluster))
    in
    let lost = lost_keys ~sim ~db gen in
    (* --- revert run: suspect comes back, change is reversed --- *)
    let cluster2 = Cluster.create { cfg with seed = seed + 100 } in
    let sim2 = Cluster.sim cluster2 in
    let db2 = Cluster.db cluster2 in
    let txn = Database.begin_txn db2 in
    Database.put db2 ~txn ~key:"k" ~value:"v";
    Database.commit db2 ~txn (fun _ -> ());
    Sim.run_until sim2 (Time_ns.ms 500);
    let revert_worked =
      match Cluster.start_replacement cluster2 pg ~suspect with
      | Error _ -> false
      | Ok _ -> (
        Sim.run_until sim2 (Time_ns.sec 1);
        match Cluster.revert_replacement cluster2 pg ~suspect with
        | Error _ -> false
        | Ok () ->
          Sim.run_until sim2 (Time_ns.sec 2);
          (* Writes must still work with the original roster. *)
          let ok = ref false in
          let txn = Database.begin_txn db2 in
          Database.put db2 ~txn ~key:"k2" ~value:"v2";
          Database.commit db2 ~txn (fun r -> ok := r = Ok ());
          Sim.run_until sim2 (Time_ns.add (Sim.now sim2) (Time_ns.sec 2));
          !ok)
    in
    let r =
      Report.create ~title:"E5 (Figure 5): membership change under write load"
        ~columns:[ "metric"; "value" ]
    in
    Report.row r
      [
        "membership epochs (steady -> dual -> final)";
        String.concat " -> " (List.map string_of_int [ e0; e1; e2 ]);
      ];
    Report.row r
      [
        "commits acked during change";
        string_of_int (Workload.Txn_gen.acked gen - acked_before);
      ];
    Report.row r [ "max commit-ack gap during change"; Report.time max_gap ];
    Report.row r
      [ "stop-the-world baseline stall (= hydration)"; Report.time hydration_time ];
    Report.row r [ "replacement hydrated"; string_of_bool (!caught_up_at <> None) ];
    Report.row r [ "revert path works"; string_of_bool revert_worked ];
    Report.require r ~ok:(lost = 0) [ "acked commits lost"; string_of_int lost ];
    Report.row r
      [
        "write-available windows (aurora)";
        Report.pct (fraction (fun (_, a, _) -> a));
      ];
    Report.row r
      [
        "write-available windows (blocking baseline)";
        Report.pct (fraction (fun (_, _, b) -> b));
      ];
    Report.row r
      [
        "write-available time (online health monitor)";
        Report.pct online_write_available;
      ];
    Report.note r
      "expected shape: commit gap << stop-the-world stall; epochs increment \
       by 1 per transition; zero loss";
    let sub =
      Report.create
        ~title:
          (Printf.sprintf "availability over the change (%s windows)"
             (Report.time window))
        ~columns:[ "t after change start"; "aurora"; "blocking baseline" ]
    in
    List.iter
      (fun (off, aurora, baseline) ->
        let mark b = if b then "up" else "DOWN" in
        Report.row sub [ Report.time off; mark aurora; mark baseline ])
      availability;
    Report.add_subtable r sub;
    r
end

(* ------------------------------------------------------------------ *)
(* E6: commit protocols                                                *)
(* ------------------------------------------------------------------ *)

module E6 = struct
  (* One protocol's row: commit latency percentiles and messages per
     commit. *)
  let row ~proto ~commits ~latency ~messages =
    let pctl p = Report.ns (float_of_int (Histogram.percentile latency p)) in
    [
      proto;
      string_of_int commits;
      pctl 50.;
      pctl 99.;
      pctl 99.9;
      Report.f2 (float_of_int messages /. float_of_int (max 1 commits));
    ]

  (* Shared link model: six storage-side nodes spread 2-per-AZ, client in
     AZ1, lognormal inter/intra-AZ latencies as in Cluster.default_config. *)
  let az_spread_latency ~intra ~inter az_of a b =
    match (az_of a, az_of b) with
    | Some x, Some y when Int.equal x y -> Some intra
    | _ -> Some inter

  (* Aurora's row, plus its per-stage commit-path latencies
     ([commit_stage_ns] histograms from the cluster's observability
     registry) keyed by ["a→b"] stage-pair label. *)
  let run_aurora ~seed ~commits =
    let cfg =
      {
        Cluster.default_config with
        seed;
        n_pgs = 1;
        storage_config =
          (* Quiet background so message counts isolate the commit path. *)
          {
            Storage.Storage_node.gossip_interval = Time_ns.hours 10;
            backup_interval = Time_ns.hours 10;
            gc_interval = Time_ns.hours 10;
            scrub_interval = Time_ns.hours 10;
            coalesce_interval = Time_ns.hours 10;
          };
        db_config =
          {
            Database.default_config with
            replication_interval = Time_ns.hours 10;
            pgmrpl_interval = Time_ns.hours 10;
          };
      }
    in
    let cluster = Cluster.create cfg in
    let sim = Cluster.sim cluster in
    let db = Cluster.db cluster in
    Sim.run_until sim (Time_ns.ms 10);
    Simnet.Net.reset_stats (Cluster.net cluster);
    let hist = Histogram.create () in
    let done_ = ref 0 in
    let rec one i =
      if i < commits then begin
        let txn = Database.begin_txn db in
        Database.put db ~txn ~key:(Printf.sprintf "k%d" i) ~value:"v";
        let started = Sim.now sim in
        Database.commit db ~txn (fun _ ->
            Histogram.record_span hist started (Sim.now sim);
            incr done_;
            one (i + 1))
      end
    in
    one 0;
    Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.sec 120));
    let st = Simnet.Net.stats (Cluster.net cluster) in
    let stages =
      List.map
        (fun (labels, h) ->
          let stage =
            match List.assoc_opt "stage" labels with
            | Some s -> s
            | None -> "?"
          in
          (stage, h))
        (Obs.Registry.find_histograms
           (Obs.Ctx.registry (Cluster.obs cluster))
           "commit_stage_ns")
    in
    ( row ~proto:"aurora 4/6 quorum ack" ~commits:!done_ ~latency:hist
        ~messages:st.Simnet.Net.sent,
      stages )

  let make_net ~seed ~n_nodes =
    let sim = Sim.create () in
    let rng = Rng.create seed in
    let az_of = Hashtbl.create 16 in
    (* client at addr 0 in AZ0; nodes 1..n spread round-robin *)
    Hashtbl.replace az_of 0 0;
    for i = 1 to n_nodes do
      Hashtbl.replace az_of i ((i - 1) mod 3)
    done;
    let net =
      Simnet.Net.create ~sim ~rng:(Rng.split rng)
        ~default_latency:Cluster.default_config.Cluster.inter_az_latency ()
    in
    Simnet.Net.set_latency_fn net
      (az_spread_latency
         ~intra:Cluster.default_config.Cluster.intra_az_latency
         ~inter:Cluster.default_config.Cluster.inter_az_latency
         (fun a -> Hashtbl.find_opt az_of (Simnet.Addr.to_int a)));
    (sim, rng, net)

  let run_2pc ~seed ~commits =
    let sim, rng, net = make_net ~seed ~n_nodes:6 in
    let config =
      {
        Baselines.Two_phase_commit.participants = List.init 6 (fun i -> Simnet.Addr.of_int (i + 1));
        coordinator = Simnet.Addr.of_int 0;
        log_force = Storage.Storage_node.disk_service;
        prepare_vote_abort_probability = 0.;
      }
    in
    let tpc = Baselines.Two_phase_commit.create ~sim ~rng ~net ~config () in
    let done_ = ref 0 in
    let rec one i =
      if i < commits then
        Baselines.Two_phase_commit.commit tpc ~on_done:(fun _ ->
            incr done_;
            one (i + 1))
    in
    one 0;
    Sim.run_until sim (Time_ns.sec 600);
    let st = Baselines.Two_phase_commit.stats tpc in
    row ~proto:"2PC (6 participants)" ~commits:!done_ ~latency:st.latency
      ~messages:st.Baselines.Two_phase_commit.messages

  let run_paxos ~seed ~commits =
    let sim, rng, net = make_net ~seed ~n_nodes:6 in
    let config =
      {
        Baselines.Paxos_commit.leader = Simnet.Addr.of_int 0;
        acceptors = List.init 6 (fun i -> Simnet.Addr.of_int (i + 1));
        log_force = Storage.Storage_node.disk_service;
      }
    in
    let px = Baselines.Paxos_commit.create ~sim ~rng ~net ~config () in
    let done_ = ref 0 in
    let rec one i =
      if i < commits then
        Baselines.Paxos_commit.commit px ~value:i ~on_done:(fun () ->
            incr done_;
            one (i + 1))
    in
    one 0;
    Sim.run_until sim (Time_ns.sec 600);
    let st = Baselines.Paxos_commit.stats px in
    row ~proto:"Paxos commit (6 acceptors)" ~commits:!done_ ~latency:st.latency
      ~messages:st.Baselines.Paxos_commit.messages

  let run ~seed =
    let commits = 2000 in
    let aurora, stages = run_aurora ~seed ~commits in
    let r =
      Report.create
        ~title:"E6 (\xc2\xa71/\xc2\xa72.3): commit latency and message cost"
        ~columns:[ "protocol"; "commits"; "p50"; "p99"; "p99.9"; "msgs/commit" ]
    in
    Report.row r aurora;
    Report.row r (run_paxos ~seed:(seed + 1) ~commits);
    Report.row r (run_2pc ~seed:(seed + 2) ~commits);
    Report.note r
      "expected shape: aurora <= paxos < 2pc in latency (2PC pays two \
       sequential round trips + forces); tails ordered the same way";
    (if stages <> [] then begin
       let sub =
         Report.create ~title:"aurora commit-path stage breakdown"
           ~columns:[ "stage"; "count"; "mean"; "p50"; "p99"; "max" ]
       in
       List.iter
         (fun (stage, h) ->
           Report.row sub
             [
               stage;
               string_of_int (Histogram.count h);
               Report.ns (Histogram.mean h);
               Report.ns (float_of_int (Histogram.percentile h 50.));
               Report.ns (float_of_int (Histogram.percentile h 99.));
               Report.ns (float_of_int (Histogram.max_value h));
             ])
         stages;
       Report.note sub
         "adjacent stage-pair latencies of the write path (\xc2\xa72.2): the \
          wait between quorum ack and VCL coverage dominates commit cost";
       Report.add_subtable r sub
     end);
    r
end

(* ------------------------------------------------------------------ *)
(* E7: boxcar policies                                                 *)
(* ------------------------------------------------------------------ *)

module E7 = struct
  let policies =
    [
      ("no batching", Boxcar.Immediate);
      ("aurora first-record", Boxcar.First_record (Time_ns.us 20));
      ( "timeout boxcar 2ms/16",
        Boxcar.Timeout_boxcar { timeout = Time_ns.ms 2; max_records = 16 } );
    ]

  let one ~seed ~policy_name ~policy ~rate =
    let cfg =
      {
        Cluster.default_config with
        seed;
        n_pgs = 1;
        db_config = { Database.default_config with boxcar = policy };
      }
    in
    let cluster = Cluster.create cfg in
    let sim = Cluster.sim cluster in
    let db = Cluster.db cluster in
    let gen =
      Workload.Txn_gen.create ~sim ~rng:(Rng.create (seed + 5)) ~db
        ~profile:
          {
            Workload.Txn_gen.default_profile with
            ops_per_txn = 1;
            write_fraction = 1.;
          }
        ()
    in
    Workload.Txn_gen.run_open_loop gen ~rate_per_sec:rate
      ~duration:(Time_ns.sec 4);
    Sim.run_until sim (Time_ns.sec 6);
    let h = Workload.Txn_gen.commit_latency gen in
    let p50 = float_of_int (Histogram.percentile h 50.) in
    let p99 = float_of_int (Histogram.percentile h 99.) in
    [
      policy_name;
      Printf.sprintf "%.0f" rate;
      Report.ns p50;
      Report.ns p99;
      Report.ns (p99 -. p50);
      Report.f2 (Database.mean_batch_size db);
    ]

  let run ~seed =
    let r =
      Report.create ~title:"E7 (\xc2\xa72.2): write batching policies"
        ~columns:[ "policy"; "rate/s"; "p50"; "p99"; "jitter(p99-p50)"; "recs/batch" ]
    in
    List.iter
      (fun (name, policy) ->
        List.iteri
          (fun i rate ->
            Report.row r (one ~seed:(seed + i) ~policy_name:name ~policy ~rate))
          [ 100.; 2000.; 20000. ])
      policies;
    Report.note r
      "expected shape: timeout boxcar pays the full timer at low load and \
       mixed fill-vs-timeout jitter at higher load; aurora's \
       submit-on-first-record matches unbatched latency while packing \
       records as load grows";
    r
end

(* ------------------------------------------------------------------ *)
(* E8: read strategies                                                 *)
(* ------------------------------------------------------------------ *)

module E8 = struct
  let heavy_tail base =
    Distribution.mixture [ (0.97, base); (0.03, Distribution.scaled 10. base) ]

  let strategies =
    [
      ( "direct tracked",
        Reader.Direct_tracked { hedge_after = None; explore_probability = 0.05 } );
      ( "direct + hedge 2ms",
        Reader.Direct_tracked
          { hedge_after = Some (Time_ns.ms 2); explore_probability = 0.05 } );
      ("quorum read 3/6", Reader.Quorum_read { read_threshold = 3 });
    ]

  (* The writer's read metrics after [reads] sequential reads.  [slow]
     makes the fleet heavy-tailed: every node occasionally stalls
     (transient slowness no latency tracker can predict). *)
  let one ~seed ~strategy ~slow ~reads =
    let cfg =
      {
        Cluster.default_config with
        seed;
        n_pgs = 1;
        intra_az_latency =
          (if slow then heavy_tail Cluster.default_config.Cluster.intra_az_latency
           else Cluster.default_config.Cluster.intra_az_latency);
        inter_az_latency =
          (if slow then heavy_tail Cluster.default_config.Cluster.inter_az_latency
           else Cluster.default_config.Cluster.inter_az_latency);
        db_config =
          {
            Database.default_config with
            read_strategy = strategy;
            cache_capacity = 1 (* force storage reads *);
            n_blocks = 64;
          };
      }
    in
    let cluster = Cluster.create cfg in
    let sim = Cluster.sim cluster in
    let db = Cluster.db cluster in
    (* Prefill. *)
    let keys = List.init 256 (fun i -> Printf.sprintf "key-%04d" i) in
    let txn = Database.begin_txn db in
    List.iter (fun k -> Database.put db ~txn ~key:k ~value:("val-" ^ k)) keys;
    Database.commit db ~txn (fun _ -> ());
    Sim.run_until sim (Time_ns.sec 2);
    let rng = Rng.create (seed + 9) in
    let key_arr = Array.of_list keys in
    let rec one_read i =
      if i < reads then
        Database.get db ~key:(Rng.pick rng key_arr) (fun _ -> one_read (i + 1))
    in
    one_read 0;
    Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.sec 300));
    Reader.metrics (Database.reader db)

  let ios_per_read (m : Reader.metrics) =
    Report.f2 (float_of_int m.ios_issued /. float_of_int (max 1 m.reads))

  let latency (m : Reader.metrics) p =
    Report.ns (float_of_int (Histogram.percentile m.latency p))

  let run ~seed =
    let reads = 2000 in
    let r =
      Report.create ~title:"E8 (\xc2\xa73.1): read strategies"
        ~columns:[ "strategy"; "heavy tail?"; "reads"; "IOs/read"; "p50"; "p99" ]
    in
    List.iter
      (fun (name, strategy) ->
        List.iter
          (fun (seed, slow) ->
            let m = one ~seed ~strategy ~slow ~reads in
            Report.row r
              [
                name;
                string_of_bool slow;
                string_of_int m.reads;
                ios_per_read m;
                latency m 50.;
                latency m 99.;
              ])
          [ (seed, false); (seed + 1, true) ])
      strategies;
    Report.note r
      "expected shape: direct reads cost ~1/3 the IOs of quorum reads; \
       under transient node stalls, hedging caps p99 far below unhedged \
       direct reads (persistent slowness is already dodged by the latency \
       tracker)";
    r
end

(* ------------------------------------------------------------------ *)
(* E9: replicas                                                        *)
(* ------------------------------------------------------------------ *)

module E9 = struct
  let run ~seed =
    let cfg = { Cluster.default_config with seed; n_pgs = 2 } in
    let cluster = Cluster.create cfg in
    let sim = Cluster.sim cluster in
    let db = Cluster.db cluster in
    let replica = Cluster.add_replica cluster in
    let gen =
      Workload.Txn_gen.create ~sim ~rng:(Rng.create (seed + 17)) ~db
        ~profile:{ Workload.Txn_gen.default_profile with write_fraction = 0.75 }
        ()
    in
    Workload.Txn_gen.run_closed_loop gen ~clients:8
      ~think_time:(Distribution.constant (Time_ns.ms 1))
      ~duration:(Time_ns.sec 5);
    (* Concurrent replica readers: warm the replica cache so the stream's
       apply-to-cached-blocks path (§3.2) is exercised. *)
    let rrng = Rng.create (seed + 19) in
    let zipf = Workload.Zipf.create ~n:2000 ~theta:0.9 in
    Sim.every sim ~interval:(Time_ns.ms 2) (fun () ->
        if Time_ns.compare (Sim.now sim) (Time_ns.sec 5) < 0 then begin
          let key = Printf.sprintf "key-%06d" (Workload.Zipf.sample zipf rrng) in
          Replica.get replica ~key (fun _ -> ());
          true
        end
        else false);
    Sim.run_until sim (Time_ns.sec 6);
    (* Replica reads: the first 200 acked keys in key order must return
       *some* value that was written to them (the replica serves a
       consistent, possibly lagging snapshot). *)
    let written =
      List.fold_left
        (fun written (a : Workload.Txn_gen.acked) ->
          List.fold_left
            (fun written (k, v) ->
              String_map.update k
                (fun l -> Some (v :: Option.value l ~default:[]))
                written)
            written a.keys_written)
        String_map.empty
        (Workload.Txn_gen.acked_writes gen)
    in
    let ok = ref 0 and wrong = ref 0 in
    let sample = ref 0 in
    String_map.iter
      (fun key values ->
        if !sample < 200 then begin
          incr sample;
          Replica.get replica ~key (fun result ->
              match result with
              | Ok (Some v) when List.exists (String.equal v) values -> incr ok
              | Ok None | Ok (Some _) | Error _ -> incr wrong)
        end)
      written;
    Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.sec 10));
    let m = Replica.metrics replica in
    let lag = m.Replica.stream_lag in
    (* Lag-over-time from the cluster's sampler: the per-window p99 of the
       replica's stream-lag histogram, captured before the writer dies.
       Windows with no stream chunks are omitted. *)
    let series = Obs.Ctx.series (Cluster.obs cluster) in
    let lag_label =
      Printf.sprintf "replica_stream_lag_ns{node=%d}.p99"
        (Simnet.Addr.to_int (Replica.addr replica))
    in
    let lag_timeline =
      match Obs.Series.points series lag_label with
      | None -> []
      | Some pts ->
        let ts = Obs.Series.timestamps series in
        List.filter_map
          (fun i ->
            if Float.is_nan pts.(i) then None else Some (ts.(i), pts.(i)))
          (List.init (Array.length ts) Fun.id)
    in
    (* Writer dies; replica takes over. *)
    Database.crash db;
    Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.ms 100));
    let promoted = ref None in
    Replica.promote replica ~config:cfg.Cluster.db_config (fun r ->
        promoted := Some r);
    Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.sec 60));
    let new_db =
      match !promoted with
      | Some (Ok (db, _)) -> Some db
      | Some (Error _) | None -> None
    in
    let lost =
      match new_db with
      | None -> max_int
      | Some db -> lost_keys ~sim ~db gen
    in
    let r =
      Report.create ~title:"E9 (\xc2\xa73.2-3.4): read replicas and promotion"
        ~columns:[ "metric"; "value" ]
    in
    let pctl p = Report.ns (float_of_int (Histogram.percentile lag p)) in
    Report.row r [ "stream lag p50"; pctl 50. ];
    Report.row r [ "stream lag p99"; pctl 99. ];
    Report.row r
      [ "records applied to cached blocks"; string_of_int m.Replica.records_applied ];
    Report.row r
      [ "records skipped (uncached)"; string_of_int m.Replica.records_skipped ];
    Report.require r ~ok:(!wrong = 0)
      [
        "replica reads consistent";
        Printf.sprintf "%d ok / %d wrong" !ok !wrong;
      ];
    Report.row r [ "promotion succeeded"; string_of_bool (new_db <> None) ];
    Report.row r
      [ "acked commits before crash"; string_of_int (Workload.Txn_gen.acked gen) ];
    Report.require r ~ok:(lost = 0)
      [ "acked commits lost after promotion"; string_of_int lost ];
    Report.row r
      [
        "max windowed lag p99";
        Report.ns (List.fold_left (fun acc (_, v) -> Float.max acc v) 0. lag_timeline);
      ];
    Report.note r
      "expected shape: millisecond-scale lag; zero acked commits lost on \
       promotion (shared durable storage)";
    (* Down-sample the timeline to <= 12 evenly spaced rows. *)
    let sub =
      Report.create ~title:"replica stream lag over time (per-window p99)"
        ~columns:[ "t"; "lag p99" ]
    in
    let n = List.length lag_timeline in
    let step = max 1 (n / 12) in
    List.iteri
      (fun i (at, v) ->
        if i mod step = 0 || i = n - 1 then
          Report.row sub [ Report.time at; Report.ns v ])
      lag_timeline;
    Report.add_subtable r sub;
    r
end

(* ------------------------------------------------------------------ *)
(* E10: tiered quorum sets                                             *)
(* ------------------------------------------------------------------ *)

module E10 = struct
  let storage_bytes cluster =
    List.fold_left
      (fun acc node ->
        List.fold_left
          (fun acc seg -> acc + Storage.Segment.bytes_stored seg)
          acc
          (Storage.Storage_node.segments node))
      0
      (Cluster.storage_nodes cluster)

  let one ~seed ~layout ~txns =
    let cfg = { Cluster.default_config with seed; n_pgs = 1; layout } in
    let cluster = Cluster.create cfg in
    let sim = Cluster.sim cluster in
    let db = Cluster.db cluster in
    let gen =
      Workload.Txn_gen.create ~sim ~rng:(Rng.create (seed + 23)) ~db
        ~profile:
          {
            Workload.Txn_gen.default_profile with
            ops_per_txn = 4;
            write_fraction = 1.;
            value_size = 256;
          }
        ()
    in
    Workload.Txn_gen.run_open_loop gen ~rate_per_sec:2000.
      ~duration:(Time_ns.us (txns * 500));
    (* Let coalescing and GC settle so bytes reflect steady state. *)
    Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.sec 20));
    storage_bytes cluster

  let run ~seed =
    let txns = 2000 in
    let v6_bytes = one ~seed ~layout:Layout.V6 ~txns in
    let tiered_bytes = one ~seed:(seed + 1) ~layout:Layout.Tiered ~txns in
    (* Write-unavail, read-unavail and AZ write-survival cells. *)
    let avail layout =
      let g = Layout.membership layout in
      let mc =
        Availability.Fleet_model.run ~rng:(Rng.create (seed + 2))
          ~params:
            {
              Availability.Fleet_model.default_params with
              Availability.Fleet_model.groups = 2000;
            }
          ~members:(Membership.members g) ~rule:(Membership.rule g)
      in
      [
        Report.pct mc.write_unavail;
        Report.pct mc.read_unavail;
        Report.pct
          (if mc.az_onsets = 0 then 1.
           else float_of_int mc.az_write_survived /. float_of_int mc.az_onsets);
      ]
    in
    let r =
      Report.create ~title:"E10 (\xc2\xa74.2): tiered quorum sets vs six full copies"
        ~columns:
          [
            "design";
            "storage bytes";
            "ratio vs 6-full";
            "write-unavail";
            "read-unavail";
            "AZ write-survival";
          ]
    in
    Report.row r
      ([ "6 full segments (4/6, 3/6)"; string_of_int v6_bytes; Report.f2 1. ]
      @ avail Layout.V6);
    Report.row r
      ([
         "3 full + 3 tail (\xc2\xa74.2)";
         string_of_int tiered_bytes;
         Report.f2 (float_of_int tiered_bytes /. float_of_int (max 1 v6_bytes));
       ]
      @ avail Layout.Tiered);
    Report.note r
      "expected shape: tiered stores roughly half the bytes (data blocks \
       only on fulls) while keeping AZ+1 availability";
    r
end

(* ------------------------------------------------------------------ *)
(* Ablations: design-choice sweeps called out in DESIGN.md              *)
(* ------------------------------------------------------------------ *)

(* A1: hedge threshold — too low wastes IOs, too high stops capping the
   tail (§3.1's "if a request is taking longer than expected"). *)
module A1 = struct
  let run ~seed =
    let r =
      Report.create ~title:"A1 (ablation): hedge threshold under heavy tails"
        ~columns:[ "hedge after"; "IOs/read"; "p99" ]
    in
    List.iter
      (fun hedge ->
        let strategy =
          Reader.Direct_tracked { hedge_after = hedge; explore_probability = 0.05 }
        in
        let m = E8.one ~seed ~strategy ~slow:true ~reads:1000 in
        Report.row r
          [
            (match hedge with None -> "never" | Some h -> Report.time h);
            E8.ios_per_read m;
            E8.latency m 99.;
          ])
      [ None; Some (Time_ns.ms 8); Some (Time_ns.ms 2); Some (Time_ns.us 700) ];
    Report.note r
      "expected shape: lower thresholds trade extra IOs for a tighter p99;        'never' has the worst tail at the lowest cost";
    r
end

(* A2: gossip cadence vs hole-repair time — background repair bandwidth
   is what lets the write path tolerate loss silently (Figure 2). *)
module A2 = struct
  (* One interval's row: the gossip-only heal time, and whether explicit
     hydration (the repair path) closed the hole when gossip lost the race
     against hot-log GC. *)
  let one ~seed interval =
    let cfg =
      {
        Cluster.default_config with
        seed;
        n_pgs = 1;
        storage_config =
          {
            Storage.Storage_node.default_config with
            Storage.Storage_node.gossip_interval = interval;
          };
      }
    in
    let cluster = Cluster.create cfg in
    let sim = Cluster.sim cluster in
    let db = Cluster.db cluster in
    (* Write 300 txns while one segment is down: it misses everything. *)
    let victim = Member_id.of_int 5 in
    Cluster.crash_storage_node cluster (Pg_id.of_int 0) victim;
    let txn = ref (Database.begin_txn db) in
    for i = 1 to 300 do
      Database.put db ~txn:!txn ~key:(Printf.sprintf "g%d" i) ~value:"v";
      if i mod 10 = 0 then begin
        Database.commit db ~txn:!txn (fun _ -> ());
        txn := Database.begin_txn db
      end
    done;
    Database.commit db ~txn:!txn (fun _ -> ());
    Sim.run_until sim (Time_ns.sec 1);
    (* Victim restarts with a large hole; measure time until its SCL
       catches the group's durable point (gossip-only repair). *)
    Cluster.restart_storage_node cluster (Pg_id.of_int 0) victim;
    let restarted_at = Sim.now sim in
    let target = Consistency.pgcl (Database.consistency db) (Pg_id.of_int 0) in
    let healed_at = ref None in
    let seg () =
      match Cluster.node_of_member cluster (Pg_id.of_int 0) victim with
      | Some node -> Storage.Storage_node.segment node (Pg_id.of_int 0)
      | None -> None
    in
    Sim.every sim ~interval:(Time_ns.ms 10) (fun () ->
        match (!healed_at, seg ()) with
        | None, Some s when Wal.Lsn.(Storage.Segment.scl s >= target) ->
          healed_at := Some (Sim.now sim);
          false
        | None, _ -> Time_ns.compare (Sim.now sim) (Time_ns.sec 10) < 0
        | Some _, _ -> false);
    Sim.run_until sim (Time_ns.sec 11);
    (* If gossip lost the race against hot-log GC (peers no longer
       retain the records), fall back to explicit hydration — the
       repair path a real fleet uses. *)
    let hydration_healed =
      match !healed_at with
      | Some _ -> true
      | None -> (
        match Cluster.node_of_member cluster (Pg_id.of_int 0) victim with
        | None -> false
        | Some node ->
          let donor =
            List.find_opt
              (fun (mid, _) -> not (Member_id.equal mid victim))
              (Aurora_core.Volume.roster
                 (Aurora_core.Volume.find_pg (Database.volume db)
                    (Pg_id.of_int 0)))
          in
          (match donor with
          | Some (_, addr) ->
            Storage.Storage_node.request_hydration node
              ~pg:(Pg_id.of_int 0) ~from:addr
          | None -> ());
          Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.sec 2));
          (match seg () with
          | Some s -> Wal.Lsn.(Storage.Segment.scl s >= target)
          | None -> false))
    in
    [
      Report.time interval;
      (match !healed_at with
      | Some at -> Report.time (Time_ns.diff at restarted_at)
      | None -> "lost race vs hot-log GC");
      string_of_bool hydration_healed;
    ]

  let run ~seed =
    let r =
      Report.create ~title:"A2 (ablation): gossip cadence vs hole repair"
        ~columns:
          [ "gossip interval"; "gossip-only heal"; "hydration fallback heals" ]
    in
    List.iter
      (fun interval -> Report.row r (one ~seed interval))
      [ Time_ns.ms 20; Time_ns.ms 100; Time_ns.ms 500; Time_ns.sec 2 ];
    Report.note r
      "expected shape: fast gossip heals in about one period; slow gossip \
       loses the race against hot-log GC (peers no longer retain the \
       records), after which only bulk hydration repairs the segment -- \
       which is exactly why the design has both mechanisms";
    r
end

type experiment = { id : string; seed_offset : int; run : seed:int -> Report.t }

let all =
  [
    { id = "e1"; seed_offset = 0; run = E1.run };
    { id = "e2"; seed_offset = 1; run = (fun ~seed -> E2.report (E2.run ~seed)) };
    { id = "e3"; seed_offset = 0; run = E3.run };
    { id = "e4"; seed_offset = 2; run = E4.run };
    { id = "e5"; seed_offset = 3; run = E5.run };
    { id = "e6"; seed_offset = 4; run = E6.run };
    { id = "e7"; seed_offset = 5; run = E7.run };
    { id = "e8"; seed_offset = 6; run = E8.run };
    { id = "e9"; seed_offset = 7; run = E9.run };
    { id = "e10"; seed_offset = 8; run = E10.run };
    { id = "a1"; seed_offset = 9; run = A1.run };
    { id = "a2"; seed_offset = 10; run = A2.run };
  ]
