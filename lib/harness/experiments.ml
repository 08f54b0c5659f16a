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

let scheme_rule = function
  | Cluster.V6 ->
    let members = Layout.aurora_v6 () in
    (members, Membership.rule (Membership.create ~scheme:Layout.scheme_4_of_6 members))
  | Cluster.Tiered ->
    let members = Layout.aurora_tiered () in
    (members, Membership.rule (Membership.create ~scheme:Layout.scheme_tiered members))
  | Cluster.V3 ->
    let members = Layout.three_copies () in
    (members, Membership.rule (Membership.create ~scheme:Layout.scheme_2_of_3 members))

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
  type scheme_result = {
    name : string;
    mc : Availability.Fleet_model.result;
    an : Availability.Fleet_model.analytic;
    tol : Availability.Fleet_model.az_tolerance;
    az_write_loss : float;  (* P(write loss | AZ outage), analytic *)
    az_read_loss : float;
  }

  type t = scheme_result list

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

  let run ?(seed = 1) () =
    let params = harsh_params in
    let schemes =
      [
        ("2/3 across 3 AZs", Cluster.V3);
        ("4/6 across 3 AZs", Cluster.V6);
        ("tiered 3f+3t", Cluster.Tiered);
      ]
    in
    List.map
      (fun (name, layout) ->
        let members, rule = scheme_rule layout in
        let rng = Rng.create seed in
        let mc = Availability.Fleet_model.run ~rng ~params ~members ~rule in
        let an = Availability.Fleet_model.analytic ~params ~members ~rule in
        let tol = Availability.Fleet_model.az_tolerance ~members ~rule in
        let az_write_loss, az_read_loss =
          Availability.Fleet_model.analytic_given_az ~params ~members ~rule
        in
        { name; mc; an; tol; az_write_loss; az_read_loss })
      schemes

  let yn b = if b then "yes" else "NO"

  let report t =
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
      (fun s ->
        let mc = s.mc in
        Report.row r
          [
            s.name;
            Printf.sprintf "%s/%s" (yn s.tol.read_survives_az)
              (yn s.tol.write_survives_az);
            yn s.tol.read_survives_az_plus_one;
            Printf.sprintf "%.2e" s.az_read_loss;
            Report.pct mc.write_unavail;
            (if mc.az_onsets = 0 then "n/a"
             else
               Report.pct
                 (float_of_int mc.az_read_survived /. float_of_int mc.az_onsets));
          ])
      t;
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
    drop_probability : float;
    gossip_filled : int;
    final_scl_lag : int;
    coalesced_versions : int;
    backups : int;
    hot_log_gced : int;
    scrub_found : int;
    corruptions_injected : int;
    scrub_repaired : int;
  }

  let run ?(seed = 7) () =
    let txns = 400 and drop = 0.05 in
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
      drop_probability = drop;
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
        Printf.sprintf "write batches stored (drop=%.0f%%)"
          (100. *. t.drop_probability);
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
  type t = {
    pg1_pgcl : int;
    pg2_pgcl : int;
    vcl : int;
    expected : int * int * int;
  }

  let run () =
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
    {
      pg1_pgcl = Lsn.to_int (Consistency.pgcl c pg1);
      pg2_pgcl = Lsn.to_int (Consistency.pgcl c pg2);
      vcl = Lsn.to_int (Consistency.vcl c);
      expected = (103, 104, 104);
    }

  let report t =
    let r =
      Report.create ~title:"E3 (Figure 3): storage consistency points"
        ~columns:[ "point"; "computed"; "paper" ]
    in
    let e1, e2, e3 = t.expected in
    Report.row r [ "PGCL(PG1)"; string_of_int t.pg1_pgcl; string_of_int e1 ];
    Report.row r [ "PGCL(PG2)"; string_of_int t.pg2_pgcl; string_of_int e2 ];
    Report.row r [ "VCL"; string_of_int t.vcl; string_of_int e3 ];
    r
end

(* ------------------------------------------------------------------ *)
(* E4: Figure 4 / §2.4 — recovery time vs backlog                      *)
(* ------------------------------------------------------------------ *)

module E4 = struct
  type point = {
    txns_since_checkpoint : int;
    log_bytes : int;
    aurora_recovery : Time_ns.t;
    aurora_vcl : int;
    acked_commits : int;
    lost_acked_commits : int;
    aries_recovery : Time_ns.t;
  }

  type t = point list

  let one_point ~seed ~txns =
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
    {
      txns_since_checkpoint = txns;
      log_bytes;
      aurora_recovery = o.Aurora_core.Recovery.duration;
      aurora_vcl = Lsn.to_int o.Aurora_core.Recovery.vcl;
      acked_commits = Workload.Txn_gen.acked gen;
      lost_acked_commits = lost;
      aries_recovery = aries.Baselines.Aries.total;
    }

  let run ?(seed = 11) () =
    let sweep = [ 200; 1000; 5000; 20000 ] in
    List.mapi (fun i txns -> one_point ~seed:(seed + i) ~txns) sweep

  let report t =
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
    List.iter
      (fun p ->
        Report.row r
          [
            string_of_int p.txns_since_checkpoint;
            string_of_int p.log_bytes;
            Report.time p.aurora_recovery;
            Report.time p.aries_recovery;
            string_of_int p.acked_commits;
            string_of_int p.lost_acked_commits;
          ])
      t;
    Report.note r
      "expected shape: Aurora roughly flat in backlog (quorum poll + \
       truncation), ARIES linear; zero acked commits lost";
    r
end

(* ------------------------------------------------------------------ *)
(* E5: Figure 5 — membership change under load                         *)
(* ------------------------------------------------------------------ *)

module E5 = struct
  type t = {
    epochs_seen : int list;
    commits_during_change : int;
    max_commit_gap : Time_ns.t;
    baseline_stall : Time_ns.t;
    hydration_time : Time_ns.t;
    replacement_caught_up : bool;
    revert_worked : bool;
    lost_acked_commits : int;
    availability_window : Time_ns.t;
    availability : (Time_ns.t * bool * bool) list;
        (* (offset from change start, aurora write-available,
           blocking-baseline write-available) per window *)
    aurora_window_fraction : float;
    baseline_window_fraction : float;
    online_write_available : float; (* Obs.Health accumulator, whole run *)
  }

  let membership_epoch cluster pg =
    Membership.epoch
      (Aurora_core.Volume.find_pg
         (Database.volume (Cluster.db cluster))
         pg)
        .Aurora_core.Volume.membership
    |> Epoch.to_int

  let run ?(seed = 21) () =
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
       for the whole hydration. *)
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
    let aurora_window_fraction = fraction (fun (_, a, _) -> a) in
    let baseline_window_fraction = fraction (fun (_, _, b) -> b) in
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
    {
      epochs_seen = [ e0; e1; e2 ];
      commits_during_change = Workload.Txn_gen.acked gen - acked_before;
      max_commit_gap = max_gap;
      baseline_stall = hydration_time;
      hydration_time;
      replacement_caught_up = !caught_up_at <> None;
      revert_worked;
      lost_acked_commits = lost;
      availability_window = window;
      availability;
      aurora_window_fraction;
      baseline_window_fraction;
      online_write_available;
    }

  let report t =
    let r =
      Report.create ~title:"E5 (Figure 5): membership change under write load"
        ~columns:[ "metric"; "value" ]
    in
    Report.row r
      [
        "membership epochs (steady -> dual -> final)";
        String.concat " -> " (List.map string_of_int t.epochs_seen);
      ];
    Report.row r
      [ "commits acked during change"; string_of_int t.commits_during_change ];
    Report.row r [ "max commit-ack gap during change"; Report.time t.max_commit_gap ];
    Report.row r
      [
        "stop-the-world baseline stall (= hydration)";
        Report.time t.baseline_stall;
      ];
    Report.row r [ "replacement hydrated"; string_of_bool t.replacement_caught_up ];
    Report.row r [ "revert path works"; string_of_bool t.revert_worked ];
    Report.row r [ "acked commits lost"; string_of_int t.lost_acked_commits ];
    Report.row r
      [
        "write-available windows (aurora)"; Report.pct t.aurora_window_fraction;
      ];
    Report.row r
      [
        "write-available windows (blocking baseline)";
        Report.pct t.baseline_window_fraction;
      ];
    Report.row r
      [
        "write-available time (online health monitor)";
        Report.pct t.online_write_available;
      ];
    Report.note r
      "expected shape: commit gap << stop-the-world stall; epochs increment \
       by 1 per transition; zero loss";
    let sub =
      Report.create
        ~title:
          (Printf.sprintf "availability over the change (%s windows)"
             (Report.time t.availability_window))
        ~columns:[ "t after change start"; "aurora"; "blocking baseline" ]
    in
    List.iter
      (fun (off, aurora, baseline) ->
        let mark b = if b then "up" else "DOWN" in
        Report.row sub [ Report.time off; mark aurora; mark baseline ])
      t.availability;
    Report.add_subtable r sub;
    r
end

(* ------------------------------------------------------------------ *)
(* E6: commit protocols                                                *)
(* ------------------------------------------------------------------ *)

module E6 = struct
  type proto_result = {
    proto : string;
    commits : int;
    p50 : float;
    p99 : float;
    p999 : float;
    messages_per_commit : float;
  }

  type t = {
    protos : proto_result list;
    stages : (string * Histogram.t) list;
  }

  (* Shared link model: six storage-side nodes spread 2-per-AZ, client in
     AZ1, lognormal inter/intra-AZ latencies as in Cluster.default_config. *)
  let az_spread_latency ~intra ~inter az_of a b =
    match (az_of a, az_of b) with
    | Some x, Some y when Int.equal x y -> Some intra
    | _ -> Some inter

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
    ( {
        proto = "aurora 4/6 quorum ack";
        commits = !done_;
        p50 = float_of_int (Histogram.percentile hist 50.);
        p99 = float_of_int (Histogram.percentile hist 99.);
        p999 = float_of_int (Histogram.percentile hist 99.9);
        messages_per_commit =
          float_of_int st.Simnet.Net.sent /. float_of_int (max 1 !done_);
      },
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
    {
      proto = "2PC (6 participants)";
      commits = !done_;
      p50 = float_of_int (Histogram.percentile st.latency 50.);
      p99 = float_of_int (Histogram.percentile st.latency 99.);
      p999 = float_of_int (Histogram.percentile st.latency 99.9);
      messages_per_commit =
        float_of_int st.Baselines.Two_phase_commit.messages
        /. float_of_int (max 1 !done_);
    }

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
    {
      proto = "Paxos commit (6 acceptors)";
      commits = !done_;
      p50 = float_of_int (Histogram.percentile st.latency 50.);
      p99 = float_of_int (Histogram.percentile st.latency 99.);
      p999 = float_of_int (Histogram.percentile st.latency 99.9);
      messages_per_commit =
        float_of_int st.Baselines.Paxos_commit.messages /. float_of_int (max 1 !done_);
    }

  let run ?(seed = 31) () =
    let commits = 2000 in
    let aurora, stages = run_aurora ~seed ~commits in
    {
      protos =
        [
          aurora;
          run_paxos ~seed:(seed + 1) ~commits;
          run_2pc ~seed:(seed + 2) ~commits;
        ];
      stages;
    }

  let report t =
    let r =
      Report.create
        ~title:"E6 (\xc2\xa71/\xc2\xa72.3): commit latency and message cost"
        ~columns:[ "protocol"; "commits"; "p50"; "p99"; "p99.9"; "msgs/commit" ]
    in
    List.iter
      (fun p ->
        Report.row r
          [
            p.proto;
            string_of_int p.commits;
            Report.ns p.p50;
            Report.ns p.p99;
            Report.ns p.p999;
            Report.f2 p.messages_per_commit;
          ])
      t.protos;
    Report.note r
      "expected shape: aurora <= paxos < 2pc in latency (2PC pays two \
       sequential round trips + forces); tails ordered the same way";
    (if t.stages <> [] then begin
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
         t.stages;
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
  type point = {
    policy : string;
    rate_per_sec : float;
    p50 : float;
    p99 : float;
    jitter : float;
    mean_batch : float;
  }

  type t = point list

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
    {
      policy = policy_name;
      rate_per_sec = rate;
      p50;
      p99;
      jitter = p99 -. p50;
      mean_batch = Database.mean_batch_size db;
    }

  let run ?(seed = 41) () =
    let rates = [ 100.; 2000.; 20000. ] in
    List.concat_map
      (fun (name, policy) ->
        List.mapi (fun i rate -> one ~seed:(seed + i) ~policy_name:name ~policy ~rate) rates)
      policies

  let report t =
    let r =
      Report.create ~title:"E7 (\xc2\xa72.2): write batching policies"
        ~columns:[ "policy"; "rate/s"; "p50"; "p99"; "jitter(p99-p50)"; "recs/batch" ]
    in
    List.iter
      (fun p ->
        Report.row r
          [
            p.policy;
            Printf.sprintf "%.0f" p.rate_per_sec;
            Report.ns p.p50;
            Report.ns p.p99;
            Report.ns p.jitter;
            Report.f2 p.mean_batch;
          ])
      t;
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
  type point = {
    strategy : string;
    slow_segment : bool;
        (* true = heavy-tailed fleet: every node occasionally stalls
           (transient slowness no latency tracker can predict) *)
    reads : int;
    ios_per_read : float;
    p50 : float;
    p99 : float;
  }

  type t = point list

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

  let one ~seed ~name ~strategy ~slow ~reads =
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
    let done_ = ref 0 in
    let rec one_read i =
      if i < reads then
        Database.get db ~key:(Rng.pick rng key_arr) (fun _ ->
            incr done_;
            one_read (i + 1))
    in
    one_read 0;
    Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.sec 300));
    let m = Reader.metrics (Database.reader db) in
    {
      strategy = name;
      slow_segment = slow;
      reads = m.Reader.reads;
      ios_per_read =
        float_of_int m.Reader.ios_issued /. float_of_int (max 1 m.Reader.reads);
      p50 = float_of_int (Histogram.percentile m.Reader.latency 50.);
      p99 = float_of_int (Histogram.percentile m.Reader.latency 99.);
    }

  let run ?(seed = 51) () =
    let reads = 2000 in
    List.concat_map
      (fun (name, strategy) ->
        [
          one ~seed ~name ~strategy ~slow:false ~reads;
          one ~seed:(seed + 1) ~name ~strategy ~slow:true ~reads;
        ])
      strategies

  let report t =
    let r =
      Report.create ~title:"E8 (\xc2\xa73.1): read strategies"
        ~columns:[ "strategy"; "heavy tail?"; "reads"; "IOs/read"; "p50"; "p99" ]
    in
    List.iter
      (fun p ->
        Report.row r
          [
            p.strategy;
            string_of_bool p.slow_segment;
            string_of_int p.reads;
            Report.f2 p.ios_per_read;
            Report.ns p.p50;
            Report.ns p.p99;
          ])
      t;
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
  type t = {
    lag_p50 : float;
    lag_p99 : float;
    records_applied : int;
    records_skipped : int;
    replica_reads_ok : int;
    replica_reads_wrong : int;
    promoted : bool;
    acked_commits : int;
    lost_after_promotion : int;
    lag_timeline : (Time_ns.t * float) list;
        (* (sim time, per-window p99 stream lag ns) from the cluster's
           series sampler; windows with no stream chunks are omitted *)
    lag_timeline_max : float;
  }

  let run ?(seed = 61) () =
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
       replica's stream-lag histogram, captured before the writer dies. *)
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
    let lag_timeline_max =
      List.fold_left (fun acc (_, v) -> Float.max acc v) 0. lag_timeline
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
    {
      lag_p50 = float_of_int (Histogram.percentile lag 50.);
      lag_p99 = float_of_int (Histogram.percentile lag 99.);
      records_applied = m.Replica.records_applied;
      records_skipped = m.Replica.records_skipped;
      replica_reads_ok = !ok;
      replica_reads_wrong = !wrong;
      promoted = new_db <> None;
      acked_commits = Workload.Txn_gen.acked gen;
      lost_after_promotion = lost;
      lag_timeline;
      lag_timeline_max;
    }

  let report t =
    let r =
      Report.create ~title:"E9 (\xc2\xa73.2-3.4): read replicas and promotion"
        ~columns:[ "metric"; "value" ]
    in
    Report.row r [ "stream lag p50"; Report.ns t.lag_p50 ];
    Report.row r [ "stream lag p99"; Report.ns t.lag_p99 ];
    Report.row r [ "records applied to cached blocks"; string_of_int t.records_applied ];
    Report.row r [ "records skipped (uncached)"; string_of_int t.records_skipped ];
    Report.row r
      [
        "replica reads consistent";
        Printf.sprintf "%d ok / %d wrong" t.replica_reads_ok t.replica_reads_wrong;
      ];
    Report.row r [ "promotion succeeded"; string_of_bool t.promoted ];
    Report.row r [ "acked commits before crash"; string_of_int t.acked_commits ];
    Report.row r
      [ "acked commits lost after promotion"; string_of_int t.lost_after_promotion ];
    Report.row r [ "max windowed lag p99"; Report.ns t.lag_timeline_max ];
    Report.note r
      "expected shape: millisecond-scale lag; zero acked commits lost on \
       promotion (shared durable storage)";
    (* Down-sample the timeline to <= 12 evenly spaced rows. *)
    let sub =
      Report.create ~title:"replica stream lag over time (per-window p99)"
        ~columns:[ "t"; "lag p99" ]
    in
    let n = List.length t.lag_timeline in
    let step = max 1 (n / 12) in
    List.iteri
      (fun i (at, v) ->
        if i mod step = 0 || i = n - 1 then
          Report.row sub [ Report.time at; Report.ns v ])
      t.lag_timeline;
    Report.add_subtable r sub;
    r
end

(* ------------------------------------------------------------------ *)
(* E10: tiered quorum sets                                             *)
(* ------------------------------------------------------------------ *)

module E10 = struct
  type design_result = {
    design : string;
    storage_bytes : int;
    bytes_ratio_vs_v6 : float;
    write_unavail : float;
    read_unavail : float;
    az1_write_survival : float;
  }

  type t = design_result list

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

  let run ?(seed = 71) () =
    let txns = 2000 in
    let v6_bytes = one ~seed ~layout:Cluster.V6 ~txns in
    let tiered_bytes = one ~seed:(seed + 1) ~layout:Cluster.Tiered ~txns in
    let avail layout =
      let members, rule = scheme_rule layout in
      let mc =
        Availability.Fleet_model.run ~rng:(Rng.create (seed + 2))
          ~params:
            {
              Availability.Fleet_model.default_params with
              Availability.Fleet_model.groups = 2000;
            }
          ~members ~rule
      in
      ( mc.Availability.Fleet_model.write_unavail,
        mc.Availability.Fleet_model.read_unavail,
        if mc.Availability.Fleet_model.az_onsets = 0 then 1.
        else
          float_of_int mc.Availability.Fleet_model.az_write_survived
          /. float_of_int mc.Availability.Fleet_model.az_onsets )
    in
    let v6_w, v6_r, v6_az = avail Cluster.V6 in
    let t_w, t_r, t_az = avail Cluster.Tiered in
    [
      {
        design = "6 full segments (4/6, 3/6)";
        storage_bytes = v6_bytes;
        bytes_ratio_vs_v6 = 1.;
        write_unavail = v6_w;
        read_unavail = v6_r;
        az1_write_survival = v6_az;
      };
      {
        design = "3 full + 3 tail (\xc2\xa74.2)";
        storage_bytes = tiered_bytes;
        bytes_ratio_vs_v6 = float_of_int tiered_bytes /. float_of_int (max 1 v6_bytes);
        write_unavail = t_w;
        read_unavail = t_r;
        az1_write_survival = t_az;
      };
    ]

  let report t =
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
    List.iter
      (fun d ->
        Report.row r
          [
            d.design;
            string_of_int d.storage_bytes;
            Report.f2 d.bytes_ratio_vs_v6;
            Report.pct d.write_unavail;
            Report.pct d.read_unavail;
            Report.pct d.az1_write_survival;
          ])
      t;
    Report.note r
      "expected shape: tiered stores roughly half the bytes (data blocks \
       only on fulls) while keeping AZ+1 availability";
    r
end

(* ------------------------------------------------------------------ *)
(* Ablations: design-choice sweeps called out in DESIGN.md              *)
(* ------------------------------------------------------------------ *)

module Ablations = struct
  (* A1: hedge threshold — too low wastes IOs, too high stops capping the
     tail (§3.1's "if a request is taking longer than expected"). *)
  type hedge_point = {
    hedge : Time_ns.t option;
    ios_per_read : float;
    p99 : float;
  }

  let hedge_sweep ?(seed = 81) () =
    let reads = 1000 in
    List.map
      (fun hedge ->
        let strategy =
          Reader.Direct_tracked { hedge_after = hedge; explore_probability = 0.05 }
        in
        let p =
          E8.one ~seed ~name:"sweep" ~strategy ~slow:true ~reads
        in
        { hedge; ios_per_read = p.E8.ios_per_read; p99 = p.E8.p99 })
      [ None; Some (Time_ns.ms 8); Some (Time_ns.ms 2); Some (Time_ns.us 700) ]

  let hedge_report points =
    let r =
      Report.create ~title:"A1 (ablation): hedge threshold under heavy tails"
        ~columns:[ "hedge after"; "IOs/read"; "p99" ]
    in
    List.iter
      (fun p ->
        Report.row r
          [
            (match p.hedge with None -> "never" | Some h -> Report.time h);
            Report.f2 p.ios_per_read;
            Report.ns p.p99;
          ])
      points;
    Report.note r
      "expected shape: lower thresholds trade extra IOs for a tighter p99;        'never' has the worst tail at the lowest cost";
    r

  (* A2: gossip cadence vs hole-repair time — background repair bandwidth
     is what lets the write path tolerate loss silently (Figure 2). *)
  type gossip_point = {
    interval : Time_ns.t;
    repair_time : Time_ns.t option; (* None = gossip alone never healed it *)
    hydration_healed : bool;
        (* when gossip lost the race against hot-log GC, did explicit
           hydration (the repair path) close the hole? *)
  }

  let gossip_sweep ?(seed = 91) () =
    List.map
      (fun interval ->
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
        {
          interval;
          repair_time =
            Option.map (fun at -> Time_ns.diff at restarted_at) !healed_at;
          hydration_healed;
        })
      [ Time_ns.ms 20; Time_ns.ms 100; Time_ns.ms 500; Time_ns.sec 2 ]

  let gossip_report points =
    let r =
      Report.create ~title:"A2 (ablation): gossip cadence vs hole repair"
        ~columns:
          [ "gossip interval"; "gossip-only heal"; "hydration fallback heals" ]
    in
    List.iter
      (fun p ->
        Report.row r
          [
            Report.time p.interval;
            (match p.repair_time with
            | Some t -> Report.time t
            | None -> "lost race vs hot-log GC");
            string_of_bool p.hydration_healed;
          ])
      points;
    Report.note r
      "expected shape: fast gossip heals in about one period; slow gossip \
       loses the race against hot-log GC (peers no longer retain the \
       records), after which only bulk hydration repairs the segment -- \
       which is exactly why the design has both mechanisms";
    r
end

let run_all ?(seed = 1) () =
  let buf = Buffer.create 4096 in
  let add r = Buffer.add_string buf (Report.to_string r ^ "\n") in
  add (E1.report (E1.run ~seed ()));
  add (E2.report (E2.run ~seed:(seed + 1) ()));
  add (E3.report (E3.run ()));
  add (E4.report (E4.run ~seed:(seed + 2) ()));
  add (E5.report (E5.run ~seed:(seed + 3) ()));
  add (E6.report (E6.run ~seed:(seed + 4) ()));
  add (E7.report (E7.run ~seed:(seed + 5) ()));
  add (E8.report (E8.run ~seed:(seed + 6) ()));
  add (E9.report (E9.run ~seed:(seed + 7) ()));
  add (E10.report (E10.run ~seed:(seed + 8) ()));
  add (Ablations.hedge_report (Ablations.hedge_sweep ~seed:(seed + 9) ()));
  add (Ablations.gossip_report (Ablations.gossip_sweep ~seed:(seed + 10) ()));
  Buffer.contents buf
