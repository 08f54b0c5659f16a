open Simcore
module Cluster = Harness.Cluster
module Database = Aurora_core.Database
module Volume = Aurora_core.Volume
module Txn_gen = Workload.Txn_gen
module Lsn = Wal.Lsn
module Pg_id = Storage.Pg_id
module Member_id = Quorum.Member_id
module Az = Quorum.Az

type outcome = {
  scenario : string;
  seed : int;
  violations : Checker.violation list;
  total_violations : int;
  action_errors : (int * string) list;
  issued : int;
  acked : int;
  wl_failed : int;
  commits : int;
  final_vcl : int;
  final_vdl : int;
  write_available : float;
  recorder : Recorder.Artifact.t option;
}

let failed o = o.total_violations > 0

(* Image the network's global and per-link counters into the recorder
   artifact's plain-int [net] section. *)
let net_artifact net =
  let s = Simnet.Net.stats net in
  let links =
    List.map
      (fun ((src, dst), (l : Simnet.Net.link_stat)) ->
        {
          Recorder.Artifact.src;
          dst;
          l_sent = l.Simnet.Net.sent_on;
          l_delivered = l.Simnet.Net.delivered_on;
          l_down = l.Simnet.Net.drop_down;
          l_blocked = l.Simnet.Net.drop_blocked;
          l_partition = l.Simnet.Net.drop_partition;
          l_random = l.Simnet.Net.drop_random;
        })
      (Simnet.Net.link_stats net)
  in
  {
    Recorder.Artifact.sent = s.Simnet.Net.sent;
    delivered = s.Simnet.Net.delivered;
    dropped_down = s.Simnet.Net.dropped_down;
    dropped_blocked = s.Simnet.Net.dropped_blocked;
    dropped_partition = s.Simnet.Net.dropped_partition;
    dropped_random = s.Simnet.Net.dropped_random;
    links;
  }

(* 1-based AZ numbers in scenarios, zero-based Az.t in the cluster. *)
let az_of_spec n =
  if n >= 1 && n <= 3 then Ok (Az.of_int (n - 1))
  else Error (Printf.sprintf "az=%d out of range 1..3" n)

let replacement_of cluster pg suspect =
  let volume = Database.volume (Cluster.db cluster) in
  match Volume.find_pg volume pg with
  | exception Not_found -> None
  | g -> Quorum.Membership.replacement_of g.membership ~suspect

let run ~seed ?(record_always = false) (sc : Scenario.t) =
  let cfg =
    {
      Cluster.default_config with
      Cluster.seed;
      n_pgs = sc.n_pgs;
      layout = sc.layout;
      (* Every run records: the hooks draw no randomness, so an
         instrumented run is byte-identical to a bare one. *)
      recorder_depth = Some sc.recorder_depth;
    }
  in
  let cluster = Cluster.create cfg in
  let sim = Cluster.sim cluster in
  let db = Cluster.db cluster in
  for _ = 1 to sc.replicas do
    ignore (Cluster.add_replica cluster)
  done;
  let gen =
    if sc.rate > 0. then
      Some
        (Txn_gen.create ~sim
           ~rng:(Rng.create (seed + 7919))
           ~db ~profile:Txn_gen.default_profile ())
    else None
  in
  let checker = Checker.create ~cluster ?gen () in
  let action_errors = ref [] in
  let record_err idx msg = action_errors := (idx, msg) :: !action_errors in
  let steps = Array.of_list sc.steps in
  let last_timed_step =
    Array.fold_left
      (fun acc (st : Scenario.step) ->
        match st.trigger with
        | Scenario.At t -> Time_ns.max acc t
        | Scenario.At_lsn _ -> acc)
      Time_ns.zero steps
  in
  let run_horizon = Time_ns.max (Time_ns.ms sc.duration_ms) last_timed_step in
  let full_horizon = Time_ns.add run_horizon (Time_ns.ms sc.quiesce_ms) in
  let with_node pg m f =
    match Cluster.node_of_member cluster (Pg_id.of_int pg) (Member_id.of_int m) with
    | Some _ ->
      f (Pg_id.of_int pg) (Member_id.of_int m);
      Ok ()
    | None -> Error (Printf.sprintf "pg%d m%d: unknown member" pg m)
  in
  let apply_action idx (action : Scenario.action) =
    match action with
    | Scenario.Noop -> Ok ()
    | Scenario.Crash_node (pg, m) ->
      with_node pg m (fun pg m -> Cluster.crash_storage_node cluster pg m)
    | Scenario.Restart_node (pg, m) ->
      with_node pg m (fun pg m -> Cluster.restart_storage_node cluster pg m)
    | Scenario.Destroy_node (pg, m) ->
      with_node pg m (fun pg m -> Cluster.destroy_storage_node cluster pg m)
    | Scenario.Slow_node (pg, m, factor) ->
      with_node pg m (fun pg m -> Cluster.slow_storage_node cluster pg m factor)
    | Scenario.Fail_az az ->
      Result.map (fun az -> Cluster.fail_az cluster az) (az_of_spec az)
    | Scenario.Restore_az az ->
      Result.map (fun az -> Cluster.restore_az cluster az) (az_of_spec az)
    | Scenario.Partition_az az ->
      Result.map (fun az -> Cluster.partition_az cluster az) (az_of_spec az)
    | Scenario.Heal_az az ->
      Result.map (fun az -> Cluster.heal_az cluster az) (az_of_spec az)
    | Scenario.Start_replacement (pg, m) ->
      Result.map ignore
        (Cluster.start_replacement cluster (Pg_id.of_int pg)
           ~suspect:(Member_id.of_int m))
    | Scenario.Finish_replacement (pg, m) ->
      Cluster.finish_replacement cluster (Pg_id.of_int pg)
        ~suspect:(Member_id.of_int m)
    | Scenario.Finish_when_caught_up (pg, m) -> (
      let pg_id = Pg_id.of_int pg and suspect = Member_id.of_int m in
      match replacement_of cluster pg_id suspect with
      | None -> Error (Printf.sprintf "pg%d m%d: no pending replacement" pg m)
      | Some replacement ->
        (* Stand-in for the repair monitor: poll hydration progress and run
           the second epoch increment the moment the replacement covers the
           group durable point. *)
        let rec poll () =
          if Time_ns.compare (Sim.now sim) full_horizon > 0 then
            record_err idx
              (Printf.sprintf
                 "pg%d m%d: replacement not caught up by the horizon" pg m)
          else if Cluster.replacement_caught_up cluster pg_id ~replacement then (
            match Cluster.finish_replacement cluster pg_id ~suspect with
            | Ok () -> ()
            | Error e -> record_err idx ("finish_replacement: " ^ e))
          else ignore (Sim.schedule sim ~delay:(Time_ns.ms 20) poll)
        in
        poll ();
        Ok ())
    | Scenario.Revert_replacement (pg, m) ->
      Cluster.revert_replacement cluster (Pg_id.of_int pg)
        ~suspect:(Member_id.of_int m)
    | Scenario.Grow_volume ->
      ignore (Cluster.grow_volume cluster);
      Ok ()
    | Scenario.Change_scheme_3_of_4 (pg, az) ->
      Result.bind (az_of_spec az) (fun drop_az ->
          Cluster.change_scheme_3_of_4 cluster (Pg_id.of_int pg) ~drop_az)
    | Scenario.Crash_writer ->
      Database.crash db;
      Ok ()
    | Scenario.Recover_writer ->
      Database.recover db (fun result ->
          match result with
          | Ok _ -> ()
          | Error e -> record_err idx ("recover_writer: " ^ e));
      Ok ()
  in
  let last_commits = ref 0 in
  let eval_expect (e : Scenario.expectation) =
    match e with
    | Scenario.Write_available want ->
      let s = Cluster.health_sample cluster ~at:(Sim.now sim) in
      let got = Obs.Health.sample_write_available s in
      if got = want then Ok ()
      else Error (Printf.sprintf "write_available=%b, wanted %b" got want)
    | Scenario.Az_plus_one want ->
      let s = Cluster.health_sample cluster ~at:(Sim.now sim) in
      let got =
        List.for_all (fun (p : Obs.Health.pg_sample) -> p.az_plus_one) s.pgs
      in
      if got = want then Ok ()
      else Error (Printf.sprintf "az_plus_one=%b, wanted %b" got want)
    | Scenario.Writer_open want ->
      let got = Database.is_open db in
      if got = want then Ok ()
      else Error (Printf.sprintf "writer_open=%b, wanted %b" got want)
    | Scenario.Commits_progressing ->
      let now = (Database.metrics db).Database.txns_committed in
      if now > !last_commits then Ok ()
      else
        Error
          (Printf.sprintf "no commit progress (still %d committed)" now)
    | Scenario.Epoch_at_least (pg, want) -> (
      let volume = Database.volume db in
      match Volume.find_pg volume (Pg_id.of_int pg) with
      | exception Not_found -> Error (Printf.sprintf "pg%d: unknown group" pg)
      | g ->
        let got = Quorum.Epoch.to_int (Quorum.Membership.epoch g.membership) in
        if got >= want then Ok ()
        else Error (Printf.sprintf "pg%d epoch=%d, wanted >= %d" pg got want))
    | Scenario.Caught_up (pg, m) -> (
      let pg_id = Pg_id.of_int pg in
      match replacement_of cluster pg_id (Member_id.of_int m) with
      | None -> Error (Printf.sprintf "pg%d m%d: no pending replacement" pg m)
      | Some replacement ->
        if Cluster.replacement_caught_up cluster pg_id ~replacement then Ok ()
        else Error (Printf.sprintf "pg%d m%d: replacement behind" pg m))
  in
  let fire idx (st : Scenario.step) =
    (match apply_action idx st.action with
    | Ok () -> ()
    | Error e -> record_err idx e);
    List.iter
      (fun e ->
        match eval_expect e with
        | Ok () -> ()
        | Error msg ->
          Checker.note checker ~checker:"expectation"
            ~detail:
              (Printf.sprintf "step %d (%s): %s" idx
                 (Scenario.step_str st) msg))
      st.expect;
    last_commits := (Database.metrics db).Database.txns_committed
  in
  Array.iteri
    (fun idx (st : Scenario.step) ->
      match st.trigger with
      | Scenario.At t -> ignore (Sim.schedule_at sim ~at:t (fun () -> fire idx st))
      | Scenario.At_lsn lsn ->
        Sim.every sim ~interval:(Time_ns.ms 1) (fun () ->
            if Time_ns.compare (Sim.now sim) full_horizon > 0 then begin
              record_err idx (Printf.sprintf "at_lsn=%d never reached" lsn);
              false
            end
            else if
              Database.is_open db && Lsn.to_int (Database.vcl db) >= lsn
            then begin
              fire idx st;
              false
            end
            else true))
    steps;
  (match gen with
  | Some g ->
    Txn_gen.run_open_loop g ~rate_per_sec:sc.rate
      ~duration:(Time_ns.ms sc.duration_ms)
  | None -> ());
  Sim.run_until sim full_horizon;
  Checker.quiesce_audit checker;
  Sim.run_until sim (Time_ns.add full_horizon (Time_ns.sec 5));
  Checker.stop checker;
  (* Snapshot the cluster's rings into the repro artifact on any violation
     (or on request); they go with the cluster. *)
  let recorder =
    match Cluster.recorder cluster with
    | Some rings when Checker.total checker > 0 || record_always ->
      Some
        (Recorder.Artifact.make ~snapshot:(Recorder.Rings.snapshot rings)
           ~net:(net_artifact (Cluster.net cluster))
           ())
    | Some _ | None -> None
  in
  {
    scenario = sc.name;
    seed;
    violations = Checker.violations checker;
    total_violations = Checker.total checker;
    action_errors = List.rev !action_errors;
    issued = (match gen with Some g -> Txn_gen.issued g | None -> 0);
    acked = (match gen with Some g -> Txn_gen.acked g | None -> 0);
    wl_failed = (match gen with Some g -> Txn_gen.failed g | None -> 0);
    commits = (Database.metrics db).Database.txns_committed;
    final_vcl = Lsn.to_int (Database.vcl db);
    final_vdl = Lsn.to_int (Database.vdl db);
    write_available =
      Obs.Health.write_available_fraction (Obs.Ctx.health (Cluster.obs cluster));
    recorder;
  }

let digest o =
  let open Obs.Json in
  to_string
    (Obj
       [
         ("scenario", String o.scenario);
         ("seed", Int o.seed);
         ("issued", Int o.issued);
         ("acked", Int o.acked);
         ("wl_failed", Int o.wl_failed);
         ("commits", Int o.commits);
         ("vcl", Int o.final_vcl);
         ("vdl", Int o.final_vdl);
         ("write_available", Float o.write_available);
         ( "action_errors",
           List
             (List.map
                (fun (idx, msg) ->
                  Obj [ ("step", Int idx); ("error", String msg) ])
                o.action_errors) );
         ("violations", Int o.total_violations);
         ( "violation_details",
           List
             (List.map
                (fun (v : Checker.violation) ->
                  Obj
                    [
                      ("checker", String v.checker);
                      ("at_ns", Int v.at);
                      ("detail", String v.detail);
                    ])
                o.violations) );
       ])
