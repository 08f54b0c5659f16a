(* Tests for the experiment harness: cluster assembly, report rendering,
   and the fast deterministic experiments. *)
open Simcore
open Quorum
module Cluster = Harness.Cluster
module E = Harness.Experiments
module Database = Aurora_core.Database

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_report_rendering () =
  let r = Harness.Report.create ~title:"t" ~columns:[ "a"; "bb" ] in
  Harness.Report.row r [ "x"; "y" ];
  Harness.Report.row r [ "longer"; "z" ];
  Harness.Report.note r "note";
  let s = Harness.Report.to_string r in
  check_bool "title" true (String.length s > 0 && String.sub s 0 4 = "== t");
  check_bool "has note" true (contains s "note");
  check_bool "aligned" true (contains s "longer  z")

(* A required row renders as a plain row; only a failed one is named, with
   its table's title, and a subtable's after its parent's. *)
let test_report_requirements () =
  let module R = Harness.Report in
  let table ~ok =
    let r = R.create ~title:"t" ~columns:[ "metric"; "value" ] in
    R.row r [ "plain"; "1" ];
    R.require r ~ok [ "lost"; "2" ];
    let sub = R.create ~title:"sub" ~columns:[ "a" ] in
    R.require sub ~ok:false [ "bad" ];
    R.add_subtable r sub;
    R.require r ~ok:true [ "held"; "0" ];
    r
  in
  let failed = table ~ok:false and held = table ~ok:true in
  Alcotest.(check string) "same bytes" (R.to_string held) (R.to_string failed);
  Alcotest.(check (list string))
    "failed rows named" [ "t: lost | 2"; "sub: bad" ] (R.failures failed);
  Alcotest.(check (list string)) "only the subtable's" [ "sub: bad" ] (R.failures held);
  let plain = R.create ~title:"p" ~columns:[ "a" ] in
  R.row plain [ "x" ];
  Alcotest.(check (list string)) "no requirement, no failure" [] (R.failures plain)

let test_cluster_assembly () =
  let cluster = Cluster.create { Cluster.default_config with seed = 3; n_pgs = 3 } in
  check_int "18 storage nodes" 18 (List.length (Cluster.storage_nodes cluster));
  check_int "members per pg" 6
    (List.length (Cluster.members_of_pg cluster (Storage.Pg_id.of_int 0)));
  check_bool "writer open" true (Database.is_open (Cluster.db cluster));
  (* Deterministic: same seed, same first latency sample behaviour. *)
  let c2 = Cluster.create { Cluster.default_config with seed = 3; n_pgs = 3 } in
  let run c =
    let db = Cluster.db c in
    let txn = Database.begin_txn db in
    Database.put db ~txn ~key:"k" ~value:"v";
    let at = ref Time_ns.zero in
    Database.commit db ~txn (fun _ -> at := Sim.now (Cluster.sim c));
    Sim.run_until (Cluster.sim c) (Time_ns.sec 1);
    !at
  in
  check_int "deterministic replay" (run cluster) (run c2)

(* Every injected corruption is found by the scrubber and repaired from a
   peer.  Both injections can hit the same block on two segments, so a
   repair drawn from the other corrupt copy is rejected and the block is
   found again at the next round: [found] may exceed [injected]. *)
let test_e2_scrub () =
  List.iter
    (fun seed ->
      let r = E.E2.run ~seed in
      let label what = Printf.sprintf "seed %d %s" seed what in
      check_int (label "injected") 2 r.E.E2.corruptions_injected;
      check_int (label "repaired") 2 r.E.E2.scrub_repaired;
      check_bool (label "every corruption found") true
        (r.E.E2.scrub_found >= r.E.E2.corruptions_injected))
    [ 1; 2; 3 ]

(* ---- fault API under load (the surface lib/vopr drives) ---- *)

let pg0 = Storage.Pg_id.of_int 0
let m id = Member_id.of_int id

let load_fixture ~seed =
  let cluster = Cluster.create { Cluster.default_config with seed } in
  let gen =
    Workload.Txn_gen.create
      ~sim:(Cluster.sim cluster)
      ~rng:(Rng.create (seed + 7919))
      ~db:(Cluster.db cluster)
      ~profile:Workload.Txn_gen.default_profile ()
  in
  Workload.Txn_gen.run_open_loop gen ~rate_per_sec:1500. ~duration:(Time_ns.ms 900);
  (cluster, gen)

(* Quiesce, then replay the durability oracle against the writer. *)
let audit cluster gen =
  Sim.run_until (Cluster.sim cluster)
    (Time_ns.add (Sim.now (Cluster.sim cluster)) (Time_ns.sec 2));
  let db = Cluster.db cluster in
  check_bool "writer open at audit" true (Database.is_open db);
  let lost = ref 0 in
  let checked =
    Workload.Txn_gen.audit gen
      ~get:(fun ~key cb -> Database.get db ~key cb)
      (fun ~key:_ _ -> incr lost)
  in
  Sim.run_until (Cluster.sim cluster)
    (Time_ns.add (Sim.now (Cluster.sim cluster)) (Time_ns.sec 10));
  check_bool "audited some keys" true (checked > 0);
  check_int "no acked write lost" 0 !lost

let epoch_of cluster pg =
  let g = Aurora_core.Volume.find_pg (Database.volume (Cluster.db cluster)) pg in
  Epoch.to_int (Membership.epoch g.Aurora_core.Volume.membership)

let test_crash_restart_mid_commit () =
  let cluster, gen = load_fixture ~seed:11 in
  let sim = Cluster.sim cluster in
  (* Crash a member mid-stream — in-flight commits must keep acking off the
     remaining 5/6 — and bring it back while writes are still arriving. *)
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 150) (fun () ->
         Cluster.crash_storage_node cluster pg0 (m 0)));
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 400) (fun () ->
         Cluster.restart_storage_node cluster pg0 (m 0)));
  Sim.run_until sim (Time_ns.ms 1000);
  check_bool "commits progressed through the crash" true
    (Workload.Txn_gen.acked gen > 0);
  check_int "no commit failures" 0 (Workload.Txn_gen.failed gen);
  audit cluster gen

let test_destroy_then_replacement_catch_up () =
  let cluster, gen = load_fixture ~seed:12 in
  let sim = Cluster.sim cluster in
  let replacement = ref None in
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 150) (fun () ->
         Cluster.destroy_storage_node cluster pg0 (m 5);
         match Cluster.start_replacement cluster pg0 ~suspect:(m 5) with
         | Ok id -> replacement := Some id
         | Error e -> Alcotest.failf "start_replacement: %s" e));
  Sim.run_until sim (Time_ns.ms 1000);
  let id =
    match !replacement with
    | Some id -> id
    | None -> Alcotest.fail "replacement never started"
  in
  check_int "first epoch increment" 2 (epoch_of cluster pg0);
  (* The newcomer hydrates off a healthy peer while the write stream is
     live; once its SCL covers the group durable point the change lands. *)
  let deadline = Time_ns.add (Sim.now sim) (Time_ns.sec 10) in
  let rec wait () =
    if Cluster.replacement_caught_up cluster pg0 ~replacement:id then ()
    else if Sim.now sim >= deadline then
      Alcotest.fail "replacement never caught up"
    else begin
      Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.ms 50));
      wait ()
    end
  in
  wait ();
  (match Cluster.finish_replacement cluster pg0 ~suspect:(m 5) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "finish_replacement: %s" e);
  check_int "second epoch increment" 3 (epoch_of cluster pg0);
  check_int "roster back to six" 6
    (List.length (Cluster.members_of_pg cluster pg0));
  audit cluster gen

let test_fail_restore_az_under_load () =
  let cluster, gen = load_fixture ~seed:13 in
  let sim = Cluster.sim cluster in
  (* Losing a whole non-writer AZ leaves 4/6 in every group: writes stay
     available the entire time (Figure 1 row 3). *)
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 200) (fun () ->
         Cluster.fail_az cluster (Az.of_int 2)));
  let acked_mid = ref 0 in
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 550) (fun () ->
         acked_mid := Workload.Txn_gen.acked gen));
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 600) (fun () ->
         Cluster.restore_az cluster (Az.of_int 2)));
  Sim.run_until sim (Time_ns.ms 1000);
  check_bool "commits acked while the AZ was down" true
    (!acked_mid > 0 && Workload.Txn_gen.acked gen > !acked_mid);
  check_int "no commit failures" 0 (Workload.Txn_gen.failed gen);
  audit cluster gen

let test_partition_az_under_load () =
  let cluster, gen = load_fixture ~seed:14 in
  let sim = Cluster.sim cluster in
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 200) (fun () ->
         Cluster.partition_az cluster (Az.of_int 1)));
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms 600) (fun () ->
         Cluster.heal_az cluster (Az.of_int 1)));
  Sim.run_until sim (Time_ns.ms 1000);
  let st = Simnet.Net.stats (Cluster.net cluster) in
  check_bool "partition drops attributed to the partition cause" true
    (st.Simnet.Net.dropped_partition > 0);
  check_bool "commits survived the partition" true
    (Workload.Txn_gen.acked gen > 0);
  audit cluster gen

(* ---- health-sample margins against a fresh computation ---- *)

type step = Crash | Restart | Destroy | Begin | Commit | Revert

let step_name = function
  | Crash -> "crash" | Restart -> "restart" | Destroy -> "destroy"
  | Begin -> "begin" | Commit -> "commit" | Revert -> "revert"

let apply_step cluster (step, pg, idx) =
  let pg = Storage.Pg_id.of_int pg in
  let members = Cluster.members_of_pg cluster pg in
  let target = (List.nth members (idx mod List.length members)).Membership.id in
  let pending () =
    let g = Aurora_core.Volume.find_pg (Database.volume (Cluster.db cluster)) pg in
    match Membership.pendings g.Aurora_core.Volume.membership with
    | p :: _ -> Some p.Membership.suspect
    | [] -> None
  in
  match step with
  | Crash -> Cluster.crash_storage_node cluster pg target
  | Restart -> Cluster.restart_storage_node cluster pg target
  | Destroy -> Cluster.destroy_storage_node cluster pg target
  | Begin -> ignore (Cluster.start_replacement cluster pg ~suspect:target)
  | Commit ->
    Option.iter
      (fun suspect -> ignore (Cluster.finish_replacement cluster pg ~suspect))
      (pending ())
  | Revert ->
    Option.iter
      (fun suspect -> ignore (Cluster.revert_replacement cluster pg ~suspect))
      (pending ())

(* The sample's margins for every PG equal a fresh computation from the
   group's current rule and the nodes alive right now.  test/quorum checks
   [Quorum_set.margin] and [Membership.survives_az] against brute force. *)
let margins_match cluster =
  let sample =
    Cluster.health_sample cluster ~at:(Sim.now (Cluster.sim cluster))
  in
  List.for_all
    (fun (p : Obs.Health.pg_sample) ->
      let pg = Storage.Pg_id.of_int p.pg in
      let members = Cluster.members_of_pg cluster pg in
      let live =
        List.fold_left
          (fun acc (mm : Membership.member) ->
            match Cluster.node_of_member cluster pg mm.id with
            | Some node when Storage.Storage_node.is_alive node ->
              Member_id.Set.add mm.id acc
            | _ -> acc)
          Member_id.Set.empty members
      in
      let g = Aurora_core.Volume.find_pg (Database.volume (Cluster.db cluster)) pg in
      let rule = Membership.rule g.Aurora_core.Volume.membership in
      p.write_margin = Quorum_set.margin rule.Quorum_set.Rule.write live
      && p.read_margin = Quorum_set.margin rule.Quorum_set.Rule.read live
      && Bool.equal p.az_plus_one
           (Membership.survives_az rule.Quorum_set.Rule.read members ~up:live
              ~plus_one:true))
    sample.Obs.Health.pgs

(* Node faults and Figure 5 replacements in any order on a 2-PG V6
   cluster: after every step (and the sampler ticks in between), the
   memoized margins are the ones a fresh computation gives. *)
let prop_health_margins_match_oracle =
  let step =
    QCheck.Gen.(
      triple
        (oneofl [ Crash; Restart; Destroy; Begin; Commit; Revert ])
        (int_range 0 1) (int_range 0 7))
  in
  let print (s, pg, idx) = Printf.sprintf "%s pg%d #%d" (step_name s) pg idx in
  QCheck.Test.make ~name:"health margins match a brute-force oracle" ~count:40
    (QCheck.make
       ~print:(QCheck.Print.list print)
       QCheck.Gen.(list_size (int_range 1 25) step))
    (fun steps ->
      let cluster = Cluster.create { Cluster.default_config with seed = 5 } in
      margins_match cluster
      && List.for_all
           (fun s ->
             apply_step cluster s;
             Cluster.run_for cluster (Time_ns.ms 30);
             margins_match cluster)
           steps)

(* ---- one roster: the volume's ---- *)

(* After every step, for every group: the cluster's members are the
   volume's, in member-id order; each member's node sits at the volume's
   address for it; and [storage_nodes] is exactly the nodes at the
   volumes' roster addresses. *)
let check_rosters cluster step =
  let volume = Database.volume (Cluster.db cluster) in
  let ids l = List.map (fun (mm : Membership.member) -> Member_id.to_int mm.id) l in
  let roster_addrs =
    List.concat_map
      (fun (g : Aurora_core.Volume.pg) ->
        Alcotest.(check (list int))
          (Printf.sprintf "%s: pg%d members" step (Storage.Pg_id.to_int g.id))
          (ids (Membership.members g.membership))
          (ids (Cluster.members_of_pg cluster g.id));
        List.map
          (fun (id, addr) ->
            (match Cluster.node_of_member cluster g.id id with
            | Some node ->
              check_bool (step ^ ": node at the volume's address") true
                (Simnet.Addr.equal (Storage.Storage_node.addr node) addr)
            | None -> Alcotest.failf "%s: no node for a member" step);
            Simnet.Addr.to_int addr)
          (Aurora_core.Volume.roster g))
      (Aurora_core.Volume.pgs volume)
  in
  let node_addrs =
    List.map
      (fun node -> Simnet.Addr.to_int (Storage.Storage_node.addr node))
      (Cluster.storage_nodes cluster)
  in
  Alcotest.(check (list int))
    (step ^ ": storage nodes are the roster's")
    (List.sort compare roster_addrs) (List.sort compare node_addrs)

(* Figure 5's dance (begin, catch up, commit), a reverted replacement, the
   3/4 scheme change after losing AZ3, and volume growth, each driven
   through the cluster and checked against the volume after it lands. *)
let test_volume_owns_the_roster () =
  let cluster = Cluster.create { Cluster.default_config with seed = 21; n_pgs = 1 } in
  let run () = Cluster.run_for cluster (Time_ns.ms 300) in
  let ok what = function Ok x -> x | Error e -> Alcotest.failf "%s: %s" what e in
  check_rosters cluster "initial";
  let r1 = ok "start" (Cluster.start_replacement cluster pg0 ~suspect:(m 5)) in
  check_rosters cluster "replacement begun";
  check_int "dual roster" 7 (List.length (Cluster.members_of_pg cluster pg0));
  run ();
  check_bool "replacement caught up" true
    (Cluster.replacement_caught_up cluster pg0 ~replacement:r1);
  ok "finish" (Cluster.finish_replacement cluster pg0 ~suspect:(m 5));
  check_rosters cluster "replacement committed";
  check_bool "suspect gone" true (Cluster.node_of_member cluster pg0 (m 5) = None);
  let r2 = ok "start again" (Cluster.start_replacement cluster pg0 ~suspect:(m 4)) in
  let r2_node =
    match Cluster.node_of_member cluster pg0 r2 with
    | Some node -> node
    | None -> Alcotest.fail "no node for the second replacement"
  in
  run ();
  ok "revert" (Cluster.revert_replacement cluster pg0 ~suspect:(m 4));
  check_rosters cluster "replacement reverted";
  check_bool "reverted replacement's node destroyed" true
    ((not (Storage.Storage_node.is_alive r2_node))
    && Storage.Storage_node.segment r2_node pg0 = None);
  check_bool "reverted replacement gone" true (Cluster.node_of_member cluster pg0 r2 = None);
  check_bool "revert of a settled suspect refused" true
    (Result.is_error (Cluster.revert_replacement cluster pg0 ~suspect:(m 4)));
  ok "3/4" (Cluster.change_scheme_3_of_4 cluster pg0 ~drop_az:(Az.of_int 2));
  check_rosters cluster "scheme changed";
  check_int "four members" 4 (List.length (Cluster.members_of_pg cluster pg0));
  check_int "epoch after five transitions" 6 (epoch_of cluster pg0);
  let pg1 = Cluster.grow_volume cluster in
  check_rosters cluster "volume grown";
  check_int "second group" 1 (Storage.Pg_id.to_int pg1);
  check_int "ten storage nodes" 10 (List.length (Cluster.storage_nodes cluster));
  (* Both groups take writes: a commit touching many blocks acks. *)
  let db = Cluster.db cluster in
  let txn = Database.begin_txn db in
  for i = 0 to 15 do
    Database.put db ~txn ~key:(Printf.sprintf "k%d" i) ~value:"v"
  done;
  let acked = ref false in
  Database.commit db ~txn (fun _ -> acked := true);
  run ();
  check_bool "commit acked after all transitions" true !acked

let () =
  Alcotest.run "harness"
    [
      ( "report",
        [
          Alcotest.test_case "rendering" `Quick test_report_rendering;
          Alcotest.test_case "failed requirements" `Quick test_report_requirements;
        ] );
      ( "cluster",
        [ Alcotest.test_case "assembly + determinism" `Slow test_cluster_assembly ]
      );
      ( "faults under load",
        [
          Alcotest.test_case "crash + restart mid-commit" `Slow
            test_crash_restart_mid_commit;
          Alcotest.test_case "destroy + replacement catch-up" `Slow
            test_destroy_then_replacement_catch_up;
          Alcotest.test_case "fail + restore AZ" `Slow
            test_fail_restore_az_under_load;
          Alcotest.test_case "partition + heal AZ" `Slow
            test_partition_az_under_load;
          Alcotest.test_case "the volume owns the roster" `Slow
            test_volume_owns_the_roster;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "E2 scrub repairs" `Quick test_e2_scrub;
        ] );
      ( "health",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |])
            prop_health_margins_match_oracle;
        ] );
    ]
