(* End-to-end cluster tests: the paper's headline invariants exercised
   through the full stack (writer + storage fleet + replicas over the
   simulated network), including randomized fault schedules. *)
open Simcore
open Wal
open Quorum
module Database = Aurora_core.Database
module Replica = Aurora_core.Replica
module Cluster = Harness.Cluster
module Txn_gen = Workload.Txn_gen
module Pg_id = Storage.Pg_id
module String_map = Map.Make (String)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let settle cluster span =
  Sim.run_until (Cluster.sim cluster)
    (Time_ns.add (Sim.now (Cluster.sim cluster)) span)

(* Replay the workload's durability oracle against [db]: returns
   (keys read, keys whose read was wrong). *)
let audit ~cluster ~db ~gen =
  let lost = ref 0 in
  let checked =
    Txn_gen.audit gen
      ~get:(fun ~key cb -> Database.get db ~key cb)
      (fun ~key:_ _ -> incr lost)
  in
  settle cluster (Time_ns.sec 15);
  (checked, !lost)

let run_load ?(clients = 6) ?(secs = 2) ?(profile = Txn_gen.default_profile)
    cluster seed =
  let gen =
    Txn_gen.create ~sim:(Cluster.sim cluster) ~rng:(Rng.create seed)
      ~db:(Cluster.db cluster) ~profile ()
  in
  Txn_gen.run_closed_loop gen ~clients
    ~think_time:(Distribution.constant (Time_ns.ms 1))
    ~duration:(Time_ns.sec secs);
  gen

let write_profile = { Txn_gen.default_profile with write_fraction = 1.; ops_per_txn = 2 }

(* ---- crash / recovery durability ---- *)

let test_crash_recover_zero_loss () =
  let cluster = Cluster.create { Cluster.default_config with seed = 101 } in
  let db = Cluster.db cluster in
  let gen = run_load ~profile:write_profile cluster 1 in
  settle cluster (Time_ns.sec 3);
  let acked = Txn_gen.acked gen in
  check_bool "made progress" true (acked > 100);
  Database.crash db;
  settle cluster (Time_ns.ms 200);
  let recovered = ref false in
  Database.recover db (fun r -> recovered := Result.is_ok r);
  settle cluster (Time_ns.sec 40);
  check_bool "recovered" true !recovered;
  let checked, lost = audit ~cluster ~db ~gen in
  check_bool "audited keys" true (checked > 0);
  check_int "zero acked commits lost" 0 lost

let test_crash_mid_flight () =
  (* Crash while commits are in flight: acked ones must survive; in-doubt
     ones may go either way; the database must reopen consistent. *)
  let cluster = Cluster.create { Cluster.default_config with seed = 102 } in
  let db = Cluster.db cluster in
  let gen = run_load ~profile:write_profile ~secs:5 cluster 2 in
  (* Crash mid-load (at 1s of a 5s run). *)
  ignore
    (Sim.schedule (Cluster.sim cluster) ~delay:(Time_ns.sec 1) (fun () ->
         Database.crash db));
  settle cluster (Time_ns.sec 1 |> Time_ns.add (Time_ns.ms 500));
  check_bool "crashed with in-doubt commits" true
    (Txn_gen.unacked_writes gen <> []);
  let recovered = ref false in
  Database.recover db (fun r -> recovered := Result.is_ok r);
  settle cluster (Time_ns.sec 40);
  check_bool "recovered" true !recovered;
  let _, lost = audit ~cluster ~db ~gen in
  check_int "zero acked commits lost" 0 lost

let test_recovery_interrupted_txns_invisible () =
  (* Transactions open at the crash must be undone: their writes are never
     visible afterwards. *)
  let cluster = Cluster.create { Cluster.default_config with seed = 103 } in
  let db = Cluster.db cluster in
  (* Committed baseline value. *)
  let t1 = Database.begin_txn db in
  Database.put db ~txn:t1 ~key:"x" ~value:"committed";
  Database.commit db ~txn:t1 (fun _ -> ());
  settle cluster (Time_ns.sec 1);
  (* An open transaction writes, then the instance dies without commit. *)
  let t2 = Database.begin_txn db in
  Database.put db ~txn:t2 ~key:"x" ~value:"torn";
  settle cluster (Time_ns.ms 500);
  Database.crash db;
  settle cluster (Time_ns.ms 100);
  Database.recover db (fun _ -> ());
  settle cluster (Time_ns.sec 40);
  let got = ref None in
  Database.get db ~key:"x" (fun r -> got := Some r);
  settle cluster (Time_ns.sec 5);
  match !got with
  | Some (Ok (Some "committed")) -> ()
  | Some (Ok v) ->
    Alcotest.failf "saw %s" (match v with Some s -> s | None -> "<none>")
  | _ -> Alcotest.fail "read failed"

let test_double_crash_recover () =
  let cluster = Cluster.create { Cluster.default_config with seed = 104 } in
  let db = Cluster.db cluster in
  let gen = run_load ~profile:write_profile cluster 3 in
  settle cluster (Time_ns.sec 3);
  for _ = 1 to 2 do
    Database.crash db;
    settle cluster (Time_ns.ms 100);
    let ok = ref false in
    Database.recover db (fun r -> ok := Result.is_ok r);
    settle cluster (Time_ns.sec 40);
    check_bool "recovered" true !ok
  done;
  let _, lost = audit ~cluster ~db ~gen in
  check_int "zero loss after double crash" 0 lost

(* ---- storage faults during load ---- *)

let test_write_availability_two_node_loss () =
  (* 4/6 tolerates two dead segments: commits keep flowing. *)
  let cluster =
    Cluster.create { Cluster.default_config with seed = 105; n_pgs = 1 }
  in
  let pg = Pg_id.of_int 0 in
  Cluster.crash_storage_node cluster pg (Member_id.of_int 0);
  Cluster.crash_storage_node cluster pg (Member_id.of_int 3);
  let gen = run_load ~profile:write_profile cluster 4 in
  settle cluster (Time_ns.sec 4);
  check_bool "commits despite two losses" true (Txn_gen.acked gen > 100);
  check_int "no failures" 0 (Txn_gen.failed gen)

let test_write_stall_three_node_loss_heals () =
  (* Three dead segments break the 4/6 write quorum; restarting one heals
     it and parked commits drain. *)
  let cluster =
    Cluster.create { Cluster.default_config with seed = 106; n_pgs = 1 }
  in
  let pg = Pg_id.of_int 0 in
  let db = Cluster.db cluster in
  let acked = ref false in
  let txn = Database.begin_txn db in
  Database.put db ~txn ~key:"k" ~value:"v";
  Database.commit db ~txn (fun _ -> ());
  settle cluster (Time_ns.sec 1);
  List.iter (fun i -> Cluster.crash_storage_node cluster pg (Member_id.of_int i)) [ 0; 1; 2 ];
  let txn = Database.begin_txn db in
  Database.put db ~txn ~key:"k2" ~value:"v2";
  Database.commit db ~txn (fun r -> acked := r = Ok ());
  settle cluster (Time_ns.sec 2);
  check_bool "commit parked without quorum" false !acked;
  Cluster.restart_storage_node cluster pg (Member_id.of_int 0);
  settle cluster (Time_ns.sec 3);
  check_bool "heals and drains" true !acked

let test_az_failure_continues () =
  let cluster = Cluster.create { Cluster.default_config with seed = 107 } in
  Cluster.fail_az cluster (Az.of_int 2);
  let gen = run_load ~profile:write_profile cluster 5 in
  settle cluster (Time_ns.sec 4);
  check_bool "commits through AZ outage" true (Txn_gen.acked gen > 100);
  Cluster.restore_az cluster (Az.of_int 2);
  settle cluster (Time_ns.sec 2)

(* ---- fencing (split brain) ---- *)

let test_old_writer_fenced () =
  let cluster = Cluster.create { Cluster.default_config with seed = 108 } in
  let old_db = Cluster.db cluster in
  let sim = Cluster.sim cluster in
  let gen = run_load ~profile:write_profile cluster 6 in
  settle cluster (Time_ns.sec 3);
  ignore gen;
  (* A new instance recovers the volume from a different address while the
     old writer is still up (e.g. a monitoring mistake): the epoch bump
     must box the old writer out. *)
  let new_db =
    Database.create ~sim ~rng:(Rng.create 999) ~net:(Cluster.net cluster)
      ~addr:(Simnet.Addr.of_int 4242) ~volume:(Database.volume old_db)
      ~config:Cluster.default_config.Cluster.db_config ()
  in
  let recovered = ref false in
  Database.recover new_db (fun r -> recovered := Result.is_ok r);
  settle cluster (Time_ns.sec 40);
  check_bool "new writer recovered" true !recovered;
  (* Old writer tries to keep writing: storage rejects at the stale epoch
     and the instance self-fences. *)
  check_bool "old writer initially open" true (Database.is_open old_db);
  (try
     let txn = Database.begin_txn old_db in
     Database.put old_db ~txn ~key:"stale" ~value:"write";
     Database.commit old_db ~txn (fun _ -> ())
   with Failure _ -> ());
  settle cluster (Time_ns.sec 2);
  check_bool "old writer fenced" false (Database.is_open old_db);
  check_bool "fence counted" true ((Database.metrics old_db).Database.fenced > 0)

(* ---- MTR atomicity (§3.3) ---- *)

let test_mtr_atomicity_at_vdl () =
  (* Multi-block MTRs write the same tag to two keys; at any VDL anchor the
     storage images of both blocks must show the same tag. *)
  let cluster =
    Cluster.create { Cluster.default_config with seed = 109; n_pgs = 2 }
  in
  let db = Cluster.db cluster in
  let sim = Cluster.sim cluster in
  (* Pick two keys on different blocks. *)
  let k1 = "mtr-left" and k2 = "mtr-right" in
  check_bool "different blocks" true
    (let block_of = Database.block_of_key (Database.config db) in
     not (Block_id.equal (block_of k1) (block_of k2)));
  let rec writer i =
    if i <= 50 then begin
      let txn = Database.begin_txn db in
      Database.put_multi db ~txn [ (k1, Printf.sprintf "tag%d" i); (k2, Printf.sprintf "tag%d" i) ];
      Database.commit db ~txn (fun _ -> ());
      ignore (Sim.schedule sim ~delay:(Time_ns.ms 2) (fun () -> writer (i + 1)))
    end
  in
  writer 1;
  (* Sample both keys at a shared VDL anchor repeatedly. *)
  let violations = ref 0 and samples = ref 0 in
  Sim.every sim ~interval:(Time_ns.ms 3) (fun () ->
      let anchor = Database.vdl db in
      if Lsn.to_int anchor > 0 then begin
        incr samples;
        let view = Aurora_core.Read_view.make ~as_of:anchor () in
        let value_at key =
          let block = Database.block_of_key (Database.config db) key in
          let g = Aurora_core.Volume.pg_of_block (Database.volume db) block in
          let candidates =
            Member_id.Set.filter
              (Aurora_core.Consistency.covers (Database.consistency db)
                 ~pg:g.Aurora_core.Volume.id
                 ~lsn:
                   (Lsn.min anchor
                      (Aurora_core.Consistency.pgcl (Database.consistency db)
                         g.Aurora_core.Volume.id)))
              (Quorum_set.Rule.members (Aurora_core.Volume.rule g))
          in
          (* Read the materialized image directly off a covering segment. *)
          Member_id.Set.fold
            (fun seg acc ->
              match acc with
              | Some _ -> acc
              | None -> (
                match Cluster.node_of_member cluster g.Aurora_core.Volume.id seg with
                | None -> None
                | Some node -> (
                  match Storage.Storage_node.segment node g.Aurora_core.Volume.id with
                  | None -> None
                  | Some s -> (
                    match Storage.Segment.read_block s ~block ~as_of:anchor with
                    | Ok img -> (
                      match
                        List.find_opt (fun (k, _) -> String.equal k key)
                          img.Storage.Protocol.image_entries
                      with
                      | Some (_, chain) ->
                        Some
                          (Aurora_core.Read_view.value view (Database.txn_table db)
                             chain)
                      | None -> Some None)
                    | Error _ -> None))))
            candidates None
        in
        (match (value_at k1, value_at k2) with
        | Some v1, Some v2 when v1 <> v2 -> incr violations
        | _ -> ())
      end;
      !samples < 40)
  ;
  Sim.run_until sim (Time_ns.sec 2);
  check_bool "sampled" true (!samples > 10);
  check_int "no torn MTRs at any VDL anchor" 0 !violations

(* ---- replicas ---- *)

let test_replica_promotion_zero_loss () =
  let cluster = Cluster.create { Cluster.default_config with seed = 110 } in
  let db = Cluster.db cluster in
  let replica = Cluster.add_replica cluster in
  let gen = run_load ~profile:write_profile cluster 7 in
  settle cluster (Time_ns.sec 3);
  Database.crash db;
  settle cluster (Time_ns.ms 100);
  let promoted = ref None in
  Replica.promote replica ~config:Cluster.default_config.Cluster.db_config
    (fun r -> promoted := Some r);
  settle cluster (Time_ns.sec 40);
  match !promoted with
  | Some (Ok (new_db, _)) ->
    let _, lost = audit ~cluster ~db:new_db ~gen in
    check_int "zero loss through promotion" 0 lost
  | _ -> Alcotest.fail "promotion failed"

let test_replica_reads_lag_consistently () =
  let cluster = Cluster.create { Cluster.default_config with seed = 111 } in
  let replica = Cluster.add_replica cluster in
  let gen = run_load cluster 8 in
  settle cluster (Time_ns.sec 3);
  (* The first 100 written keys in key order: every replica read returns
     either a value some transaction wrote to that key or (if lagging past
     nothing) the pre-image. *)
  let written =
    List.fold_left
      (fun written (k, v, _) ->
        String_map.update k
          (fun l -> Some (v :: Option.value l ~default:[]))
          written)
      String_map.empty
      (Txn_gen.writes_in_issue_order gen)
  in
  let wrong = ref 0 and sampled = ref 0 in
  String_map.iter
    (fun key values ->
      if !sampled < 100 then begin
        incr sampled;
        Replica.get replica ~key (fun r ->
            match r with
            | Ok (Some v) when List.exists (String.equal v) values -> ()
            | Ok None -> () (* legitimately lagging before first write *)
            | Ok (Some _) | Error _ -> incr wrong)
      end)
    written;
  settle cluster (Time_ns.sec 5);
  check_int "no foreign values" 0 !wrong;
  check_bool "replica lag bounded" true
    (Lsn.to_int (Replica.vdl_seen replica) > 0)

(* ---- membership under load ---- *)

let test_replacement_under_load () =
  let cluster =
    Cluster.create { Cluster.default_config with seed = 112; n_pgs = 1 }
  in
  let pg = Pg_id.of_int 0 in
  let suspect = Member_id.of_int 5 in
  let gen = run_load ~profile:write_profile ~secs:4 cluster 9 in
  settle cluster (Time_ns.sec 1);
  Cluster.destroy_storage_node cluster pg suspect;
  settle cluster (Time_ns.ms 100);
  let replacement =
    match Cluster.start_replacement cluster pg ~suspect with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  settle cluster (Time_ns.sec 2);
  check_bool "caught up" true (Cluster.replacement_caught_up cluster pg ~replacement);
  (match Cluster.finish_replacement cluster pg ~suspect with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  settle cluster (Time_ns.sec 5);
  check_int "no commit failures through the change" 0 (Txn_gen.failed gen);
  let _, lost = audit ~cluster ~db:(Cluster.db cluster) ~gen in
  check_int "zero loss" 0 lost

(* ---- randomized fault schedules (the headline property) ---- *)

let random_fault_schedule ~seed =
  let cfg = { Cluster.default_config with seed; n_pgs = 2 } in
  let cluster = Cluster.create cfg in
  let sim = Cluster.sim cluster in
  let rng = Rng.create (seed * 31 + 7) in
  let db = Cluster.db cluster in
  let gen = run_load ~profile:write_profile ~secs:4 cluster (seed + 1) in
  (* Random storage-node crashes and restarts, never more than two at a
     time per group (stays within the fault budget the design promises). *)
  let downs = Hashtbl.create 8 in
  Sim.every sim ~interval:(Time_ns.ms 200) (fun () ->
      if Time_ns.compare (Sim.now sim) (Time_ns.sec 4) < 0 then begin
        let pg = Pg_id.of_int (Rng.int rng 2) in
        let m = Member_id.of_int (Rng.int rng 6) in
        let key = (Pg_id.to_int pg, Member_id.to_int m) in
        let down_count =
          Hashtbl.fold
            (fun (p, _) () acc -> if p = Pg_id.to_int pg then acc + 1 else acc)
            downs 0
        in
        if Hashtbl.mem downs key then begin
          Hashtbl.remove downs key;
          Cluster.restart_storage_node cluster pg m
        end
        else if down_count < 2 then begin
          Hashtbl.replace downs key ();
          Cluster.crash_storage_node cluster pg m
        end;
        true
      end
      else false);
  (* Writer crash mid-run, then recovery. *)
  ignore
    (Sim.schedule sim ~delay:(Time_ns.ms (1500 + Rng.int rng 1500)) (fun () ->
         Database.crash db));
  Sim.run_until sim (Time_ns.sec 5);
  (* Bring everything back up, recover, audit. *)
  Hashtbl.iter
    (fun (p, m) () ->
      Cluster.restart_storage_node cluster (Pg_id.of_int p) (Member_id.of_int m))
    downs;
  let recovered = ref false in
  Database.recover db (fun r -> recovered := Result.is_ok r);
  Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.sec 60));
  if not !recovered then Alcotest.failf "seed %d: recovery failed" seed;
  let checked, lost = audit ~cluster ~db ~gen in
  (seed, Txn_gen.acked gen, checked, lost)

let test_random_fault_schedules () =
  List.iter
    (fun seed ->
      let s, acked, checked, lost = random_fault_schedule ~seed in
      check_bool (Printf.sprintf "seed %d progressed" s) true (acked > 50);
      check_bool (Printf.sprintf "seed %d audited" s) true (checked > 0);
      check_int (Printf.sprintf "seed %d zero loss" s) 0 lost)
    [ 201; 202; 203; 204; 205 ]

(* ---- volume growth ---- *)

let test_volume_growth () =
  let cluster =
    Cluster.create { Cluster.default_config with seed = 113; n_pgs = 1 }
  in
  let db = Cluster.db cluster in
  let volume = Database.volume db in
  let before = Aurora_core.Volume.geometry_epoch volume in
  check_int "one group" 1 (Aurora_core.Volume.pg_count volume);
  (* Growth is driven through the Volume API; the harness's PG0 nodes keep
     serving. *)
  let membership = Layout.membership Layout.V6 in
  let members = Membership.members membership in
  (* Register fresh storage for the new group. *)
  (* Remember where a few existing blocks route before growth. *)
  let probe_blocks = List.init 8 (fun i -> Wal.Block_id.of_int (i * 17)) in
  let owners_before =
    List.map
      (fun b -> (Aurora_core.Volume.pg_of_block volume b).Aurora_core.Volume.id)
      probe_blocks
  in
  let g =
    Aurora_core.Volume.grow volume
      ~new_blocks_from:(Wal.Block_id.of_int 100_000)
      membership
      (List.map
         (fun (m : Membership.member) ->
           (m.Membership.id, Simnet.Addr.of_int (1000 + Member_id.to_int m.Membership.id)))
         members)
  in
  check_int "two groups" 2 (Aurora_core.Volume.pg_count volume);
  check_bool "geometry epoch bumped" true
    (Epoch.compare (Aurora_core.Volume.geometry_epoch volume) before > 0);
  check_bool "new group routable" true
    (Pg_id.equal g.Aurora_core.Volume.id (Pg_id.of_int 1));
  (* Old blocks keep their owners; new address space stripes over both. *)
  let owners_after =
    List.map
      (fun b -> (Aurora_core.Volume.pg_of_block volume b).Aurora_core.Volume.id)
      probe_blocks
  in
  check_bool "routing stable under growth" true (List.equal Pg_id.equal owners_before owners_after);
  check_bool "new range reaches the new group" true
    (Pg_id.equal
       (Aurora_core.Volume.pg_of_block volume (Wal.Block_id.of_int 100_001))
         .Aurora_core.Volume.id
       (Pg_id.of_int 1))

let test_cluster_grow_volume () =
  let cluster =
    Cluster.create { Cluster.default_config with seed = 114; n_pgs = 1 }
  in
  let gen = run_load ~profile:write_profile cluster 10 in
  settle cluster (Time_ns.sec 1);
  let new_pg = Cluster.grow_volume cluster in
  check_bool "new group id" true (Pg_id.equal new_pg (Pg_id.of_int 1));
  check_int "six more nodes" 12 (List.length (Cluster.storage_nodes cluster));
  settle cluster (Time_ns.sec 4);
  (* Writes keep flowing and the old group's data is untouched. *)
  check_int "no failures across growth" 0 (Txn_gen.failed gen);
  let _, lost = audit ~cluster ~db:(Cluster.db cluster) ~gen in
  check_int "zero loss across growth" 0 lost

let test_extended_az_loss_scheme_change () =
  (* §4.1: after an extended AZ outage, move the group from 4/6-of-3-AZs to
     3/4-of-2-AZs so writes regain a fault margin. *)
  let cluster =
    Cluster.create { Cluster.default_config with seed = 115; n_pgs = 1 }
  in
  let pg = Pg_id.of_int 0 in
  let db = Cluster.db cluster in
  let gen = run_load ~profile:write_profile ~secs:4 cluster 11 in
  settle cluster (Time_ns.sec 1);
  Cluster.fail_az cluster (Az.of_int 2);
  settle cluster (Time_ns.ms 300);
  (* With the AZ gone, 4/6 has zero margin: one more failure stalls writes.
     Re-form on the four survivors at 3/4. *)
  (match Cluster.change_scheme_3_of_4 cluster pg ~drop_az:(Az.of_int 2) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let g = Aurora_core.Volume.find_pg (Database.volume db) pg in
  check_int "four members" 4
    (List.length (Membership.members g.Aurora_core.Volume.membership));
  settle cluster (Time_ns.ms 500);
  (* Now one further node loss is tolerated (3/4).  Sample commit progress
     while the workload window (4 s) is still open. *)
  Cluster.crash_storage_node cluster pg (Member_id.of_int 0);
  settle cluster (Time_ns.ms 500);
  let acked_before = Txn_gen.acked gen in
  settle cluster (Time_ns.ms 800);
  check_bool "commits still flowing at 3/4 minus one" true
    (Txn_gen.acked gen > acked_before);
  settle cluster (Time_ns.sec 3);
  check_int "no commit failures" 0 (Txn_gen.failed gen);
  let _, lost = audit ~cluster ~db ~gen in
  check_int "zero loss" 0 lost

let test_recovery_under_lossy_network () =
  (* The recovery state machine retries probes/fetches/truncates; it must
     converge even when the network drops a quarter of all messages. *)
  let cluster = Cluster.create { Cluster.default_config with seed = 116 } in
  let db = Cluster.db cluster in
  let gen = run_load ~profile:write_profile cluster 12 in
  settle cluster (Time_ns.sec 3);
  Database.crash db;
  settle cluster (Time_ns.ms 100);
  Simnet.Net.set_drop_probability (Cluster.net cluster) 0.25;
  let recovered = ref false in
  Database.recover db (fun r -> recovered := Result.is_ok r);
  settle cluster (Time_ns.sec 60);
  check_bool "recovered despite loss" true !recovered;
  Simnet.Net.set_drop_probability (Cluster.net cluster) 0.;
  settle cluster (Time_ns.sec 2);
  let _, lost = audit ~cluster ~db ~gen in
  check_int "zero loss" 0 lost

let test_recovery_timeout () =
  (* With every storage node down, recovery must give up at its deadline
     with an error instead of hanging. *)
  let cluster = Cluster.create { Cluster.default_config with seed = 117 } in
  let db = Cluster.db cluster in
  let gen = run_load ~profile:write_profile ~secs:1 cluster 13 in
  settle cluster (Time_ns.sec 2);
  ignore gen;
  Database.crash db;
  List.iter Storage.Storage_node.crash (Cluster.storage_nodes cluster);
  settle cluster (Time_ns.ms 100);
  let result = ref None in
  Database.recover db (fun r -> result := Some r);
  settle cluster (Time_ns.sec 60);
  (match !result with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "recovered without any storage?!"
  | None -> Alcotest.fail "recovery neither failed nor finished");
  check_bool "stays closed" false (Database.is_open db);
  (* Storage returns; a second recovery attempt succeeds. *)
  List.iter Storage.Storage_node.restart (Cluster.storage_nodes cluster);
  let ok = ref false in
  Database.recover db (fun r -> ok := Result.is_ok r);
  settle cluster (Time_ns.sec 40);
  check_bool "second attempt succeeds" true !ok

let test_recovery_with_minimal_read_quorum () =
  (* Recovery must complete with exactly a read quorum (3/6) responding per
     group — the other three nodes stay dark. *)
  let cluster =
    Cluster.create { Cluster.default_config with seed = 118; n_pgs = 1 }
  in
  let pg = Pg_id.of_int 0 in
  let db = Cluster.db cluster in
  let gen = run_load ~profile:write_profile ~secs:1 cluster 14 in
  settle cluster (Time_ns.sec 2);
  Database.crash db;
  (* Kill half the fleet - but recovery also needs a WRITE quorum for the
     truncation record, so keep 4 up: 4/6 >= both quorums. *)
  List.iter
    (fun i -> Cluster.crash_storage_node cluster pg (Member_id.of_int i))
    [ 4; 5 ];
  settle cluster (Time_ns.ms 100);
  let ok = ref false in
  Database.recover db (fun r -> ok := Result.is_ok r);
  settle cluster (Time_ns.sec 40);
  check_bool "recovered with 4/6 up" true !ok;
  let _, lost = audit ~cluster ~db ~gen in
  check_int "zero loss" 0 lost

let () =
  Alcotest.run "integration"
    [
      ( "durability",
        [
          Alcotest.test_case "crash + recover, zero loss" `Slow
            test_crash_recover_zero_loss;
          Alcotest.test_case "crash mid-flight" `Slow test_crash_mid_flight;
          Alcotest.test_case "interrupted txns undone" `Slow
            test_recovery_interrupted_txns_invisible;
          Alcotest.test_case "double crash" `Slow test_double_crash_recover;
        ] );
      ( "storage faults",
        [
          Alcotest.test_case "two node loss tolerated" `Slow
            test_write_availability_two_node_loss;
          Alcotest.test_case "three node loss stalls then heals" `Slow
            test_write_stall_three_node_loss_heals;
          Alcotest.test_case "AZ outage" `Slow test_az_failure_continues;
        ] );
      ( "fencing",
        [ Alcotest.test_case "old writer boxed out" `Slow test_old_writer_fenced ] );
      ( "mtr",
        [ Alcotest.test_case "atomic at VDL anchors" `Slow test_mtr_atomicity_at_vdl ] );
      ( "replicas",
        [
          Alcotest.test_case "promotion zero loss" `Slow
            test_replica_promotion_zero_loss;
          Alcotest.test_case "lagging reads consistent" `Slow
            test_replica_reads_lag_consistently;
        ] );
      ( "membership",
        [
          Alcotest.test_case "replacement under load" `Slow
            test_replacement_under_load;
        ] );
      ( "fault schedules",
        [
          Alcotest.test_case "randomized crash schedules, zero loss" `Slow
            test_random_fault_schedules;
        ] );
      ( "growth",
        [
          Alcotest.test_case "volume growth (unit)" `Quick test_volume_growth;
          Alcotest.test_case "volume growth (cluster)" `Slow
            test_cluster_grow_volume;
        ] );
      ( "degraded modes",
        [
          Alcotest.test_case "extended AZ loss -> 3/4 scheme" `Slow
            test_extended_az_loss_scheme_change;
          Alcotest.test_case "recovery under lossy network" `Slow
            test_recovery_under_lossy_network;
          Alcotest.test_case "recovery timeout + second attempt" `Slow
            test_recovery_timeout;
          Alcotest.test_case "recovery with minimal quorum" `Slow
            test_recovery_with_minimal_read_quorum;
        ] );
    ]
