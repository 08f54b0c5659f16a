(* Tests for the workload generators. *)
open Simcore

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_zipf_bounds () =
  let z = Workload.Zipf.create ~n:100 ~theta:0.9 in
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Workload.Zipf.sample z rng in
    check_bool "in range" true (v >= 0 && v < 100)
  done

let test_zipf_skew () =
  let z = Workload.Zipf.create ~n:1000 ~theta:0.99 in
  let rng = Rng.create 5 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let v = Workload.Zipf.sample z rng in
    counts.(v) <- counts.(v) + 1
  done;
  check_bool "rank 0 hottest" true (counts.(0) > counts.(10));
  check_bool "heavy head" true (counts.(0) > 50_000 / 20)

let test_zipf_uniform () =
  let z = Workload.Zipf.create ~n:10 ~theta:0. in
  let rng = Rng.create 7 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    counts.(Workload.Zipf.sample z rng) <- counts.(Workload.Zipf.sample z rng) + 1
  done;
  Array.iter (fun c -> check_bool "roughly uniform" true (c > 1500 && c < 2500)) counts

let test_txn_gen_closed_loop () =
  let cluster = Harness.Cluster.create Harness.Cluster.default_config in
  let sim = Harness.Cluster.sim cluster in
  let gen =
    Workload.Txn_gen.create ~sim ~rng:(Rng.create 11)
      ~db:(Harness.Cluster.db cluster)
      ~profile:Workload.Txn_gen.default_profile ()
  in
  Workload.Txn_gen.run_closed_loop gen ~clients:4
    ~think_time:(Distribution.constant (Time_ns.ms 1))
    ~duration:(Time_ns.sec 1);
  Sim.run_until sim (Time_ns.sec 3);
  check_bool "issued plenty" true (Workload.Txn_gen.issued gen > 50);
  check_int "all acked" (Workload.Txn_gen.issued gen) (Workload.Txn_gen.acked gen);
  check_int "none failed" 0 (Workload.Txn_gen.failed gen);
  check_int "no unacked writes left" 0
    (List.length (Workload.Txn_gen.unacked_writes gen));
  check_bool "latency recorded" true
    (Simcore.Histogram.count (Workload.Txn_gen.commit_latency gen) > 0);
  (* The issue-order log tags every write of an acked txn as acked. *)
  check_bool "issue-order log consistent" true
    (List.for_all (fun (_, _, acked) -> acked)
       (Workload.Txn_gen.writes_in_issue_order gen))

let test_txn_gen_open_loop_rate () =
  let cluster =
    Harness.Cluster.create { Harness.Cluster.default_config with seed = 5 }
  in
  let sim = Harness.Cluster.sim cluster in
  let gen =
    Workload.Txn_gen.create ~sim ~rng:(Rng.create 13)
      ~db:(Harness.Cluster.db cluster)
      ~profile:{ Workload.Txn_gen.default_profile with ops_per_txn = 1; write_fraction = 1. }
      ()
  in
  Workload.Txn_gen.run_open_loop gen ~rate_per_sec:1000. ~duration:(Time_ns.sec 2);
  Sim.run_until sim (Time_ns.sec 4);
  let issued = Workload.Txn_gen.issued gen in
  check_bool "roughly 2000 arrivals" true (issued > 1700 && issued < 2300)

(* ---- the durability oracle against a brute-force model ---- *)

module Txn_gen = Workload.Txn_gen

(* A crash/recover history on eight keys, so keys collide: the first
   crash leaves in-doubt writes that later acks on the same keys overtake,
   the second leaves in-doubt writes after some keys' last ack.  The
   network drops every message for the 10 ms before the first crash, so
   the transactions issued then leave nothing durable and the recovered
   writer reuses their ids. *)
let crash_history () =
  let cluster =
    Harness.Cluster.create { Harness.Cluster.default_config with seed = 17 }
  in
  let sim = Harness.Cluster.sim cluster in
  let db = Harness.Cluster.db cluster in
  let gen =
    Txn_gen.create ~sim ~rng:(Rng.create 23) ~db
      ~profile:
        {
          Txn_gen.default_profile with
          key_count = 8;
          zipf_theta = 0.;
          ops_per_txn = 2;
          write_fraction = 1.;
        }
      ()
  in
  Txn_gen.run_open_loop gen ~rate_per_sec:2000. ~duration:(Time_ns.ms 900);
  let at ms f = ignore (Sim.schedule sim ~delay:(Time_ns.ms ms) f) in
  let net = Harness.Cluster.net cluster in
  at 290 (fun () -> Simnet.Net.set_drop_probability net 1.);
  at 300 (fun () -> Aurora_core.Database.crash db);
  at 340 (fun () -> Simnet.Net.set_drop_probability net 0.);
  at 350 (fun () -> Aurora_core.Database.recover db (fun _ -> ()));
  at 800 (fun () -> Aurora_core.Database.crash db);
  Sim.run_until sim (Time_ns.sec 2);
  gen

(* The model: per key, the values from its last acked write onward, in
   issue order; a key with no acked write is not read. *)
let model_valid writes =
  let keys =
    List.sort_uniq String.compare (List.map (fun (k, _, _) -> k) writes)
  in
  List.filter_map
    (fun key ->
      let own = List.filter (fun (k, _, _) -> String.equal k key) writes in
      let rec from_last_ack = function
        | [] -> None
        | ((_, _, acked) :: rest) as l ->
          if List.exists (fun (_, _, a) -> a) rest then from_last_ack rest
          else if acked then Some l
          else None
      in
      Option.map
        (fun l -> (key, List.map (fun (_, v, _) -> v) l))
        (from_last_ack own))
    keys

let test_audit_matches_model () =
  let gen = crash_history () in
  let writes = Txn_gen.writes_in_issue_order gen in
  let valid = model_valid writes in
  let values_of key acked_filter =
    List.filter_map
      (fun (k, v, acked) ->
        if String.equal k key && acked_filter acked then Some v else None)
      writes
  in
  (* The history has the shape the mutants need. *)
  let in_doubt_before_ack, in_doubt_after_ack =
    List.fold_left
      (fun (before, after) (key, vs) ->
        let in_doubt = values_of key not in
        let after_ack = List.filter (fun v -> List.mem v vs) in_doubt in
        ( before + List.length in_doubt - List.length after_ack,
          after + List.length after_ack ))
      (0, 0) valid
  in
  check_bool "in-doubt writes before a later ack" true (in_doubt_before_ack > 0);
  check_bool "in-doubt writes after the last ack" true (in_doubt_after_ack > 0);
  (* Each ack marks its own record: every transaction wrote, so the acked
     records number exactly the acks. *)
  check_int "one acked record per ack" (Txn_gen.acked gen)
    (List.length (Txn_gen.acked_writes gen));
  let rng = Rng.create 29 in
  for round = 1 to 50 do
    let label what = Printf.sprintf "round %d: %s" round what in
    let answers = ref [] and flagged = ref [] in
    let get ~key k =
      let all = values_of key (fun _ -> true) in
      let in_doubt = values_of key not in
      let result =
        match Rng.int rng 5 with
        | 0 -> Ok None
        | 1 -> Error "scripted"
        | 2 -> Ok (Some (List.nth all (List.length all - 1)))
        | 3 when in_doubt <> [] -> Ok (Some (Rng.pick_list rng in_doubt))
        | _ -> Ok (Some (Rng.pick_list rng all))
      in
      answers := (key, result) :: !answers;
      k result
    in
    let read = Txn_gen.audit gen ~get (fun ~key _ -> flagged := key :: !flagged) in
    let answers = List.rev !answers in
    check_int (label "keys read") (List.length valid) read;
    Alcotest.(check (list string))
      (label "every acked key, in key order")
      (List.map fst valid) (List.map fst answers);
    let expected =
      List.filter_map
        (fun (key, result) ->
          let vs = List.assoc key valid in
          match result with
          | Ok (Some v) when List.mem v vs -> None
          | Ok _ | Error _ -> Some key)
        answers
    in
    Alcotest.(check (list string))
      (label "flagged keys") expected (List.rev !flagged)
  done

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "uniform at theta=0" `Quick test_zipf_uniform;
        ] );
      ( "txn_gen",
        [
          Alcotest.test_case "closed loop" `Slow test_txn_gen_closed_loop;
          Alcotest.test_case "open loop rate" `Slow test_txn_gen_open_loop_rate;
          Alcotest.test_case "audit matches brute-force model" `Slow
            test_audit_matches_model;
        ] );
    ]
