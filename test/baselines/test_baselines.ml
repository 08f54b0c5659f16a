(* Tests for the baseline protocols: 2PC, Paxos, Paxos commit, leases,
   write-all/read-one replication, and the ARIES cost model. *)
open Simcore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let addr = Simnet.Addr.of_int

let fixture ?(latency = Distribution.constant (Time_ns.us 100)) ?(seed = 42) () =
  let sim = Sim.create () in
  let rng = Rng.create seed in
  let net = Simnet.Net.create ~sim ~rng:(Rng.split rng) ~default_latency:latency () in
  (sim, rng, net)

let disk = Distribution.constant (Time_ns.us 50)

(* ---- 2PC ---- *)

let tpc_config ?(abort_p = 0.) n =
  {
    Baselines.Two_phase_commit.participants = List.init n (fun i -> addr (i + 1));
    coordinator = addr 0;
    log_force = disk;
    prepare_vote_abort_probability = abort_p;
  }

let test_2pc_commit () =
  let sim, rng, net = fixture () in
  let t = Baselines.Two_phase_commit.create ~sim ~rng ~net ~config:(tpc_config 3) () in
  let decision = ref None in
  Baselines.Two_phase_commit.commit t ~on_done:(fun d -> decision := Some d);
  Sim.run sim;
  check_bool "committed" true (!decision = Some Baselines.Two_phase_commit.Committed);
  let st = Baselines.Two_phase_commit.stats t in
  check_int "4n messages" 12 st.Baselines.Two_phase_commit.messages;
  check_int "no in-doubt left" 0 (Baselines.Two_phase_commit.blocked_transactions t)

let test_2pc_abort () =
  let sim, rng, net = fixture () in
  let t =
    Baselines.Two_phase_commit.create ~sim ~rng ~net
      ~config:(tpc_config ~abort_p:1. 3) ()
  in
  let decision = ref None in
  Baselines.Two_phase_commit.commit t ~on_done:(fun d -> decision := Some d);
  Sim.run sim;
  check_bool "aborted" true (!decision = Some Baselines.Two_phase_commit.Aborted)

let test_2pc_blocking_window () =
  (* Coordinator dies between phases: participants stay in doubt. *)
  let sim, rng, net = fixture () in
  let t = Baselines.Two_phase_commit.create ~sim ~rng ~net ~config:(tpc_config 3) () in
  Baselines.Two_phase_commit.commit t ~on_done:(fun _ -> ());
  (* Kill the coordinator after prepares land but before decides. *)
  ignore
    (Sim.schedule sim ~delay:(Time_ns.us 200) (fun () ->
         Simnet.Net.set_down net (addr 0)));
  Sim.run_until sim (Time_ns.sec 1);
  check_bool "participants blocked in doubt" true
    (Baselines.Two_phase_commit.blocked_transactions t > 0)

(* ---- Paxos (single decree) ---- *)

let paxos_config n =
  {
    Baselines.Paxos.acceptors = List.init n (fun i -> addr (i + 10));
    log_force = disk;
    retry_timeout = Time_ns.ms 5;
  }

let test_paxos_single_proposer () =
  let sim, rng, net = fixture () in
  let p = Baselines.Paxos.create ~sim ~rng ~net ~config:(paxos_config 5) () in
  let chosen = ref None in
  Baselines.Paxos.propose p ~proposer:(addr 0) ~proposer_id:0 42
    ~on_chosen:(fun v -> chosen := Some v);
  Sim.run_until sim (Time_ns.sec 1);
  Alcotest.(check (option int)) "chosen" (Some 42) !chosen;
  Alcotest.(check (option int)) "acceptor majority agrees" (Some 42)
    (Baselines.Paxos.chosen p)

let test_paxos_contention_agreement () =
  (* Two duelling proposers must agree on a single value. *)
  let sim, rng, net = fixture () in
  let p = Baselines.Paxos.create ~sim ~rng ~net ~config:(paxos_config 5) () in
  let c1 = ref None and c2 = ref None in
  Baselines.Paxos.propose p ~proposer:(addr 0) ~proposer_id:0 100
    ~on_chosen:(fun v -> c1 := Some v);
  Baselines.Paxos.propose p ~proposer:(addr 1) ~proposer_id:1 200
    ~on_chosen:(fun v -> c2 := Some v);
  Sim.run_until sim (Time_ns.sec 10);
  check_bool "both decided" true (!c1 <> None && !c2 <> None);
  check_bool "agreement" true (!c1 = !c2);
  check_bool "one of the proposals" true (!c1 = Some 100 || !c1 = Some 200)

let prop_paxos_agreement_under_loss =
  QCheck.Test.make ~name:"paxos agreement under message loss" ~count:25
    QCheck.(pair (int_range 0 9999) (int_range 0 30))
    (fun (seed, drop_pct) ->
      let sim, rng, net = fixture ~seed () in
      Simnet.Net.set_drop_probability net (float_of_int drop_pct /. 100.);
      let p = Baselines.Paxos.create ~sim ~rng ~net ~config:(paxos_config 5) () in
      let c1 = ref None and c2 = ref None in
      Baselines.Paxos.propose p ~proposer:(addr 0) ~proposer_id:0 1
        ~on_chosen:(fun v -> c1 := Some v);
      Baselines.Paxos.propose p ~proposer:(addr 1) ~proposer_id:1 2
        ~on_chosen:(fun v -> c2 := Some v);
      Sim.run_until sim (Time_ns.sec 60);
      (* Liveness needs fair loss; safety must hold regardless: any two
         decisions agree, and the acceptor-state oracle matches. *)
      match (!c1, !c2) with
      | Some a, Some b ->
        a = b
        && (match Baselines.Paxos.chosen p with Some v -> v = a | None -> true)
      | Some a, None | None, Some a -> (
        match Baselines.Paxos.chosen p with Some v -> v = a | None -> true)
      | None, None -> true)

(* ---- Paxos commit ---- *)

let test_paxos_commit_log () =
  (* The uneven log force lets an acceptor's peers answer the leader while
     it is still forcing: its own reply, sent afterwards, must still go to
     the sender of the Accept.  Commits are spaced so that Accepted
     replies and new Accepts interleave. *)
  let sim, rng, net = fixture () in
  let px =
    Baselines.Paxos_commit.create ~sim ~rng ~net
      ~config:
        {
          Baselines.Paxos_commit.leader = addr 0;
          acceptors = List.init 5 (fun i -> addr (i + 1));
          log_force = Distribution.uniform ~lo:(Time_ns.us 20) ~hi:(Time_ns.us 400);
        }
      ()
  in
  let acked = ref 0 in
  for i = 1 to 10 do
    Baselines.Paxos_commit.commit px ~value:i ~on_done:(fun () -> incr acked)
  done;
  for i = 11 to 20 do
    ignore
      (Sim.schedule sim ~delay:(Time_ns.ms i) (fun () ->
           Baselines.Paxos_commit.commit px ~value:i ~on_done:(fun () ->
               incr acked))
        : Sim.event_id)
  done;
  Sim.run_until sim (Time_ns.sec 1);
  check_int "all acked" 20 !acked;
  check_int "log length" 20 (Baselines.Paxos_commit.log_length px)

(* ---- Lease ---- *)

let test_lease () =
  let sim = Sim.create () in
  let l =
    Baselines.Lease.create ~sim ~duration:(Time_ns.ms 100)
      ~max_clock_skew:(Time_ns.ms 10)
  in
  check_bool "first acquire" true (Baselines.Lease.acquire l ~holder:1 = Ok ());
  (* A contender must wait for duration + skew. *)
  (match Baselines.Lease.acquire l ~holder:2 with
  | Error wait -> check_int "full wait" (Time_ns.ms 110) wait
  | Ok () -> Alcotest.fail "lease stolen");
  check_bool "incumbent renews" true (Baselines.Lease.renew l ~holder:1);
  (* After expiry (no renewal), takeover succeeds immediately. *)
  Sim.run_until sim (Time_ns.ms 200);
  check_bool "expired" true (Baselines.Lease.holder l (Sim.now sim) = None);
  check_bool "takeover" true (Baselines.Lease.acquire l ~holder:2 = Ok ());
  check_bool "old holder locked out" false (Baselines.Lease.renew l ~holder:1)

(* ---- WARO ---- *)

let test_waro () =
  let sim, rng, net = fixture () in
  let w =
    Baselines.Waro.create ~sim ~rng ~net
      ~config:
        {
          Baselines.Waro.client = addr 0;
          replicas = List.init 3 (fun i -> addr (i + 1));
          disk;
        }
      ()
  in
  let wrote = ref false and read_back = ref None in
  Baselines.Waro.write w ~key:"k" ~value:"v" ~on_done:(fun () ->
      wrote := true;
      Baselines.Waro.read w ~key:"k" ~on_done:(fun v -> read_back := Some v));
  Sim.run sim;
  check_bool "write completed" true !wrote;
  Alcotest.(check (option (option string))) "read one copy" (Some (Some "v")) !read_back;
  (* One dead replica blocks all writes: the availability flip side. *)
  Simnet.Net.set_down net (addr 3);
  let wrote2 = ref false in
  Baselines.Waro.write w ~key:"k2" ~value:"v2" ~on_done:(fun () -> wrote2 := true);
  Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.sec 1));
  check_bool "write-all blocked by one failure" false !wrote2

(* ---- ARIES model ---- *)

let test_aries_linear () =
  let cfg = Baselines.Aries.default_config in
  let t1 = Baselines.Aries.recovery_time cfg ~log_bytes:1_000_000 ~records:10_000 ~loser_records:0 in
  let t2 = Baselines.Aries.recovery_time cfg ~log_bytes:10_000_000 ~records:100_000 ~loser_records:0 in
  check_bool "10x backlog ~10x recovery" true
    (t2.Baselines.Aries.total > 9 * t1.Baselines.Aries.total / 10 * 10);
  check_bool "undo adds time" true
    ((Baselines.Aries.recovery_time cfg ~log_bytes:1_000_000 ~records:10_000
        ~loser_records:5_000)
       .Baselines.Aries.total
    > t1.Baselines.Aries.total)

let test_aries_simulated () =
  let sim = Sim.create () in
  let opened = ref false in
  Baselines.Aries.simulate ~sim Baselines.Aries.default_config
    ~log_bytes:1_000_000 ~records:10_000 ~loser_records:100 ~on_open:(fun () ->
      opened := true);
  Sim.run sim;
  check_bool "opens" true !opened;
  check_bool "took real time" true (Sim.now sim > Time_ns.ms 10)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "baselines"
    [
      ( "2pc",
        [
          Alcotest.test_case "commit" `Quick test_2pc_commit;
          Alcotest.test_case "abort" `Quick test_2pc_abort;
          Alcotest.test_case "blocking window" `Quick test_2pc_blocking_window;
        ] );
      ( "paxos",
        [
          Alcotest.test_case "single proposer" `Quick test_paxos_single_proposer;
          Alcotest.test_case "contention agreement" `Quick
            test_paxos_contention_agreement;
          qc prop_paxos_agreement_under_loss;
        ] );
      ( "paxos_commit",
        [ Alcotest.test_case "replicated log" `Quick test_paxos_commit_log ] );
      ("lease", [ Alcotest.test_case "expiry semantics" `Quick test_lease ]);
      ("waro", [ Alcotest.test_case "write-all read-one" `Quick test_waro ]);
      ( "aries",
        [
          Alcotest.test_case "linear in backlog" `Quick test_aries_linear;
          Alcotest.test_case "simulated open" `Quick test_aries_simulated;
        ] );
    ]
