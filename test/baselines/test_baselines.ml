(* Tests for the baselines the experiments run: 2PC and Paxos commit (E6)
   and the ARIES cost model (E4). *)
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
  Alcotest.run "baselines"
    [
      ( "2pc",
        [
          Alcotest.test_case "commit" `Quick test_2pc_commit;
          Alcotest.test_case "abort" `Quick test_2pc_abort;
          Alcotest.test_case "blocking window" `Quick test_2pc_blocking_window;
        ] );
      ( "paxos_commit",
        [ Alcotest.test_case "replicated log" `Quick test_paxos_commit_log ] );
      ( "aries",
        [
          Alcotest.test_case "linear in backlog" `Quick test_aries_linear;
          Alcotest.test_case "simulated open" `Quick test_aries_simulated;
        ] );
    ]
