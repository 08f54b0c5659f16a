(* Unit tests for the read path (§3.1): latency tracking, hedging,
   retries, and the quorum-read baseline — against scripted fake storage
   nodes so each behaviour is isolated. *)
open Simcore
open Wal
open Quorum
module Protocol = Storage.Protocol
module Reader = Aurora_core.Reader

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let addr = Simnet.Addr.of_int
let m = Member_id.of_int
let lsn = Lsn.of_int
let pg0 = Storage.Pg_id.of_int 0

let epochs = { Protocol.volume = Epoch.initial; membership = Epoch.initial }

let image =
  {
    Protocol.image_block = Block_id.of_int 0;
    image_as_of = lsn 10;
    image_entries = [ ("k", []) ];
    image_bytes = Protocol.snapshot_bytes [ ("k", []) ];
  }

(* A scripted segment server: replies to Read_block after [delay], with
   [result]; counts requests. *)
let fake_server ~sim ~net ~a ?(delay = Time_ns.us 500)
    ?(result = Ok image) () =
  let hits = ref 0 in
  Simnet.Net.register net a (fun env ->
      match env.Simnet.Net.msg with
      | Protocol.Read_block { req; seg; _ } ->
        incr hits;
        ignore
          (Sim.schedule sim ~delay (fun () ->
               Simnet.Net.send net ~src:a ~dst:env.Simnet.Net.src
                 (Protocol.Read_reply { req; seg; result })))
      | _ -> ());
  hits

let fixture ~strategy =
  let sim = Sim.create () in
  let rng = Rng.create 11 in
  let net =
    Simnet.Net.create ~sim ~rng:(Rng.split rng)
      ~default_latency:(Distribution.constant (Time_ns.us 100)) ()
  in
  let my = addr 99 in
  let reader = Reader.create ~sim ~rng ~net ~my_addr:my ~strategy () in
  Simnet.Net.register net my (fun env ->
      match env.Simnet.Net.msg with
      | Protocol.Read_reply { req; seg; result } ->
        Reader.on_reply reader ~req ~seg ~from:env.Simnet.Net.src ~result
      | _ -> ());
  (sim, net, reader)

let direct ?hedge ?(explore = 0.) () =
  Reader.Direct_tracked { hedge_after = hedge; explore_probability = explore }

let do_read ?(candidates = [ (m 0, addr 0); (m 1, addr 1); (m 2, addr 2) ])
    reader =
  let result = ref None in
  Reader.read reader ~pg:pg0 ~candidates ~block:(Block_id.of_int 0)
    ~as_of:(lsn 10) ~epochs ~callback:(fun r -> result := Some r);
  result

let test_single_io_on_healthy () =
  let sim, net, reader = fixture ~strategy:(direct ()) in
  let h0 = fake_server ~sim ~net ~a:(addr 0) () in
  let h1 = fake_server ~sim ~net ~a:(addr 1) () in
  let h2 = fake_server ~sim ~net ~a:(addr 2) () in
  let r = do_read reader in
  Sim.run sim;
  check_bool "completed ok" true (match !r with Some (Ok _) -> true | _ -> false);
  check_int "exactly one IO" 1 (!h0 + !h1 + !h2);
  check_int "metric agrees" 1 (Reader.metrics reader).Reader.ios_issued

let test_prefers_fast_node () =
  let sim, net, reader = fixture ~strategy:(direct ()) in
  let h0 = fake_server ~sim ~net ~a:(addr 0) ~delay:(Time_ns.ms 5) () in
  let h1 = fake_server ~sim ~net ~a:(addr 1) ~delay:(Time_ns.us 200) () in
  let h2 = fake_server ~sim ~net ~a:(addr 2) ~delay:(Time_ns.ms 5) () in
  (* Warm-up reads teach the tracker who is fast. *)
  for _ = 1 to 10 do
    ignore (do_read reader);
    Sim.run sim
  done;
  let before = !h1 in
  for _ = 1 to 20 do
    ignore (do_read reader);
    Sim.run sim
  done;
  check_int "all steady-state reads hit the fast node" 20 (!h1 - before);
  check_bool "slow nodes untouched in steady state" true (!h0 + !h2 <= 3);
  check_bool "ewma learned" true
    (match Reader.observed_latency reader (addr 1) with
    | Some v -> v < 1_000_000.
    | None -> false)

let test_hedge_fires_on_slow_reply () =
  let sim, net, reader =
    fixture ~strategy:(direct ~hedge:(Time_ns.ms 1) ())
  in
  (* Best-looking node is silent; hedge must rescue the read. *)
  let h0 = ref 0 in
  Simnet.Net.register net (addr 0) (fun _ -> incr h0) (* never replies *);
  let h1 = fake_server ~sim ~net ~a:(addr 1) () in
  let r = do_read reader in
  Sim.run sim;
  check_bool "rescued" true (match !r with Some (Ok _) -> true | _ -> false);
  check_bool "hedge counted" true ((Reader.metrics reader).Reader.hedges >= 1);
  check_bool "second node served" true (!h1 >= 1);
  check_bool "first was tried" true (!h0 >= 1)

let test_retry_on_error_reply () =
  let sim, net, reader = fixture ~strategy:(direct ()) in
  let h0 =
    fake_server ~sim ~net ~a:(addr 0)
      ~result:(Error (Protocol.Beyond_scl (lsn 3)))
      ()
  in
  let h1 = fake_server ~sim ~net ~a:(addr 1) () in
  let r = do_read reader in
  Sim.run sim;
  check_bool "eventually ok" true (match !r with Some (Ok _) -> true | _ -> false);
  check_int "first tried" 1 !h0;
  check_int "retried next" 1 !h1;
  check_int "retry counted" 1 (Reader.metrics reader).Reader.retries

let test_all_fail () =
  let sim, net, reader = fixture ~strategy:(direct ()) in
  List.iter
    (fun a ->
      ignore
        (fake_server ~sim ~net ~a ~result:(Error Protocol.Tail_segment) ()))
    [ addr 0; addr 1; addr 2 ];
  let r = do_read reader in
  Sim.run sim;
  check_bool "fails cleanly" true
    (match !r with Some (Error _) -> true | _ -> false);
  check_int "failure counted" 1 (Reader.metrics reader).Reader.failures

let test_no_candidates () =
  let _, _, reader = fixture ~strategy:(direct ()) in
  let r = do_read ~candidates:[] reader in
  check_bool "immediate error" true
    (match !r with Some (Error _) -> true | _ -> false)

let test_quorum_read_amplification () =
  let sim, net, reader =
    fixture ~strategy:(Reader.Quorum_read { read_threshold = 3 })
  in
  let h0 = fake_server ~sim ~net ~a:(addr 0) () in
  let h1 = fake_server ~sim ~net ~a:(addr 1) () in
  let h2 = fake_server ~sim ~net ~a:(addr 2) () in
  let r = do_read reader in
  Sim.run sim;
  check_bool "ok" true (match !r with Some (Ok _) -> true | _ -> false);
  check_int "three IOs" 3 (!h0 + !h1 + !h2)

let test_quorum_read_needs_enough_candidates () =
  let _, _, reader =
    fixture ~strategy:(Reader.Quorum_read { read_threshold = 3 })
  in
  let r = do_read ~candidates:[ (m 0, addr 0); (m 1, addr 1) ] reader in
  check_bool "fails without quorum candidates" true
    (match !r with Some (Error _) -> true | _ -> false)

let test_late_duplicate_ignored () =
  (* The losing hedge reply after completion must be a no-op. *)
  let sim, net, reader =
    fixture ~strategy:(direct ~hedge:(Time_ns.ms 1) ())
  in
  let _ = fake_server ~sim ~net ~a:(addr 0) ~delay:(Time_ns.ms 10) () in
  let _ = fake_server ~sim ~net ~a:(addr 1) () in
  let fired = ref 0 in
  Reader.read reader ~pg:pg0
    ~candidates:[ (m 0, addr 0); (m 1, addr 1) ]
    ~block:(Block_id.of_int 0) ~as_of:(lsn 10) ~epochs
    ~callback:(fun _ -> incr fired);
  Sim.run sim;
  check_int "callback exactly once" 1 !fired;
  check_int "nothing outstanding" 0 (Reader.outstanding reader)

let () =
  Alcotest.run "reader"
    [
      ( "direct",
        [
          Alcotest.test_case "one IO when healthy" `Quick test_single_io_on_healthy;
          Alcotest.test_case "prefers fast node" `Quick test_prefers_fast_node;
          Alcotest.test_case "hedge rescues slow reply" `Quick
            test_hedge_fires_on_slow_reply;
          Alcotest.test_case "retry on error" `Quick test_retry_on_error_reply;
          Alcotest.test_case "all candidates fail" `Quick test_all_fail;
          Alcotest.test_case "no candidates" `Quick test_no_candidates;
          Alcotest.test_case "late duplicate ignored" `Quick
            test_late_duplicate_ignored;
        ] );
      ( "quorum baseline",
        [
          Alcotest.test_case "3x amplification" `Quick test_quorum_read_amplification;
          Alcotest.test_case "needs candidates" `Quick
            test_quorum_read_needs_enough_candidates;
        ] );
    ]
