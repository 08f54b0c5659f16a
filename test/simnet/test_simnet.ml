(* Tests for the simulated network. *)
open Simcore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let addr = Simnet.Addr.of_int

let fixture ?(latency = Distribution.constant (Time_ns.us 100)) () =
  let sim = Sim.create () in
  let rng = Rng.create 7 in
  let net = Simnet.Net.create ~sim ~rng ~default_latency:latency () in
  (sim, net)

let collector net a =
  let got = ref [] in
  Simnet.Net.register net a (fun env -> got := env.Simnet.Net.msg :: !got);
  got

let test_delivery_latency () =
  let sim, net = fixture () in
  let got = collector net (addr 1) in
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "hello";
  check_int "not yet delivered" 0 (List.length !got);
  Sim.run sim;
  Alcotest.(check (list string)) "delivered" [ "hello" ] !got;
  check_int "after link latency" (Time_ns.us 100) (Sim.now sim)

let test_down_node_drops () =
  let sim, net = fixture () in
  let got = collector net (addr 1) in
  Simnet.Net.set_down net (addr 1);
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "x";
  Sim.run sim;
  check_int "dropped" 0 (List.length !got);
  let st = Simnet.Net.stats net in
  check_int "stat dropped" 1 st.Simnet.Net.dropped;
  (* Coming back up does not resurrect lost messages. *)
  Simnet.Net.set_up net (addr 1);
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "y";
  Sim.run sim;
  Alcotest.(check (list string)) "only the new one" [ "y" ] !got

let test_crash_in_flight () =
  (* A node that dies while the message is in flight never sees it. *)
  let sim, net = fixture () in
  let got = collector net (addr 1) in
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "x";
  ignore (Sim.schedule sim ~delay:(Time_ns.us 50) (fun () -> Simnet.Net.set_down net (addr 1)));
  Sim.run sim;
  check_int "lost in flight" 0 (List.length !got)

let test_partition_and_heal () =
  let sim, net = fixture () in
  let got = collector net (addr 1) in
  Simnet.Net.partition net
    (Simnet.Addr.Set.singleton (addr 0))
    (Simnet.Addr.Set.singleton (addr 1));
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "blocked";
  Sim.run sim;
  check_int "partitioned" 0 (List.length !got);
  Simnet.Net.heal_partition net
    (Simnet.Addr.Set.singleton (addr 0))
    (Simnet.Addr.Set.singleton (addr 1));
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "through";
  Sim.run sim;
  Alcotest.(check (list string)) "healed" [ "through" ] !got

let test_drop_cause_split () =
  (* Every drop lands in exactly one cause counter, and the aggregate
     [dropped] is their sum — so a fault scenario can attribute loss to a
     partition nemesis vs. a pinpoint block vs. a dead node. *)
  let sim, net = fixture () in
  ignore (collector net (addr 1) : string list ref);
  ignore (collector net (addr 2) : string list ref);
  Simnet.Net.set_down net (addr 3);
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 3) "to-dead";
  Simnet.Net.block net (addr 0) (addr 1);
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "blocked";
  Simnet.Net.partition net
    (Simnet.Addr.Set.singleton (addr 0))
    (Simnet.Addr.Set.singleton (addr 2));
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 2) "partitioned";
  Sim.run sim;
  let st = Simnet.Net.stats net in
  check_int "down" 1 st.Simnet.Net.dropped_down;
  check_int "blocked" 1 st.Simnet.Net.dropped_blocked;
  check_int "partition" 1 st.Simnet.Net.dropped_partition;
  check_int "random" 0 st.Simnet.Net.dropped_random;
  check_int "sum" 3 st.Simnet.Net.dropped;
  (* A partition laid over an existing block re-attributes the link (last
     cause wins); healing the partition severs nothing else — the earlier
     pinpoint block is gone with it. *)
  Simnet.Net.partition net
    (Simnet.Addr.Set.singleton (addr 0))
    (Simnet.Addr.Set.singleton (addr 1));
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "now-partition";
  Sim.run sim;
  let st = Simnet.Net.stats net in
  check_int "re-attributed to partition" 2 st.Simnet.Net.dropped_partition;
  check_int "blocked unchanged" 1 st.Simnet.Net.dropped_blocked

let test_drop_probability () =
  let sim, net = fixture () in
  let got = collector net (addr 1) in
  Simnet.Net.set_drop_probability net 0.5;
  for _ = 1 to 1000 do
    Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "m"
  done;
  Sim.run sim;
  let n = List.length !got in
  check_bool "about half delivered" true (n > 400 && n < 600)

let test_slowdown () =
  let sim, net = fixture () in
  let at = ref Time_ns.zero in
  Simnet.Net.register net (addr 1) (fun _ -> at := Sim.now sim);
  Simnet.Net.set_node_slowdown net (addr 1) 4.;
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "slow";
  Sim.run sim;
  check_int "4x latency" (Time_ns.us 400) !at

let test_per_link_latency () =
  let sim, net = fixture () in
  let at = ref Time_ns.zero in
  Simnet.Net.register net (addr 1) (fun _ -> at := Sim.now sim);
  Simnet.Net.set_link_latency net ~src:(addr 0) ~dst:(addr 1)
    (Distribution.constant (Time_ns.ms 3));
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "far";
  Sim.run sim;
  check_int "link override" (Time_ns.ms 3) !at

let test_bytes_accounting () =
  let sim, net = fixture () in
  let _ = collector net (addr 1) in
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) ~bytes:500 "big";
  Sim.run sim;
  let st = Simnet.Net.stats net in
  check_int "bytes sent" 500 st.Simnet.Net.bytes_sent;
  check_int "bytes delivered" 500 st.Simnet.Net.bytes_delivered

(* Each delivery gets its own envelope, so a handler may keep them: every
   kept envelope still shows the source and payload it arrived with. *)
let test_kept_envelopes () =
  let sim, net = fixture () in
  let kept = ref [] in
  Simnet.Net.register net (addr 9) (fun env -> kept := env :: !kept);
  for i = 1 to 3 do
    Simnet.Net.send net ~src:(addr i) ~dst:(addr 9) (string_of_int i)
  done;
  Sim.run sim;
  Alcotest.(check (list (pair int string)))
    "each kept envelope has its own src and msg"
    [ (1, "1"); (2, "2"); (3, "3") ]
    (List.rev_map
       (fun (env : string Simnet.Net.envelope) ->
         (Simnet.Addr.to_int env.src, env.msg))
       !kept)

let prop_no_reorder_on_constant_latency =
  QCheck.Test.make ~name:"constant-latency link preserves send order" ~count:50
    QCheck.(int_range 2 50)
    (fun n ->
      let sim, net = fixture () in
      let got = ref [] in
      Simnet.Net.register net (addr 1) (fun env ->
          got := env.Simnet.Net.msg :: !got);
      for i = 1 to n do
        Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) i
      done;
      Sim.run sim;
      List.rev !got = List.init n (fun i -> i + 1))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "simnet"
    [
      ( "delivery",
        [
          Alcotest.test_case "latency" `Quick test_delivery_latency;
          Alcotest.test_case "per-link override" `Quick test_per_link_latency;
          Alcotest.test_case "bytes accounting" `Quick test_bytes_accounting;
          Alcotest.test_case "kept envelopes" `Quick test_kept_envelopes;
          qc prop_no_reorder_on_constant_latency;
        ] );
      ( "faults",
        [
          Alcotest.test_case "down node" `Quick test_down_node_drops;
          Alcotest.test_case "crash in flight" `Quick test_crash_in_flight;
          Alcotest.test_case "partition + heal" `Quick test_partition_and_heal;
          Alcotest.test_case "drop cause split" `Quick test_drop_cause_split;
          Alcotest.test_case "drop probability" `Quick test_drop_probability;
          Alcotest.test_case "slowdown factor" `Quick test_slowdown;
        ] );
    ]
