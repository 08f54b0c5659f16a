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

(* ---- The per-link record ---- *)

let link_stats_of net =
  List.map
    (fun ((src, dst), (l : Simnet.Net.link_stat)) ->
      ( (src, dst),
        [ l.sent_on; l.delivered_on; l.drop_down; l.drop_blocked;
          l.drop_partition; l.drop_random ] ))
    (Simnet.Net.link_stats net)

let check_links msg expected net =
  Alcotest.(check (list (pair (pair int int) (list int))))
    msg expected (link_stats_of net)

let check_drops msg net ~down ~blocked ~partition ~random =
  let st = Simnet.Net.stats net in
  check_int (msg ^ ": down") down st.Simnet.Net.dropped_down;
  check_int (msg ^ ": blocked") blocked st.Simnet.Net.dropped_blocked;
  check_int (msg ^ ": partition") partition st.Simnet.Net.dropped_partition;
  check_int (msg ^ ": random") random st.Simnet.Net.dropped_random

let single a = Simnet.Addr.Set.singleton (addr a)

(* [reset_stats] zeroes counters only: every fault setting survives it. *)
let test_reset_keeps_faults () =
  let sim, net = fixture () in
  let got = collector net (addr 4) in
  List.iter (fun a -> ignore (collector net (addr a) : string list ref)) [ 1; 2; 3 ];
  Simnet.Net.block net (addr 0) (addr 1);
  Simnet.Net.partition net (single 0) (single 2);
  Simnet.Net.set_link_drop net ~src:(addr 0) ~dst:(addr 3) 1.0;
  Simnet.Net.set_link_latency net ~src:(addr 0) ~dst:(addr 4)
    (Distribution.constant (Time_ns.ms 3));
  let send_all () =
    List.iter (fun d -> Simnet.Net.send net ~src:(addr 0) ~dst:(addr d) "m") [ 1; 2; 3; 4 ];
    Sim.run sim
  in
  send_all ();
  Simnet.Net.reset_stats net;
  let st = Simnet.Net.stats net in
  check_int "sent zeroed" 0 st.Simnet.Net.sent;
  check_int "delivered zeroed" 0 st.Simnet.Net.delivered;
  check_drops "zeroed" net ~down:0 ~blocked:0 ~partition:0 ~random:0;
  check_links "per-link counters zeroed" [] net;
  let sent_at = Sim.now sim in
  send_all ();
  check_drops "faults still apply" net ~down:0 ~blocked:1 ~partition:1 ~random:1;
  check_int "latency override kept" (Time_ns.add sent_at (Time_ns.ms 3)) (Sim.now sim);
  check_int "both deliveries on the open link" 2 (List.length !got);
  check_links "counted again from zero"
    [ ((0, 1), [ 1; 0; 0; 1; 0; 0 ]); ((0, 2), [ 1; 0; 0; 0; 1; 0 ]);
      ((0, 3), [ 1; 0; 0; 0; 0; 1 ]); ((0, 4), [ 1; 1; 0; 0; 0; 0 ]) ]
    net

(* A record made by a setter carries nothing, so it is not listed; a
   message in flight across [reset_stats] counts its delivery only. *)
let test_setter_links_unlisted () =
  let sim, net = fixture () in
  ignore (collector net (addr 1) : string list ref);
  Simnet.Net.set_link_latency net ~src:(addr 5) ~dst:(addr 6)
    (Distribution.constant (Time_ns.ms 1));
  Simnet.Net.set_link_drop net ~src:(addr 7) ~dst:(addr 8) 0.5;
  Simnet.Net.block net (addr 9) (addr 10);
  Simnet.Net.unblock net (addr 9) (addr 10);
  Simnet.Net.partition net (single 11) (single 12);
  Simnet.Net.heal_partition net (single 11) (single 12);
  check_links "setters list nothing" [] net;
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "in flight";
  Simnet.Net.reset_stats net;
  Sim.run sim;
  check_links "delivery after the reset" [ ((0, 1), [ 0; 1; 0; 0; 0; 0 ]) ] net

(* Down beats a severed link, which beats the random draw — at send time
   for the source and at delivery for the destination. *)
let test_drop_cause_precedence () =
  let sim, net = fixture () in
  ignore (collector net (addr 1) : string list ref);
  let send () =
    Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "m";
    Sim.run sim
  in
  Simnet.Net.set_link_drop net ~src:(addr 0) ~dst:(addr 1) 1.0;
  Simnet.Net.block net (addr 0) (addr 1);
  Simnet.Net.set_down net (addr 0);
  send ();
  check_drops "source down first" net ~down:1 ~blocked:0 ~partition:0 ~random:0;
  Simnet.Net.set_up net (addr 0);
  send ();
  check_drops "then the block" net ~down:1 ~blocked:1 ~partition:0 ~random:0;
  Simnet.Net.partition net (single 0) (single 1);
  send ();
  check_drops "or the partition" net ~down:1 ~blocked:1 ~partition:1 ~random:0;
  Simnet.Net.heal_partition net (single 0) (single 1);
  send ();
  check_drops "then random" net ~down:1 ~blocked:1 ~partition:1 ~random:1;
  (* At delivery: a destination that went down while the message was in
     flight outranks a block laid at the same moment. *)
  Simnet.Net.set_link_drop net ~src:(addr 0) ~dst:(addr 1) 0.0;
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "m";
  Simnet.Net.block net (addr 0) (addr 1);
  Simnet.Net.set_down net (addr 1);
  Sim.run sim;
  check_drops "destination down at delivery" net ~down:2 ~blocked:1 ~partition:1
    ~random:1;
  Simnet.Net.set_up net (addr 1);
  Simnet.Net.unblock net (addr 0) (addr 1);
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "m";
  Simnet.Net.block net (addr 0) (addr 1);
  Sim.run sim;
  check_drops "block at delivery" net ~down:2 ~blocked:2 ~partition:1 ~random:1;
  check_links "all on one link" [ ((0, 1), [ 6; 0; 2; 2; 1; 1 ]) ] net

(* An endpoint fault drops the message before the Bernoulli draw, so the
   RNG stream — and every later draw of a seeded run — is untouched. *)
let test_no_draw_on_endpoint_fault () =
  let sim = Sim.create () in
  let rng = Rng.create 7 in
  let net =
    Simnet.Net.create ~sim ~rng
      ~default_latency:(Distribution.uniform ~lo:(Time_ns.us 10) ~hi:(Time_ns.us 20))
      ()
  in
  ignore (collector net (addr 1) : string list ref);
  (* Two copies of one state draw the same next value. *)
  let draws_on_send () =
    let before = Rng.copy rng in
    Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "m";
    Sim.run sim;
    not (Int64.equal (Rng.bits64 before) (Rng.bits64 (Rng.copy rng)))
  in
  Simnet.Net.set_down net (addr 0);
  check_bool "source down: no draw" false (draws_on_send ());
  Simnet.Net.set_up net (addr 0);
  Simnet.Net.block net (addr 0) (addr 1);
  check_bool "blocked: no draw" false (draws_on_send ());
  Simnet.Net.unblock net (addr 0) (addr 1);
  Simnet.Net.partition net (single 0) (single 1);
  check_bool "partitioned: no draw" false (draws_on_send ());
  Simnet.Net.heal_partition net (single 0) (single 1);
  check_bool "open link draws" true (draws_on_send ())

(* ---- State changed after a link has carried a message ----
   Each link keeps its endpoints and its resolved route, so a setter
   called after the first message must still reach the next one. *)

(* Sends one message from 0 to 1 and returns its delay. *)
let delay_of sim net =
  let t0 = Sim.now sim in
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "m";
  Sim.run sim;
  Time_ns.diff (Sim.now sim) t0

let test_latency_fn_after_use () =
  let sim, net = fixture () in
  ignore (collector net (addr 1) : string list ref);
  check_int "default" (Time_ns.us 100) (delay_of sim net);
  let far = Distribution.constant (Time_ns.ms 2) in
  Simnet.Net.set_latency_fn net (fun _ _ -> Some far);
  check_int "new function" (Time_ns.ms 2) (delay_of sim net);
  Simnet.Net.set_latency_fn net (fun _ _ -> None);
  check_int "function declines: default again" (Time_ns.us 100) (delay_of sim net);
  Simnet.Net.set_latency_fn net (fun _ _ -> Some far);
  Simnet.Net.set_link_latency net ~src:(addr 0) ~dst:(addr 1)
    (Distribution.constant (Time_ns.ms 5));
  check_int "link override wins" (Time_ns.ms 5) (delay_of sim net);
  Simnet.Net.set_latency_fn net (fun _ _ -> None);
  check_int "over a later function too" (Time_ns.ms 5) (delay_of sim net)

let test_slowdown_after_use () =
  let sim, net = fixture () in
  ignore (collector net (addr 1) : string list ref);
  check_int "normal" (Time_ns.us 100) (delay_of sim net);
  Simnet.Net.set_node_slowdown net (addr 1) 4.;
  check_int "slow destination" (Time_ns.us 400) (delay_of sim net);
  Simnet.Net.set_node_slowdown net (addr 0) 2.;
  check_int "both ends multiply" (Time_ns.us 800) (delay_of sim net);
  Simnet.Net.set_node_slowdown net (addr 1) 1.;
  check_int "slow source only" (Time_ns.us 200) (delay_of sim net);
  Simnet.Net.set_node_slowdown net (addr 0) 1.;
  check_int "restored" (Time_ns.us 100) (delay_of sim net)

let test_register_in_flight () =
  let sim, net = fixture () in
  (* First message on a fresh link, to an address with no handler yet. *)
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "early";
  let got = collector net (addr 1) in
  Sim.run sim;
  Alcotest.(check (list string)) "registered in flight" [ "early" ] !got;
  (* Re-registering (a restarted process) while a message is in flight:
     the new handler receives it. *)
  Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) "later";
  let fresh = collector net (addr 1) in
  Sim.run sim;
  Alcotest.(check (list string)) "old handler saw one" [ "early" ] !got;
  Alcotest.(check (list string)) "new handler got it" [ "later" ] !fresh

let test_sender_down_after_use () =
  let sim, net = fixture () in
  let got = collector net (addr 1) in
  let send m =
    Simnet.Net.send net ~src:(addr 0) ~dst:(addr 1) m;
    Sim.run sim
  in
  send "a";
  Simnet.Net.set_down net (addr 0);
  check_bool "sender down" true (Simnet.Net.is_down net (addr 0));
  send "b";
  Simnet.Net.set_up net (addr 0);
  check_bool "sender up" false (Simnet.Net.is_down net (addr 0));
  send "c";
  Alcotest.(check (list string)) "only while up" [ "c"; "a" ] !got;
  check_drops "one down drop" net ~down:1 ~blocked:0 ~partition:0 ~random:0

let test_is_down_unseen () =
  let _, net = fixture () in
  check_bool "never seen" false (Simnet.Net.is_down net (addr 42));
  Simnet.Net.set_down net (addr 42);
  check_bool "set down" true (Simnet.Net.is_down net (addr 42))

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
      ( "links",
        [
          Alcotest.test_case "reset keeps fault state" `Quick test_reset_keeps_faults;
          Alcotest.test_case "setter-only links unlisted" `Quick
            test_setter_links_unlisted;
          Alcotest.test_case "drop cause precedence" `Quick test_drop_cause_precedence;
          Alcotest.test_case "no draw on endpoint fault" `Quick
            test_no_draw_on_endpoint_fault;
        ] );
      ( "mid-run",
        [
          Alcotest.test_case "latency function replaced" `Quick
            test_latency_fn_after_use;
          Alcotest.test_case "slowdown set and cleared" `Quick
            test_slowdown_after_use;
          Alcotest.test_case "handler registered in flight" `Quick
            test_register_in_flight;
          Alcotest.test_case "sender down then up" `Quick
            test_sender_down_after_use;
          Alcotest.test_case "unseen address is up" `Quick test_is_down_unseen;
        ] );
    ]
