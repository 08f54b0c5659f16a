(* Tests for the Figure-1 fleet availability model. *)
open Simcore
open Quorum
module FM = Availability.Fleet_model

let check_bool = Alcotest.(check bool)

let roster_and_rule layout =
  let g = Layout.membership layout in
  (Membership.members g, Membership.rule g)

let v6, v6_rule = roster_and_rule Layout.V6
let v3, v3_rule = roster_and_rule Layout.V3
let tiered, tiered_rule = roster_and_rule Layout.Tiered

let test_az_tolerance_v6 () =
  let t = FM.az_tolerance ~members:v6 ~rule:v6_rule in
  check_bool "write survives AZ" true t.FM.write_survives_az;
  check_bool "read survives AZ" true t.FM.read_survives_az;
  (* AZ+1 leaves 3 of 6: write (4/6) gone, read (3/6) intact — exactly the
     paper's design point. *)
  check_bool "write does not survive AZ+1" false t.FM.write_survives_az_plus_one;
  check_bool "read survives AZ+1" true t.FM.read_survives_az_plus_one

let test_az_tolerance_v3 () =
  let t = FM.az_tolerance ~members:v3 ~rule:v3_rule in
  check_bool "write survives AZ" true t.FM.write_survives_az;
  (* AZ+1 leaves 1 of 3: even the read quorum (2/3) is gone -> data loss. *)
  check_bool "read lost at AZ+1" false t.FM.read_survives_az_plus_one

let test_az_tolerance_tiered () =
  let t = FM.az_tolerance ~members:tiered ~rule:tiered_rule in
  check_bool "read survives AZ+1" true t.FM.read_survives_az_plus_one

let harsh =
  {
    FM.default_params with
    FM.segment_mttf = Time_ns.hours 240;
    repair_duration = Time_ns.minutes 30;
    az_mttf = Time_ns.hours (24 * 3650);
    (* effectively disable AZ outages for the analytic comparison *)
    horizon = Time_ns.hours (24 * 30);
    groups = 400;
  }

let test_mc_matches_analytic () =
  (* With AZ outages negligible, Monte Carlo unavailability should be in
     the neighbourhood of the iid analytic value. *)
  let an = FM.analytic ~params:harsh ~members:v3 ~rule:v3_rule in
  let mc = FM.run ~rng:(Rng.create 5) ~params:harsh ~members:v3 ~rule:v3_rule in
  check_bool "rho sane" true (an.FM.rho > 0. && an.FM.rho < 0.1);
  check_bool "same order of magnitude" true
    (mc.FM.write_unavail < an.FM.p_write_loss *. 5.
    && mc.FM.write_unavail > an.FM.p_write_loss /. 5.)

let test_ordering_46_beats_23 () =
  let an6 = FM.analytic ~params:harsh ~members:v6 ~rule:v6_rule in
  let an3 = FM.analytic ~params:harsh ~members:v3 ~rule:v3_rule in
  (* Independent-failure read-loss: 4/6 needs 4 concurrent failures, 2/3
     needs 2 — orders of magnitude apart. *)
  check_bool "read loss far rarer with 6 copies" true
    (an6.FM.p_read_loss < an3.FM.p_read_loss /. 100.)

let test_analytic_given_az_ordering () =
  let params = harsh in
  let _, r6 = FM.analytic_given_az ~params ~members:v6 ~rule:v6_rule in
  let _, r3 = FM.analytic_given_az ~params ~members:v3 ~rule:v3_rule in
  check_bool "conditional read loss worse for 2/3" true (r3 > r6 *. 10.)

let test_mc_counts_events () =
  let params =
    {
      harsh with
      FM.az_mttf = Time_ns.hours 120;
      az_outage = Time_ns.hours 2;
      groups = 100;
    }
  in
  let mc = FM.run ~rng:(Rng.create 9) ~params ~members:v6 ~rule:v6_rule in
  check_bool "saw member failures" true (mc.FM.member_failures > 0);
  check_bool "saw AZ onsets" true (mc.FM.az_onsets > 0);
  check_bool "survival counts bounded" true
    (mc.FM.az_read_survived <= mc.FM.az_onsets)

let () =
  Alcotest.run "availability"
    [
      ( "az_tolerance",
        [
          Alcotest.test_case "4/6 survives AZ+1 (read)" `Quick test_az_tolerance_v6;
          Alcotest.test_case "2/3 loses data at AZ+1" `Quick test_az_tolerance_v3;
          Alcotest.test_case "tiered survives AZ+1" `Quick test_az_tolerance_tiered;
        ] );
      ( "model",
        [
          Alcotest.test_case "MC ~ analytic" `Slow test_mc_matches_analytic;
          Alcotest.test_case "6 copies >> 3 copies" `Quick test_ordering_46_beats_23;
          Alcotest.test_case "conditional AZ loss ordering" `Quick
            test_analytic_given_az_ordering;
          Alcotest.test_case "MC event accounting" `Slow test_mc_counts_events;
        ] );
    ]
