(* Tests for quorum sets, epochs, membership transitions, and layouts. *)
open Quorum

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let m i = Member_id.of_int i
let mset is = Member_id.set_of_list (List.map m is)
let six = List.init 6 m

(* ---- Quorum_set basics ---- *)

let test_atom_satisfaction () =
  let q = Quorum_set.k_of 4 six in
  check_bool "4 of 6" true (Quorum_set.satisfied q (mset [ 0; 1; 2; 3 ]));
  check_bool "3 of 6" false (Quorum_set.satisfied q (mset [ 0; 1; 2 ]));
  check_bool "extra members ignored" true
    (Quorum_set.satisfied q (mset [ 0; 1; 2; 3; 9 ]))

let test_atom_validation () =
  Alcotest.check_raises "threshold too big"
    (Invalid_argument "Quorum_set.k_of: threshold exceeds member count")
    (fun () -> ignore (Quorum_set.k_of 4 [ m 0; m 1 ]));
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Quorum_set.k_of: duplicate members") (fun () ->
      ignore (Quorum_set.k_of 1 [ m 0; m 0 ]))

let test_boolean_combinators () =
  let a = Quorum_set.k_of 2 [ m 0; m 1; m 2 ] in
  let b = Quorum_set.k_of 2 [ m 3; m 4; m 5 ] in
  check_bool "AND needs both" false
    (Quorum_set.satisfied (Quorum_set.all [ a; b ]) (mset [ 0; 1 ]));
  check_bool "AND satisfied" true
    (Quorum_set.satisfied (Quorum_set.all [ a; b ]) (mset [ 0; 1; 3; 4 ]));
  check_bool "OR either side" true
    (Quorum_set.satisfied (Quorum_set.any [ a; b ]) (mset [ 3; 4 ]));
  check_bool "OR none" false
    (Quorum_set.satisfied (Quorum_set.any [ a; b ]) (mset [ 0; 3 ]))

(* [All []] is the empty conjunction and [Any []] the empty disjunction,
   whatever passes; an empty atom needs nothing only at threshold 0. *)
let test_empty_formulas () =
  let none _ = false and every _ = true in
  check_bool "All [] with no member passing" true
    (Quorum_set.satisfied_by (Quorum_set.all []) none);
  check_bool "Any [] with every member passing" false
    (Quorum_set.satisfied_by (Quorum_set.any []) every);
  check_bool "All [Any []]" false
    (Quorum_set.satisfied_by (Quorum_set.all [ Quorum_set.any [] ]) every);
  check_bool "Any [All []]" true
    (Quorum_set.satisfied_by (Quorum_set.any [ Quorum_set.all [] ]) none);
  check_bool "0 of nobody" true (Quorum_set.satisfied_by (Quorum_set.k_of 0 []) none);
  check_bool "satisfied All []" true
    (Quorum_set.satisfied (Quorum_set.all []) Member_id.Set.empty);
  check_bool "satisfied Any []" false (Quorum_set.satisfied (Quorum_set.any []) (mset [ 0; 1; 2; 3; 4; 5 ]))

(* The intersect-and-count evaluator [satisfied_by] replaced, kept as the
   oracle of the property below. *)
let rec satisfied_by_counting (q : Quorum_set.t) responsive =
  match q with
  | Atom { threshold; members } ->
    Member_id.Set.cardinal (Member_id.Set.inter members responsive)
    >= threshold
  | All qs -> List.for_all (fun q -> satisfied_by_counting q responsive) qs
  | Any qs -> List.exists (fun q -> satisfied_by_counting q responsive) qs

(* Random nested formulas over members 0-11 (atom thresholds up to one past
   the member count, so unreachable atoms occur) and random subsets. *)
let prop_satisfied_by_agrees =
  let subset =
    QCheck.Gen.map
      (fun mask -> mset (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init 12 Fun.id)))
      (QCheck.Gen.int_bound 4095)
  in
  let formula =
    QCheck.Gen.(
      sized_size (int_bound 3)
        (fix (fun self depth ->
             let atom =
               let* members = subset in
               let+ threshold = int_bound (Member_id.Set.cardinal members + 1) in
               Quorum_set.Atom { threshold; members }
             in
             if depth = 0 then atom
             else
               frequency
                 [
                   (2, atom);
                   (1, map Quorum_set.all (list_size (int_bound 3) (self (depth - 1))));
                   (1, map Quorum_set.any (list_size (int_bound 3) (self (depth - 1))));
                 ])))
  in
  let print (q, s) =
    Format.asprintf "%a on {%a}" Quorum_set.pp q Member_id.pp_set s
  in
  QCheck.Test.make ~name:"satisfied_by agrees with satisfied" ~count:1000
    (QCheck.make ~print QCheck.Gen.(pair formula subset))
    (fun (q, s) ->
      let expected = satisfied_by_counting q s in
      Bool.equal (Quorum_set.satisfied_by q (fun x -> Member_id.Set.mem x s)) expected
      && Bool.equal (Quorum_set.satisfied q s) expected)

let test_min_cardinality () =
  check_int "plain atom" 4 (Quorum_set.min_cardinality (Quorum_set.k_of 4 six));
  let tiered_write =
    Quorum_set.any
      [ Quorum_set.k_of 4 six; Quorum_set.k_of 3 [ m 0; m 2; m 4 ] ]
  in
  check_int "tiered write can use 3 fulls" 3
    (Quorum_set.min_cardinality tiered_write)

(* ---- The paper's rules (§2.1) ---- *)

let test_aurora_46_rule () =
  let write = Quorum_set.k_of 4 six and read = Quorum_set.k_of 3 six in
  check_bool "read/write overlap" true (Quorum_set.overlaps ~read ~write);
  check_bool "write self-overlap" true (Quorum_set.self_overlapping write);
  (match Quorum_set.Rule.make ~read ~write with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* 2/6 read would not overlap a 4/6 write. *)
  check_bool "2/6 read unsafe" false
    (Quorum_set.overlaps ~read:(Quorum_set.k_of 2 six) ~write);
  (* 3/6 write quorums can be disjoint. *)
  check_bool "3/6 write unsafe" false
    (Quorum_set.self_overlapping (Quorum_set.k_of 3 six))

let test_tiered_rule_safe () =
  let g = Layout.membership Layout.Tiered in
  let rule = Membership.rule g in
  check_bool "tiered overlaps" true
    (Quorum_set.overlaps ~read:rule.Quorum_set.Rule.read
       ~write:rule.Quorum_set.Rule.write);
  check_bool "tiered write self-overlap" true
    (Quorum_set.self_overlapping rule.Quorum_set.Rule.write)

let test_transition_rule_safe () =
  (* Figure 5, epoch 2: write (4/6 ABCDEF AND 4/6 ABCDEG), read (3/6 OR 3/6). *)
  let abcdef = List.init 6 m in
  let abcdeg = List.init 5 m @ [ m 6 ] in
  let write =
    Quorum_set.all [ Quorum_set.k_of 4 abcdef; Quorum_set.k_of 4 abcdeg ]
  in
  let read =
    Quorum_set.any [ Quorum_set.k_of 3 abcdef; Quorum_set.k_of 3 abcdeg ]
  in
  (match Quorum_set.Rule.make ~read ~write with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Writing to ABCD satisfies both sides (the paper's observation). *)
  check_bool "ABCD meets transitional write quorum" true
    (Quorum_set.satisfied write (mset [ 0; 1; 2; 3 ]))

let prop_overlap_brute_force =
  (* Cross-validate [overlaps] against direct counterexample search on
     random small quorum structures. *)
  let gen =
    QCheck.Gen.(
      let* n = int_range 3 6 in
      let members = List.init n Member_id.of_int in
      let* k1 = int_range 1 n in
      let* k2 = int_range 1 n in
      let* extra = int_range 0 1 in
      let q1 = Quorum_set.k_of k1 members in
      let q2 = Quorum_set.k_of k2 members in
      if extra = 0 then return (q1, q2)
      else
        let* k3 = int_range 1 n in
        return (Quorum_set.all [ q1; Quorum_set.k_of k3 members ], q2))
  in
  QCheck.Test.make ~name:"overlaps agrees with k-arithmetic" ~count:200
    (QCheck.make gen) (fun (read, write) ->
      match (read, write) with
      | Quorum_set.Atom { threshold = kr; members }, Quorum_set.Atom { threshold = kw; _ }
        ->
        let n = Member_id.Set.cardinal members in
        Quorum_set.overlaps ~read ~write = (kr + kw > n)
      | _ ->
        (* Composite cases: just require consistency with satisfiability of
           complement-disjointness (re-derived via tolerates). *)
        let u = Member_id.Set.union (Quorum_set.members read) (Quorum_set.members write) in
        let brute =
          (* search all subsets for a violating split *)
          let arr = Array.of_list (Member_id.Set.elements u) in
          let n = Array.length arr in
          let rec search mask =
            if mask >= 1 lsl n then true
            else begin
              let s = ref Member_id.Set.empty in
              Array.iteri
                (fun i mm -> if mask land (1 lsl i) <> 0 then s := Member_id.Set.add mm !s)
                arr;
              if
                Quorum_set.satisfied read !s
                && Quorum_set.satisfied write (Member_id.Set.diff u !s)
              then false
              else search (mask + 1)
            end
          in
          search 0
        in
        Quorum_set.overlaps ~read ~write = brute)

(* ---- Epochs ---- *)

let test_epochs () =
  let e1 = Epoch.initial in
  let e2 = Epoch.next e1 in
  check_bool "stale" true (Epoch.is_stale e1 ~current:e2);
  check_bool "current ok" false (Epoch.is_stale e2 ~current:e2);
  check_bool "future ok" false (Epoch.is_stale e2 ~current:e1);
  (match Epoch.check e1 ~current:e2 with
  | Epoch.Stale { current } -> check_int "carries current" 2 (Epoch.to_int current)
  | Epoch.Ok -> Alcotest.fail "expected stale")

(* ---- Membership state machine (Figure 5) ---- *)

let fresh_member id az = { Membership.id = m id; az = Az.of_int az; kind = Membership.Full }

let test_membership_steady () =
  let g = Layout.membership Layout.V6 in
  check_bool "steady" true (Membership.is_steady g);
  check_int "epoch 1" 1 (Epoch.to_int (Membership.epoch g));
  check_int "one variant" 1 (List.length (Membership.variants g));
  check_int "six members" 6 (List.length (Membership.members g))

let test_membership_replace_commit () =
  let g = Layout.membership Layout.V6 in
  let g2 =
    match Membership.begin_change g ~suspect:(m 5) ~replacement:(fresh_member 6 2) with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  check_int "epoch 2" 2 (Epoch.to_int (Membership.epoch g2));
  check_int "two variants" 2 (List.length (Membership.variants g2));
  check_int "seven involved" 7 (List.length (Membership.members g2));
  check_bool "not steady" false (Membership.is_steady g2);
  let g3 =
    match Membership.commit_change g2 ~suspect:(m 5) with
    | Ok g -> g
    | Error e -> Alcotest.fail e
  in
  check_int "epoch 3" 3 (Epoch.to_int (Membership.epoch g3));
  check_bool "steady again" true (Membership.is_steady g3);
  check_bool "suspect gone" true (Membership.find_member g3 (m 5) = None);
  check_bool "replacement in" true (Membership.find_member g3 (m 6) <> None)

let test_membership_revert () =
  let g = Layout.membership Layout.V6 in
  let g2 =
    Result.get_ok
      (Membership.begin_change g ~suspect:(m 5) ~replacement:(fresh_member 6 2))
  in
  let g3 = Result.get_ok (Membership.revert_change g2 ~suspect:(m 5)) in
  check_int "epoch 3" 3 (Epoch.to_int (Membership.epoch g3));
  check_bool "suspect kept" true (Membership.find_member g3 (m 5) <> None);
  check_bool "replacement discarded" true (Membership.find_member g3 (m 6) = None)

let test_membership_double_failure () =
  (* Figure 5's second scenario: E fails while F->G is in flight. *)
  let g = Layout.membership Layout.V6 in
  let g2 =
    Result.get_ok
      (Membership.begin_change g ~suspect:(m 5) ~replacement:(fresh_member 6 2))
  in
  let g3 =
    Result.get_ok
      (Membership.begin_change g2 ~suspect:(m 4) ~replacement:(fresh_member 7 2))
  in
  check_int "epoch 3" 3 (Epoch.to_int (Membership.epoch g3));
  check_int "four variants (ABCD x {E,H} x {F,G})" 4
    (List.length (Membership.variants g3));
  let rule = Membership.rule g3 in
  (* Writing to ABCD still meets the composite write quorum. *)
  check_bool "ABCD suffices" true
    (Quorum_set.satisfied rule.Quorum_set.Rule.write (mset [ 0; 1; 2; 3 ]));
  (* Resolve both; end on ABCDGH. *)
  let g4 = Result.get_ok (Membership.commit_change g3 ~suspect:(m 5)) in
  let g5 = Result.get_ok (Membership.commit_change g4 ~suspect:(m 4)) in
  check_bool "steady" true (Membership.is_steady g5);
  check_int "epoch 5" 5 (Epoch.to_int (Membership.epoch g5))

let test_membership_errors () =
  let g = Layout.membership Layout.V6 in
  (match Membership.begin_change g ~suspect:(m 9) ~replacement:(fresh_member 6 0) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown suspect accepted");
  (match Membership.begin_change g ~suspect:(m 5) ~replacement:(fresh_member 0 0) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "id reuse accepted");
  let g2 =
    Result.get_ok
      (Membership.begin_change g ~suspect:(m 5) ~replacement:(fresh_member 6 2))
  in
  (match Membership.begin_change g2 ~suspect:(m 5) ~replacement:(fresh_member 7 2) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double replacement of same suspect accepted");
  (* A tail slot must be repaired by a tail segment. *)
  let tg = Layout.membership Layout.Tiered in
  let tail_suspect =
    List.find (fun (mm : Membership.member) -> mm.kind = Membership.Tail) (Membership.members tg)
  in
  (match
     Membership.begin_change tg ~suspect:tail_suspect.Membership.id
       ~replacement:(fresh_member 6 0)
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "kind mismatch accepted")

let test_change_scheme () =
  let g = Layout.membership Layout.V6 in
  (* Extended AZ loss: move to 3/4 over two AZs (§4.1). *)
  let g2 =
    Result.get_ok
      (Membership.change_scheme g ~scheme:Layout.scheme_3_of_4
         (Layout.four_copies_two_az ()))
  in
  check_int "epoch bumped" 2 (Epoch.to_int (Membership.epoch g2));
  check_int "four members" 4 (List.length (Membership.members g2))

(* Oracle for [Membership.rule]: decide "write satisfied" and "read
   satisfied" for every subset of the group's members straight from the
   scheme definitions in membership.mli, over [Membership.variants], and
   compare with the stored rule.  Subsets and variants are bitmasks over
   the sorted member ids. *)
let rule_matches_scheme g =
  let ids = Array.of_list (Member_id.Set.elements (Membership.member_ids g)) in
  let n = Array.length ids in
  let mask_of set =
    let acc = ref 0 in
    Array.iteri
      (fun i id -> if Member_id.Set.mem id set then acc := !acc lor (1 lsl i))
      ids;
    !acc
  in
  let full id =
    match Membership.find_member g id with
    | Some mm -> mm.Membership.kind = Membership.Full
    | None -> false
  in
  let fulls = mask_of (Member_id.Set.filter full (Membership.member_ids g)) in
  let variants = List.map mask_of (Membership.variants g) in
  let count mask =
    let rec go acc v = if v = 0 then acc else go (acc + (v land 1)) (v lsr 1) in
    go 0 mask
  in
  let write_ok s v =
    match Membership.scheme g with
    | Membership.Plain { write_threshold; _ } -> count (s land v) >= write_threshold
    | Membership.Tiered { mixed_write; _ } ->
      count (s land v) >= mixed_write || v land fulls land lnot s = 0
  in
  let read_ok s v =
    match Membership.scheme g with
    | Membership.Plain { read_threshold; _ } -> count (s land v) >= read_threshold
    | Membership.Tiered { mixed_read; _ } ->
      count (s land v) >= mixed_read && s land v land fulls <> 0
  in
  let rule = Membership.rule g in
  let rec go s =
    s >= 1 lsl n
    ||
    let set = ref Member_id.Set.empty in
    Array.iteri
      (fun i id -> if s land (1 lsl i) <> 0 then set := Member_id.Set.add id !set)
      ids;
    Bool.equal
      (Quorum_set.satisfied rule.Quorum_set.Rule.write !set)
      (List.for_all (write_ok s) variants)
    && Bool.equal
         (Quorum_set.satisfied rule.Quorum_set.Rule.read !set)
         (List.exists (read_ok s) variants)
    && go (s + 1)
  in
  go 0

let prop_transitions_preserve_safety =
  (* Any random sequence of begin/commit/revert/change_scheme, from a 4/6,
     tiered or 2/3 group, keeps epochs strictly increasing and leaves the
     stored rule equal to the one the scheme defines for the new state.
     Each successful transition has also passed both §2.1 proofs (an unsafe
     state comes back as [Error]), so the oracle catches a transition that
     carries the pre-change rule forward. *)
  let start = [| Layout.V6; Layout.Tiered; Layout.V3 |] in
  let targets ~first_id =
    [|
      (Layout.scheme_4_of_6, Layout.aurora_v6 ~first_id ());
      (Layout.scheme_tiered, Layout.aurora_tiered ~first_id ());
      (Layout.scheme_3_of_4, Layout.four_copies_two_az ~first_id ());
      (Layout.scheme_2_of_3, Layout.three_copies ~first_id ());
    |]
  in
  QCheck.Test.make ~name:"random membership transitions stay safe" ~count:100
    QCheck.(pair (int_range 0 2) (list_of_size (Gen.int_range 1 12) (int_range 0 9)))
    (fun (layout, ops) ->
      let g = ref (Layout.membership start.(layout)) in
      let next_id = ref 6 in
      let last_epoch = ref (Epoch.to_int (Membership.epoch !g)) in
      assert (rule_matches_scheme !g);
      List.iter
        (fun op ->
          let apply result =
            match result with
            | Ok g' ->
              let e = Epoch.to_int (Membership.epoch g') in
              assert (e = !last_epoch + 1);
              last_epoch := e;
              assert (rule_matches_scheme g');
              g := g'
            | Error _ -> ()
          in
          match op with
          | 0 | 1 | 2 -> (
            (* begin a change on some active, unreplaced member *)
            let candidates =
              List.filter
                (fun (mm : Membership.member) ->
                  not
                    (List.exists
                       (fun (p : Membership.pending) ->
                         Member_id.equal p.suspect mm.id
                         || Member_id.equal p.replacement mm.id)
                       (Membership.pendings !g)))
                (Membership.members !g)
            in
            match candidates with
            | [] -> ()
            | _ ->
              let mm = List.nth candidates (op mod List.length candidates) in
              let r = { Membership.id = m !next_id; az = mm.az; kind = mm.kind } in
              incr next_id;
              apply (Membership.begin_change !g ~suspect:mm.Membership.id ~replacement:r))
          | 3 | 4 -> (
            match Membership.pendings !g with
            | p :: _ -> apply (Membership.commit_change !g ~suspect:p.suspect)
            | [] -> ())
          | 5 -> (
            match Membership.pendings !g with
            | p :: _ -> apply (Membership.revert_change !g ~suspect:p.suspect)
            | [] -> ())
          | _ ->
            let scheme, roster = (targets ~first_id:!next_id).(op - 6) in
            next_id := !next_id + List.length roster;
            apply (Membership.change_scheme !g ~scheme roster))
        ops;
      true)

let test_replacement_of () =
  let g = Layout.membership Layout.V6 in
  check_bool "steady: none" true (Membership.replacement_of g ~suspect:(m 5) = None);
  let g = Result.get_ok (Membership.begin_change g ~suspect:(m 5) ~replacement:(fresh_member 6 2)) in
  let g = Result.get_ok (Membership.begin_change g ~suspect:(m 1) ~replacement:(fresh_member 7 0)) in
  check_bool "first pair" true (Option.equal Member_id.equal (Membership.replacement_of g ~suspect:(m 5)) (Some (m 6)));
  check_bool "second pair" true (Option.equal Member_id.equal (Membership.replacement_of g ~suspect:(m 1)) (Some (m 7)));
  check_bool "a replacement is no suspect" true (Membership.replacement_of g ~suspect:(m 6) = None);
  let g = Result.get_ok (Membership.commit_change g ~suspect:(m 5)) in
  check_bool "resolved: none" true (Membership.replacement_of g ~suspect:(m 5) = None);
  check_bool "other pair kept" true (Option.equal Member_id.equal (Membership.replacement_of g ~suspect:(m 1)) (Some (m 7)))

(* ---- What a roster survives, against brute force ---- *)

let rec subsets = function
  | [] -> [ Member_id.Set.empty ]
  | x :: rest ->
    let ss = subsets rest in
    ss @ List.map (Member_id.Set.add x) ss

(* Fewest further losses from [live] that break [q], minus one: the
   smallest unsatisfying survivor set decides it. *)
let oracle_margin q live =
  if not (Quorum_set.satisfied q live) then -1
  else
    let n = Member_id.Set.cardinal live in
    List.fold_left
      (fun acc s ->
        if Quorum_set.satisfied q s then acc
        else min acc (n - Member_id.Set.cardinal s - 1))
      n
      (subsets (Member_id.Set.elements live))

(* Every survivor set left after losing one AZ of the roster plus at most
   one more member ([plus_one]) or none still meets [q]. *)
let oracle_survives_az q (members : Membership.member list) live ~plus_one =
  let azs = List.sort_uniq Az.compare (List.map (fun (mm : Membership.member) -> mm.az) members) in
  let lost_to_az s =
    List.exists
      (fun az ->
        let beyond_az =
          List.filter
            (fun (mm : Membership.member) ->
              (not (Az.equal mm.az az))
              && Member_id.Set.mem mm.id live
              && not (Member_id.Set.mem mm.id s))
            members
        in
        List.length beyond_az <= if plus_one then 1 else 0)
      azs
  in
  List.for_all
    (fun s -> (not (lost_to_az s)) || Quorum_set.satisfied q s)
    (subsets (Member_id.Set.elements live))

(* Random rosters of 1-7 members over up to three AZs (one AZ in a
   quarter of cases), a random live subset, and a quorum of one atom or an
   AND / OR of two over random member subsets.  Thresholds are at least 1,
   so no quorum is met by nobody, as none a membership derives is. *)
let prop_margin_and_survives_az =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 7 in
      let* one_az = map (fun k -> k = 0) (int_bound 3) in
      let* azs = list_repeat n (if one_az then return 1 else int_bound 2) in
      let members =
        List.mapi
          (fun i az -> { Membership.id = m i; az = Az.of_int az; kind = Membership.Full })
          azs
      in
      let subset =
        map
          (fun mask -> mset (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id)))
          (int_bound ((1 lsl n) - 1))
      in
      let atom =
        let* over = subset in
        let size = Member_id.Set.cardinal over in
        if size = 0 then return (Quorum_set.k_of 1 [ m 0 ])
        else
          let+ k = int_range 1 size in
          Quorum_set.k_of k (Member_id.Set.elements over)
      in
      let* q =
        frequency
          [
            (2, atom);
            (1, map2 (fun a b -> Quorum_set.all [ a; b ]) atom atom);
            (1, map2 (fun a b -> Quorum_set.any [ a; b ]) atom atom);
          ]
      in
      let+ live = subset in
      (members, q, live))
  in
  let print (members, q, live) =
    Format.asprintf "%s; %a; live {%a}"
      (String.concat " "
         (List.map
            (fun (mm : Membership.member) ->
              Printf.sprintf "%d@az%d" (Member_id.to_int mm.id) (Az.to_int mm.az + 1))
            members))
      Quorum_set.pp q Member_id.pp_set live
  in
  QCheck.Test.make ~name:"margin and survives_az match brute force" ~count:500
    (QCheck.make ~print gen) (fun (members, q, live) ->
      let all = Member_id.set_of_list (List.map (fun (mm : Membership.member) -> mm.id) members) in
      Quorum_set.margin q live = oracle_margin q live
      && List.for_all
           (fun (up, plus_one) ->
             Bool.equal
               (Membership.survives_az q members ~up ~plus_one)
               (oracle_survives_az q members up ~plus_one))
           [ (live, true); (live, false); (all, true); (all, false) ])

(* A one-AZ roster loses everything with its AZ: no survivor is left to
   lose one more of, so AZ+1 fails even when the quorum is one member. *)
let test_single_az_roster () =
  let members =
    List.init 3 (fun i -> { Membership.id = m i; az = Az.of_int 0; kind = Membership.Full })
  in
  let q = Quorum_set.k_of 1 (List.init 3 m) in
  let up = mset [ 0; 1; 2 ] in
  check_bool "AZ" false (Membership.survives_az q members ~up ~plus_one:false);
  check_bool "AZ+1" false (Membership.survives_az q members ~up ~plus_one:true);
  check_int "margin" 2 (Quorum_set.margin q up)

(* ---- Layouts ---- *)

let test_layouts () =
  let v6 = Layout.aurora_v6 () in
  check_int "six members" 6 (List.length v6);
  List.iteri
    (fun i az ->
      check_int
        (Printf.sprintf "AZ of member %d" i)
        az
        (Az.to_int (List.nth v6 i).Membership.az))
    [ 0; 0; 1; 1; 2; 2 ];
  let tiered = Layout.aurora_tiered () in
  check_int "three fulls" 3
    (List.length
       (List.filter (fun (mm : Membership.member) -> mm.kind = Membership.Full) tiered));
  check_int "members in AZ1" 2
    (Member_id.Set.cardinal (Layout.members_in_az tiered (Az.of_int 0)))

(* Every layout's group is a safe §2.1 rule over the roster it names:
   read and write quorums overlap, and writes overlap each other. *)
let test_layout_rules_safe () =
  List.iter
    (fun (layout, name, size) ->
      let g = Layout.membership layout in
      let rule = Membership.rule g in
      check_int (name ^ " roster") size (List.length (Membership.members g));
      check_bool (name ^ " read/write overlap") true
        (Quorum_set.overlaps ~read:rule.Quorum_set.Rule.read
           ~write:rule.Quorum_set.Rule.write);
      check_bool (name ^ " write self-overlap") true
        (Quorum_set.self_overlapping rule.Quorum_set.Rule.write))
    [ (Layout.V6, "v6", 6); (Layout.Tiered, "tiered", 6); (Layout.V3, "v3", 3) ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "quorum"
    [
      ( "quorum_set",
        [
          Alcotest.test_case "atom satisfaction" `Quick test_atom_satisfaction;
          Alcotest.test_case "atom validation" `Quick test_atom_validation;
          Alcotest.test_case "boolean combinators" `Quick test_boolean_combinators;
          Alcotest.test_case "min cardinality" `Quick test_min_cardinality;
          Alcotest.test_case "empty All and Any" `Quick test_empty_formulas;
          Alcotest.test_case "aurora 4/6 rule" `Quick test_aurora_46_rule;
          Alcotest.test_case "tiered rule safe" `Quick test_tiered_rule_safe;
          Alcotest.test_case "transition rule safe" `Quick test_transition_rule_safe;
          qc prop_overlap_brute_force;
          qc prop_satisfied_by_agrees;
          qc prop_margin_and_survives_az;
        ] );
      ("epoch", [ Alcotest.test_case "staleness" `Quick test_epochs ]);
      ( "membership",
        [
          Alcotest.test_case "steady" `Quick test_membership_steady;
          Alcotest.test_case "replace + commit" `Quick test_membership_replace_commit;
          Alcotest.test_case "revert" `Quick test_membership_revert;
          Alcotest.test_case "double failure" `Quick test_membership_double_failure;
          Alcotest.test_case "errors" `Quick test_membership_errors;
          Alcotest.test_case "change scheme" `Quick test_change_scheme;
          qc prop_transitions_preserve_safety;
          Alcotest.test_case "replacement_of" `Quick test_replacement_of;
          Alcotest.test_case "a one-AZ roster fails AZ+1" `Quick test_single_az_roster;
        ] );
      ( "layout",
        [
          Alcotest.test_case "rosters" `Quick test_layouts;
          Alcotest.test_case "scheme rules safe" `Quick test_layout_rules_safe;
        ] );
    ]
