(* Tests for LSNs, log records, hot logs (SCL tracking, truncation ranges),
   and txn ids. *)
open Wal

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let lsn = Lsn.of_int

(* Build a linear segment chain of records lsn 1..n (block round-robin). *)
let make_chain ?(first_prev = Lsn.none) n =
  let rec go i prev acc =
    if i > n then List.rev acc
    else begin
      let l = Lsn.add first_prev i in
      let r =
        Log_record.make ~lsn:l ~prev_volume:prev ~prev_segment:prev
          ~prev_block:Lsn.none
          ~block:(Block_id.of_int (i mod 4))
          ~txn:(Txn_id.of_int 1) ~mtr_id:i ~mtr_end:true
          ~op:(Log_record.Put { key = Printf.sprintf "k%d" i; value = "v" })
      in
      go (i + 1) l (r :: acc)
    end
  in
  go 1 first_prev []

(* ---- Lsn ---- *)

let test_lsn_allocator () =
  let a = Lsn.Allocator.create () in
  check_int "first" 1 (Lsn.to_int (Lsn.Allocator.take a));
  check_int "second" 2 (Lsn.to_int (Lsn.Allocator.take a));
  check_int "last tracked" 2 (Lsn.to_int (Lsn.Allocator.last a))

let test_lsn_allocator_reset () =
  let a = Lsn.Allocator.create () in
  ignore (Lsn.Allocator.take a : Lsn.t);
  Lsn.Allocator.reset_above a (lsn 100);
  check_int "resumes above" 101 (Lsn.to_int (Lsn.Allocator.take a));
  Alcotest.check_raises "cannot move backwards"
    (Invalid_argument "Lsn.Allocator.reset_above: would move backwards")
    (fun () -> Lsn.Allocator.reset_above a (lsn 5))

let test_lsn_compare () =
  check_bool "none below first" true Lsn.(none < first);
  check_bool "ordering" true Lsn.(lsn 3 < lsn 5);
  check_int "max" 5 (Lsn.to_int (Lsn.max (lsn 3) (lsn 5)))

(* ---- Log_record ---- *)

let test_record_size () =
  let r =
    Log_record.make ~lsn:(lsn 1) ~prev_volume:Lsn.none ~prev_segment:Lsn.none
      ~prev_block:Lsn.none ~block:(Block_id.of_int 0) ~txn:(Txn_id.of_int 1)
      ~mtr_id:1 ~mtr_end:true
      ~op:(Log_record.Put { key = "abc"; value = "defg" })
  in
  check_int "header + payload" (Log_record.header_bytes + 7) r.size_bytes;
  check_bool "not commit" false (Log_record.is_commit r)

(* [make] builds the version every cache and segment will share: it must
   say what the record says.  Records that write nothing share one. *)
let test_record_version () =
  let mk ~l ~t op =
    Log_record.make ~lsn:(lsn l) ~prev_volume:Lsn.none ~prev_segment:Lsn.none
      ~prev_block:Lsn.none ~block:(Block_id.of_int 0) ~txn:(Txn_id.of_int t)
      ~mtr_id:l ~mtr_end:true ~op
  in
  let matches (r : Log_record.t) value =
    Alcotest.(check (option string)) "value" value r.version.value;
    check_bool "txn" true (Txn_id.equal r.txn r.version.txn);
    check_bool "lsn" true (Lsn.equal r.lsn r.version.lsn)
  in
  matches (mk ~l:7 ~t:3 (Log_record.Put { key = "k"; value = "v" })) (Some "v");
  matches (mk ~l:9 ~t:4 (Log_record.Put { key = "k"; value = "" })) (Some "");
  matches (mk ~l:8 ~t:5 (Log_record.Delete { key = "k" })) None;
  let c = mk ~l:10 ~t:3 Log_record.Commit in
  check_bool "commit, abort and noop share one version" true
    (c.version == (mk ~l:11 ~t:6 Log_record.Abort).version
    && c.version == (mk ~l:12 ~t:7 Log_record.Noop).version)

(* ---- Hot_log ---- *)

let test_hot_log_in_order () =
  let log = Hot_log.create () in
  let records = make_chain 10 in
  List.iter (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result)) records;
  check_int "scl" 10 (Lsn.to_int (Hot_log.scl log));
  check_int "highest" 10 (Lsn.to_int (Hot_log.highest_received log));
  check_int "pending" 0 (Hot_log.pending_count log)

let test_hot_log_gap_then_fill () =
  let log = Hot_log.create () in
  let records = make_chain 5 in
  (* Deliver 1,2 then 4,5 (hole at 3), then 3. *)
  let r i = List.nth records (i - 1) in
  List.iter
    (fun i -> ignore (Hot_log.insert log (r i) : Hot_log.insert_result))
    [ 1; 2; 4; 5 ];
  check_int "scl stuck at hole" 2 (Lsn.to_int (Hot_log.scl log));
  check_int "highest sees past hole" 5 (Lsn.to_int (Hot_log.highest_received log));
  check_int "pending" 2 (Hot_log.pending_count log);
  ignore (Hot_log.insert log (r 3) : Hot_log.insert_result);
  check_int "scl cascades" 5 (Lsn.to_int (Hot_log.scl log))

let test_hot_log_duplicate () =
  let log = Hot_log.create () in
  let records = make_chain 3 in
  List.iter (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result)) records;
  (match Hot_log.insert log (List.hd records) with
  | Hot_log.Duplicate -> ()
  | _ -> Alcotest.fail "expected Duplicate");
  check_int "count unchanged" 3 (Hot_log.record_count log)

let test_hot_log_chained_above () =
  let log = Hot_log.create () in
  List.iter
    (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result))
    (make_chain 10);
  let above = Hot_log.chained_records_above log (lsn 7) in
  Alcotest.(check (list int)) "suffix of chain" [ 8; 9; 10 ]
    (List.map (fun (r : Log_record.t) -> Lsn.to_int r.lsn) above);
  check_int "full chain" 10 (List.length (Hot_log.chain_to_list log))

let test_hot_log_annul () =
  let log = Hot_log.create () in
  List.iter
    (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result))
    (make_chain 10);
  let dropped = Hot_log.annul_range log ~above:(lsn 6) ~upto:(lsn 100) in
  check_int "dropped" 4 dropped;
  check_int "scl clamped to real record" 6 (Lsn.to_int (Hot_log.scl log));
  check_bool "annulled lsns rejected" true (Hot_log.is_annulled log (lsn 8));
  (match Hot_log.insert log (List.nth (make_chain 10) 7) with
  | Hot_log.Annulled -> ()
  | _ -> Alcotest.fail "expected Annulled");
  (* A fresh record above the range chains from the cut point. *)
  let r =
    Log_record.make ~lsn:(lsn 101) ~prev_volume:(lsn 6) ~prev_segment:(lsn 6)
      ~prev_block:Lsn.none ~block:(Block_id.of_int 0) ~txn:(Txn_id.of_int 2)
      ~mtr_id:11 ~mtr_end:true ~op:Log_record.Noop
  in
  (match Hot_log.insert log r with
  | Hot_log.Accepted ->
    check_int "chain continues above range" 101 (Lsn.to_int (Hot_log.scl log))
  | _ -> Alcotest.fail "expected Accepted")

let test_hot_log_annul_with_pending () =
  let log = Hot_log.create () in
  let records = make_chain 10 in
  let r i = List.nth records (i - 1) in
  (* Chain to 4; 6..8 pending (5 missing). *)
  List.iter
    (fun i -> ignore (Hot_log.insert log (r i) : Hot_log.insert_result))
    [ 1; 2; 3; 4; 6; 7; 8 ];
  check_int "scl" 4 (Lsn.to_int (Hot_log.scl log));
  ignore (Hot_log.annul_range log ~above:(lsn 7) ~upto:(lsn 20) : int);
  (* 8 annulled; 6,7 still pending below the cut. *)
  check_int "scl unchanged" 4 (Lsn.to_int (Hot_log.scl log));
  ignore (Hot_log.insert log (r 5) : Hot_log.insert_result);
  check_int "fills to cut" 7 (Lsn.to_int (Hot_log.scl log))

let test_hot_log_drop_below () =
  let log = Hot_log.create () in
  List.iter
    (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result))
    (make_chain 10);
  let dropped = Hot_log.drop_below log ~upto:(lsn 6) in
  check_int "dropped" 6 dropped;
  check_int "scl unaffected" 10 (Lsn.to_int (Hot_log.scl log));
  check_int "floor recorded" 6 (Lsn.to_int (Hot_log.dropped_upto log));
  (* Gossip export now only reaches back to the floor. *)
  check_int "retained suffix" 4
    (List.length (Hot_log.chained_records_above log Lsn.none))

let test_hot_log_anchored () =
  let log = Hot_log.create_anchored (lsn 100) in
  check_int "anchored scl" 100 (Lsn.to_int (Hot_log.scl log));
  let records = make_chain ~first_prev:(lsn 100) 3 in
  List.iter (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result)) records;
  check_int "extends from anchor" 103 (Lsn.to_int (Hot_log.scl log))

let prop_scl_order_independent =
  QCheck.Test.make ~name:"SCL independent of delivery order; matches reference"
    ~count:200
    QCheck.(pair (int_range 1 40) (int_range 0 1000))
    (fun (n, seed) ->
      let records = make_chain n in
      let arr = Array.of_list records in
      let rng = Simcore.Rng.create seed in
      Simcore.Rng.shuffle rng arr;
      (* Deliver a random prefix of the shuffle. *)
      let k = 1 + Simcore.Rng.int rng n in
      let delivered = Array.to_list (Array.sub arr 0 k) in
      let log = Hot_log.create () in
      List.iter
        (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result))
        delivered;
      let expected = Hot_log_model.scl_reference ~anchor:Lsn.none delivered in
      Lsn.equal (Hot_log.scl log) expected)

let prop_annul_then_scl_valid =
  QCheck.Test.make ~name:"after annul, SCL is a real chained record <= cut"
    ~count:200
    QCheck.(pair (int_range 2 30) (int_range 1 29))
    (fun (n, cut) ->
      QCheck.assume (cut < n);
      let log = Hot_log.create () in
      List.iter
        (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result))
        (make_chain n);
      ignore (Hot_log.annul_range log ~above:(lsn cut) ~upto:(lsn (n + 100)) : int);
      Lsn.to_int (Hot_log.scl log) = cut)

(* ---- Hot_log against its reference model ---- *)

module Model = Hot_log_model

let lsn_ints l = List.map (fun (r : Log_record.t) -> Lsn.to_int r.lsn) l
let show_lsns l = String.concat "," (List.map string_of_int l)

(* Every observable of [h] against [m]: [contains] at every LSN up to
   [max_lsn], [chained_records_above] at every [stride]th. *)
let disagreement ?(stride = 1) ~max_lsn (m : Model.t) (h : Hot_log.t) =
  let ints name a b = if a = b then None else Some (Printf.sprintf "%s: model %d, hot log %d" name a b) in
  let lsn name a b = ints name (Lsn.to_int a) (Lsn.to_int b) in
  let lists name a b =
    if a = b then None
    else Some (Printf.sprintf "%s: model [%s], hot log [%s]" name (show_lsns a) (show_lsns b))
  in
  let checks =
    [
      (fun () -> lsn "scl" (Model.scl m) (Hot_log.scl h));
      (fun () -> lsn "highest" (Model.highest_received m) (Hot_log.highest_received h));
      (fun () -> ints "record_count" (Model.record_count m) (Hot_log.record_count h));
      (fun () -> ints "pending_count" (Model.pending_count m) (Hot_log.pending_count h));
      (fun () -> ints "bytes" (Model.bytes_stored m) (Hot_log.bytes_stored h));
      (fun () -> lsn "dropped_upto" (Model.dropped_upto m) (Hot_log.dropped_upto h));
      (fun () ->
        lists "chain" (lsn_ints (Model.chain_to_list m)) (lsn_ints (Hot_log.chain_to_list h)));
      (fun () ->
        let rec at i =
          if i > max_lsn then None
          else
            let l = Lsn.of_int i in
            if Model.contains m l <> Hot_log.contains h l then
              Some (Printf.sprintf "contains %d: model %b" i (Model.contains m l))
            else if i mod stride <> 0 then at (i + 1)
            else
              let expected = lsn_ints (Model.chained_records_above m l) in
              match
                lists (Printf.sprintf "above %d" i) expected
                  (lsn_ints (Hot_log.chained_records_above h l))
              with
              | Some e -> Some e
              | None when List.length expected <> Hot_log.iter_chained_above h l ignore ->
                Some (Printf.sprintf "iter above %d" i)
              | None -> at (i + 1)
        in
        at 0);
    ]
  in
  List.find_map (fun c -> c ()) checks

(* The records a writer would send one segment: fresh LSNs with gaps (other
   groups' records), each linked to the previous one. *)
type world = {
  rng : Simcore.Rng.t;
  mutable next : int;
  mutable tail : Lsn.t; (* prev_segment of the next fresh record *)
  mutable withheld : Log_record.t list; (* made, not yet delivered *)
  mutable made : Log_record.t list; (* every record ever made *)
}

let record ~lsn:l ~prev =
  let i = Lsn.to_int l in
  Log_record.make ~lsn:l ~prev_volume:prev ~prev_segment:prev ~prev_block:Lsn.none
    ~block:(Block_id.of_int (i mod 4))
    ~txn:(Txn_id.of_int 1) ~mtr_id:i ~mtr_end:true
    ~op:(Log_record.Put { key = "k"; value = String.make (i mod 7) 'v' })

let fresh w =
  let r = record ~lsn:(Lsn.of_int w.next) ~prev:w.tail in
  w.tail <- r.lsn;
  w.next <- w.next + 1 + Simcore.Rng.int w.rng 2;
  w.made <- r :: w.made;
  r

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Simcore.Rng.int rng (List.length l)))

(* One random history of 200-400 operations from [seed]; [Some] message at
   the first divergence. *)
let model_divergence seed =
  let rng = Simcore.Rng.create seed in
  let w = { rng; next = 1; tail = Lsn.none; withheld = []; made = [] } in
  let m, h =
    if Simcore.Rng.int rng 3 = 0 then begin
      (* Anchored: a chain below the anchor exists, reaching exactly it, and
         may arrive later as strays or as the slice's missing links. *)
      let anchor = Simcore.Rng.int_in rng 3 20 in
      let rec below l prev =
        if l > anchor then ()
        else begin
          w.made <- record ~lsn:(Lsn.of_int l) ~prev :: w.made;
          let step = if l = anchor then 1 else min (anchor - l) (1 + Simcore.Rng.int rng 3) in
          below (l + step) (Lsn.of_int l)
        end
      in
      below 1 Lsn.none;
      w.next <- anchor + 1;
      w.tail <- Lsn.of_int anchor;
      (Model.create_anchored (Lsn.of_int anchor), Hot_log.create_anchored (Lsn.of_int anchor))
    end
    else (Model.create (), Hot_log.create ())
  in
  let trace = Buffer.create 256 in
  let insert (r : Log_record.t) =
    Buffer.add_string trace (Printf.sprintf " ins %d<-%d" (Lsn.to_int r.lsn) (Lsn.to_int r.prev_segment));
    let a = Model.insert m r and b = Hot_log.insert h r in
    if a = b then None else Some "insert result"
  in
  let op () =
    match Simcore.Rng.int rng 20 with
    | 0 | 1 | 2 | 3 | 4 | 5 -> insert (fresh w)
    | 6 | 7 | 8 ->
      (* A burst delivered out of order, part of it held back. *)
      let burst = Array.init (Simcore.Rng.int_in rng 2 6) (fun _ -> fresh w) in
      Simcore.Rng.shuffle rng burst;
      List.find_map
        (fun r ->
          if Simcore.Rng.int rng 3 = 0 then begin
            w.withheld <- r :: w.withheld;
            None
          end
          else insert r)
        (Array.to_list burst)
    | 9 | 10 -> (
      match pick rng w.withheld with
      | None -> None
      | Some r ->
        w.withheld <- List.filter (fun (x : Log_record.t) -> not (Lsn.equal x.lsn r.lsn)) w.withheld;
        insert r)
    | 11 | 12 -> (
      (* Duplicate, or re-insert of a dropped or annulled record. *)
      match pick rng w.made with Some r -> insert r | None -> None)
    | 13 | 14 -> (
      let below = List.filter (fun (r : Log_record.t) -> Lsn.(r.lsn <= Model.scl m)) w.made in
      match pick rng below with Some r -> insert r | None -> None)
    | 15 | 16 | 17 | 18 ->
      let highest = Lsn.to_int (Model.highest_received m) in
      let upto = Lsn.of_int (Simcore.Rng.int rng (highest + 4)) in
      Buffer.add_string trace (Printf.sprintf " drop %d" (Lsn.to_int upto));
      let a = Model.drop_below m ~upto and b = Hot_log.drop_below h ~upto in
      if a = b then None else Some "drop count"
    | _ ->
      (* Recovery-shaped: the range reaches past every LSN made so far, and
         the writer restarts its chain from the new SCL above it. *)
      let highest = Lsn.to_int (Model.highest_received m) in
      let above = Lsn.of_int (Simcore.Rng.int rng (highest + 2)) in
      let past = Simcore.Rng.int rng 5 in
      let upto = Lsn.of_int (w.next + past) in
      Buffer.add_string trace (Printf.sprintf " annul %d..%d" (Lsn.to_int above) (Lsn.to_int upto));
      let a = Model.annul_range m ~above ~upto and b = Hot_log.annul_range h ~above ~upto in
      w.next <- w.next + past + 1;
      w.tail <- Model.scl m;
      w.withheld <- [];
      if a = b then None else Some "annul count"
  in
  let n_ops = Simcore.Rng.int_in rng 200 400 in
  let rec run i =
    if i = n_ops then None
    else
      let err =
        match op () with
        | Some e -> Some e
        | None -> (
          match disagreement ~max_lsn:(w.next + 1) m h with
          | Some e -> Some e
          | None ->
            (* A gossip-sized prefix at a random LSN. *)
            let l = Lsn.of_int (Simcore.Rng.int rng (w.next + 1)) in
            let limit = Simcore.Rng.int rng 6 in
            let all = lsn_ints (Model.chained_records_above m l) in
            let expected = List.filteri (fun i _ -> i < limit) all in
            if expected = lsn_ints (Hot_log.chained_records_above ~limit h l) then None
            else Some (Printf.sprintf "above %d limit %d" (Lsn.to_int l) limit))
      in
      match err with
      | Some e -> Some (Printf.sprintf "seed %d, op %d: %s; ops:%s" seed i e (Buffer.contents trace))
      | None -> run (i + 1)
  in
  run 0

let prop_hot_log_matches_model =
  QCheck.Test.make ~name:"hot log matches reference model" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match model_divergence seed with
      | None -> true
      | Some e -> QCheck.Test.fail_report e)

(* Past 10k in-order inserts: drops that trail the SCL in uneven steps,
   then none for a long stretch, then frequent ones, so the slice both
   compacts in place and grows. *)
let test_hot_log_long_run () =
  let m = Model.create () and h = Hot_log.create () in
  let prev = ref Lsn.none in
  for i = 1 to 12_000 do
    let r = record ~lsn:(Lsn.of_int i) ~prev:!prev in
    prev := r.lsn;
    check_bool "insert result" true (Model.insert m r = Hot_log.insert h r);
    let drop upto =
      check_int "dropped" (Model.drop_below m ~upto) (Hot_log.drop_below h ~upto)
    in
    if i < 6_000 && i mod 997 = 0 then drop (Lsn.of_int (i - 300));
    if i > 8_000 && i mod 50 = 0 then drop (Lsn.of_int (i - 10));
    if i mod 1_000 = 0 || i = 12_000 then
      match disagreement ~stride:97 ~max_lsn:(i + 1) m h with
      | None -> ()
      | Some e -> Alcotest.failf "after %d inserts: %s" i e
  done;
  check_int "retained" 10 (Hot_log.record_count h)

(* ---- Truncation ranges ---- *)

(* [annul_range ~above ~upto] covers the half-open range (above, upto]:
   the lower bound survives, the upper bound is annulled, and records
   above the range stay stored. *)
let test_truncation () =
  let log = Hot_log.create () in
  let records = make_chain 25 in
  List.iter (fun r -> ignore (Hot_log.insert log r : Hot_log.insert_result)) records;
  check_int "drops exactly the range" 10
    (Hot_log.annul_range log ~above:(lsn 10) ~upto:(lsn 20));
  check_bool "below untouched" false (Hot_log.is_annulled log (lsn 10));
  check_bool "in range" true (Hot_log.is_annulled log (lsn 15));
  check_bool "upper inclusive" true (Hot_log.is_annulled log (lsn 20));
  check_bool "above range" false (Hot_log.is_annulled log (lsn 21));
  check_bool "lower bound kept" true (Hot_log.contains log (lsn 10));
  check_bool "records above kept" true (Hot_log.contains log (lsn 21));
  check_int "retained" 15 (Hot_log.record_count log);
  check_int "scl at the lower bound" 10 (Lsn.to_int (Hot_log.scl log));
  let r i = List.nth records (i - 1) in
  (match Hot_log.insert log (r 20) with
  | Hot_log.Annulled -> ()
  | _ -> Alcotest.fail "upper bound: expected Annulled");
  match Hot_log.insert log (r 10) with
  | Hot_log.Duplicate -> ()
  | _ -> Alcotest.fail "lower bound: expected Duplicate"

(* ---- Txn ids ---- *)

let test_txn_allocator () =
  let a = Txn_id.Allocator.create () in
  check_int "first" 1 (Txn_id.to_int (Txn_id.Allocator.take a));
  Txn_id.Allocator.reset_above a (Txn_id.of_int 50);
  check_int "resumes" 51 (Txn_id.to_int (Txn_id.Allocator.take a))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "wal"
    [
      ( "lsn",
        [
          Alcotest.test_case "allocator" `Quick test_lsn_allocator;
          Alcotest.test_case "allocator reset" `Quick test_lsn_allocator_reset;
          Alcotest.test_case "compare" `Quick test_lsn_compare;
        ] );
      ( "record",
        [
          Alcotest.test_case "size" `Quick test_record_size;
          Alcotest.test_case "version matches op" `Quick test_record_version;
        ] );
      ( "hot_log",
        [
          Alcotest.test_case "in order" `Quick test_hot_log_in_order;
          Alcotest.test_case "gap then fill" `Quick test_hot_log_gap_then_fill;
          Alcotest.test_case "duplicate" `Quick test_hot_log_duplicate;
          Alcotest.test_case "chained above" `Quick test_hot_log_chained_above;
          Alcotest.test_case "annul range" `Quick test_hot_log_annul;
          Alcotest.test_case "annul with pending" `Quick
            test_hot_log_annul_with_pending;
          Alcotest.test_case "drop below (GC)" `Quick test_hot_log_drop_below;
          Alcotest.test_case "anchored" `Quick test_hot_log_anchored;
          qc prop_scl_order_independent;
          qc prop_annul_then_scl_valid;
          Alcotest.test_case "long run: grow and compact" `Quick test_hot_log_long_run;
          qc prop_hot_log_matches_model;
        ] );
      ("truncation", [ Alcotest.test_case "ranges" `Quick test_truncation ]);
      ("txn_id", [ Alcotest.test_case "allocator" `Quick test_txn_allocator ]);
    ]
