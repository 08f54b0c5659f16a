(* Tests for the storage substrate: block store, segments, disk, S3, and
   storage-node actors over the simulated network. *)
open Simcore
open Wal
open Quorum
module Protocol = Storage.Protocol

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let lsn = Lsn.of_int
let blk = Block_id.of_int
let txn = Txn_id.of_int

let put ~l ?(prev = Lsn.none) ?(prev_block = Lsn.none) ?(t = 1) ~block key value =
  Log_record.make ~lsn:(lsn l) ~prev_volume:(lsn (l - 1)) ~prev_segment:prev
    ~prev_block ~block:(blk block) ~txn:(txn t) ~mtr_id:l ~mtr_end:true
    ~op:(Log_record.Put { key; value })

(* ---- Block_store ---- *)

let test_block_store_versions () =
  let s = Storage.Block_store.create () in
  Storage.Block_store.apply s (put ~l:1 ~block:0 "a" "v1");
  Storage.Block_store.apply s (put ~l:2 ~prev_block:(lsn 1) ~t:2 ~block:0 "a" "v2");
  let vs = Storage.Block_store.versions s (blk 0) ~key:"a" in
  check_int "two versions" 2 (List.length vs);
  (match vs with
  | v :: _ -> check_int "newest first" 2 (Lsn.to_int v.Storage.Block_store.lsn)
  | [] -> Alcotest.fail "no versions");
  check_int "applied_upto" 2 (Lsn.to_int (Storage.Block_store.applied_upto s))

let test_block_store_read_at () =
  let s = Storage.Block_store.create () in
  Storage.Block_store.apply s (put ~l:1 ~block:0 "a" "v1");
  Storage.Block_store.apply s (put ~l:5 ~prev_block:(lsn 1) ~t:2 ~block:0 "a" "v2");
  let at l =
    match
      Storage.Block_store.read_at s (blk 0) ~key:"a" ~as_of:(lsn l)
        ~exclude:Txn_id.Set.empty
    with
    | Some v -> v.Storage.Block_store.value
    | None -> None
  in
  Alcotest.(check (option string)) "old view" (Some "v1") (at 3);
  Alcotest.(check (option string)) "new view" (Some "v2") (at 5);
  Alcotest.(check (option string)) "before everything" None (at 0);
  (* Exclusion backs out a transaction (undo semantics). *)
  (match
     Storage.Block_store.read_at s (blk 0) ~key:"a" ~as_of:(lsn 5)
       ~exclude:(Txn_id.Set.singleton (txn 2))
   with
  | Some v -> Alcotest.(check (option string)) "excluded" (Some "v1") v.Storage.Block_store.value
  | None -> Alcotest.fail "expected v1")

let test_block_store_gc () =
  let s = Storage.Block_store.create () in
  for i = 1 to 5 do
    Storage.Block_store.apply s
      (put ~l:i ~prev_block:(if i = 1 then Lsn.none else lsn (i - 1)) ~t:i ~block:0
         "a" (Printf.sprintf "v%d" i));
    Storage.Block_store.note_outcome s (txn i) (lsn i) ~aborted:false
  done;
  (* Floor at 3: versions 1,2 superseded by the committed version 3 ->
     collected. *)
  let dropped = Storage.Block_store.gc s ~keep_at_or_above:(lsn 3) in
  check_int "collected" 2 dropped;
  check_int "remaining" 3 (List.length (Storage.Block_store.versions s (blk 0) ~key:"a"));
  (* The floor's visible version survives. *)
  (match
     Storage.Block_store.read_at s (blk 0) ~key:"a" ~as_of:(lsn 3)
       ~exclude:Txn_id.Set.empty
   with
  | Some v -> Alcotest.(check (option string)) "floor view" (Some "v3") v.Storage.Block_store.value
  | None -> Alcotest.fail "floor version collected");
  (* Uncommitted versions never anchor the cut: with nothing committed,
     GC collects nothing. *)
  let s2 = Storage.Block_store.create () in
  for i = 1 to 4 do
    Storage.Block_store.apply s2
      (put ~l:i ~prev_block:(if i = 1 then Lsn.none else lsn (i - 1)) ~block:0
         "a" (Printf.sprintf "v%d" i))
  done;
  check_int "conservative without commit info" 0
    (Storage.Block_store.gc s2 ~keep_at_or_above:(lsn 4))

let test_block_store_rollback () =
  let s = Storage.Block_store.create () in
  for i = 1 to 5 do
    Storage.Block_store.apply s
      (put ~l:i ~prev_block:(if i = 1 then Lsn.none else lsn (i - 1)) ~block:0
         "a" (Printf.sprintf "v%d" i))
  done;
  let dropped = Storage.Block_store.rollback_above s (lsn 2) in
  check_int "rolled back" 3 dropped;
  check_int "applied clamped" 2 (Lsn.to_int (Storage.Block_store.applied_upto s))

let test_block_store_scrub () =
  let s = Storage.Block_store.create () in
  Storage.Block_store.apply s (put ~l:1 ~block:0 "a" "v1");
  check_bool "clean verifies" true (Storage.Block_store.verify s (blk 0));
  check_bool "corruption injected" true (Storage.Block_store.corrupt s (blk 0));
  check_bool "detected" false (Storage.Block_store.verify s (blk 0));
  (* Repair by reloading a good snapshot. *)
  let good = Storage.Block_store.create () in
  Storage.Block_store.apply good (put ~l:1 ~block:0 "a" "v1");
  Storage.Block_store.load_snapshot s (blk 0)
    (Storage.Block_store.block_snapshot good (blk 0));
  check_bool "repaired" true (Storage.Block_store.verify s (blk 0))

(* A corrupted head must stay visible through later legitimate writes and
   GC: none of them may recompute the checksum over the corrupt value. *)
let test_block_store_no_laundering () =
  let module B = Storage.Block_store in
  let s = B.create () in
  let good = B.create () in
  List.iter
    (fun r ->
      B.apply s r;
      B.apply good r)
    [ put ~l:1 ~block:0 "a" "a1"; put ~l:2 ~block:0 "b" "b1" ];
  check_bool "corruption injected" true (B.corrupt s (blk 0));
  let head key =
    match B.versions s (blk 0) ~key with v :: _ -> v.B.value | [] -> None
  in
  let victim, other = if head "a" = Some "a1" then ("b", "a") else ("a", "b") in
  check_bool "victim altered" true (head victim <> Some (victim ^ "1"));
  B.apply s (put ~l:3 ~prev_block:(lsn 2) ~t:2 ~block:0 victim (victim ^ "2"));
  check_bool "after write to corrupted key" false (B.verify s (blk 0));
  B.apply s (put ~l:4 ~prev_block:(lsn 3) ~t:2 ~block:0 other (other ^ "2"));
  check_bool "after write to another key" false (B.verify s (blk 0));
  B.note_outcome s (txn 1) (lsn 2) ~aborted:false;
  B.note_outcome s (txn 2) (lsn 4) ~aborted:false;
  check_int "gc collects the superseded versions" 2
    (B.gc s ~keep_at_or_above:(lsn 4));
  check_bool "after gc" false (B.verify s (blk 0));
  B.load_snapshot s (blk 0) (B.block_snapshot good (blk 0));
  check_bool "good image repairs" true (B.verify s (blk 0))

(* The checksum folds values a word at a time, the last word partial, so
   corruption is checked at every value length from 0 to 130 (every
   remainder mod 4, several whole words) and with random bytes (a first
   byte of 0xff wraps to 0).  It must stay caught through later writes to
   another key of the block and through GC.  A value of length 0 cannot be
   corrupted: [corrupt] picks only non-empty values. *)
let prop_corrupt_caught_at_every_length =
  let module B = Storage.Block_store in
  QCheck.Test.make ~count:40 ~name:"verify catches corrupt at every value length"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let bytes n = String.init n (fun _ -> Char.chr (Rng.int rng 256)) in
      let caught n =
        let s = B.create () and good = B.create () in
        let both r =
          B.apply s r;
          B.apply good r
        in
        both (put ~l:1 ~block:0 "target" (bytes n));
        if n = 0 then (not (B.corrupt s (blk 0))) && B.verify s (blk 0)
        else begin
          let corrupted = B.corrupt s (blk 0) in
          let at_once = not (B.verify s (blk 0)) in
          both (put ~l:2 ~t:2 ~block:0 "other" (bytes (Rng.int rng 70)));
          both (put ~l:3 ~prev_block:(lsn 2) ~t:2 ~block:0 "other" (bytes (Rng.int rng 70)));
          let after_writes = not (B.verify s (blk 0)) in
          List.iter (fun st -> B.note_outcome st (txn 2) (lsn 4) ~aborted:false) [ s; good ];
          let collected = B.gc s ~keep_at_or_above:(lsn 4) in
          ignore (B.gc good ~keep_at_or_above:(lsn 4) : int);
          corrupted && at_once && after_writes && collected = 1
          && (not (B.verify s (blk 0)))
          && B.verify good (blk 0)
        end
      in
      List.for_all caught (List.init 131 Fun.id))

let test_block_store_repair () =
  let module B = Storage.Block_store in
  let s = B.create () and peer = B.create () and bad_peer = B.create () in
  List.iter
    (fun r -> List.iter (fun st -> B.apply st r) [ s; peer; bad_peer ])
    [ put ~l:1 ~block:0 "a" "a1"; put ~l:2 ~block:0 "b" "b1" ];
  check_bool "clean block is left alone" false
    (B.repair s (blk 0) (B.block_snapshot peer (blk 0)));
  check_bool "corrupt" true (B.corrupt s (blk 0));
  check_bool "peer corrupt too" true (B.corrupt bad_peer (blk 0));
  check_bool "corrupt image rejected" false
    (B.repair s (blk 0) (B.block_snapshot bad_peer (blk 0)));
  check_bool "still corrupt" false (B.verify s (blk 0));
  check_bool "good image installed" true
    (B.repair s (blk 0) (B.block_snapshot peer (blk 0)));
  check_bool "repaired" true (B.verify s (blk 0))

(* Two segments apply the same record objects, so their chains share each
   version.  [corrupt] on one must not reach the other, nor the record: it
   swaps in a private copy. *)
let test_block_store_shared_versions () =
  let module B = Storage.Block_store in
  let a = B.create () and b = B.create () in
  let records = [ put ~l:1 ~block:0 "a" "a1"; put ~l:2 ~block:0 "b" "b1" ] in
  List.iter
    (fun r ->
      B.apply a r;
      B.apply b r)
    records;
  let head s key =
    match B.versions s (blk 0) ~key with v :: _ -> v.B.value | [] -> None
  in
  List.iter
    (fun key ->
      check_bool "one version object" true
        (List.hd (B.versions a (blk 0) ~key) == List.hd (B.versions b (blk 0) ~key)))
    [ "a"; "b" ];
  check_bool "corrupt A" true (B.corrupt a (blk 0));
  check_bool "A mismatched" false (B.verify a (blk 0));
  check_bool "B still verifies" true (B.verify b (blk 0));
  Alcotest.(check (option string)) "B reads a" (Some "a1") (head b "a");
  Alcotest.(check (option string)) "B reads b" (Some "b1") (head b "b");
  List.iter
    (fun (r : Log_record.t) ->
      match r.op with
      | Log_record.Put { value; _ } ->
        Alcotest.(check (option string)) "record untouched" (Some value) r.version.value
      | Log_record.Delete _ | Log_record.Commit | Log_record.Abort | Log_record.Noop -> ())
    records;
  let later = put ~l:3 ~t:2 ~block:0 "c" "c1" in
  B.apply a later;
  B.apply b later;
  check_bool "A mismatched after a write" false (B.verify a (blk 0));
  check_bool "B verifies after a write" true (B.verify b (blk 0));
  B.load_snapshot a (blk 0) (B.block_snapshot b (blk 0));
  check_bool "A repaired by load_snapshot" true (B.verify a (blk 0));
  check_bool "B still verifies after A's repair" true (B.verify b (blk 0))

(* A second fault on a block already mismatched must not re-derive the
   expected contents from the first fault's edit.  After a later write, a
   good peer image still repairs the block, and an image carrying one or
   both faults is rejected.  A later image of other contents, installed
   wholesale, leaves nothing of the fault behind. *)
let test_block_store_corrupt_twice () =
  let module B = Storage.Block_store in
  let s = B.create () and peer = B.create () in
  let once = B.create () and twice = B.create () in
  let all r = List.iter (fun st -> B.apply st r) [ s; peer; once; twice ] in
  all (put ~l:1 ~block:0 "a" "a1");
  all (put ~l:2 ~block:0 "b" "b1");
  check_bool "first fault" true (B.corrupt s (blk 0));
  check_bool "second fault" true (B.corrupt s (blk 0));
  check_bool "peer image with one fault" true (B.corrupt once (blk 0));
  check_bool "peer image with two faults" true
    (B.corrupt twice (blk 0) && B.corrupt twice (blk 0));
  all (put ~l:3 ~t:2 ~block:0 "c" "c1");
  check_bool "mismatched" false (B.verify s (blk 0));
  check_bool "one-fault image rejected" false
    (B.repair s (blk 0) (B.block_snapshot once (blk 0)));
  check_bool "two-fault image rejected" false
    (B.repair s (blk 0) (B.block_snapshot twice (blk 0)));
  check_bool "good image installed" true
    (B.repair s (blk 0) (B.block_snapshot peer (blk 0)));
  check_bool "repaired" true (B.verify s (blk 0));
  check_bool "a third fault" true (B.corrupt s (blk 0));
  B.apply peer (put ~l:4 ~t:3 ~block:0 "d" "d1");
  B.load_snapshot s (blk 0) (B.block_snapshot peer (blk 0));
  check_bool "a newer image installed wholesale verifies" true (B.verify s (blk 0))

(* Rollback rewrites heads of a faulted block like any other write.  With
   the faulted head kept, a peer rolled back alike still repairs the
   block; with the faulted head itself dropped, the block stays
   mismatched until an image is installed.  Key "b" ends in an empty
   value, so the fault lands on "a". *)
let test_block_store_rollback_tracked () =
  let module B = Storage.Block_store in
  let s = B.create () and peer = B.create () in
  let both r = List.iter (fun st -> B.apply st r) [ s; peer ] in
  both (put ~l:1 ~block:0 "a" "a1");
  both (put ~l:2 ~block:0 "b" "b2");
  both (put ~l:3 ~prev_block:(lsn 1) ~t:2 ~block:0 "a" "a3");
  both (put ~l:4 ~prev_block:(lsn 2) ~t:2 ~block:0 "b" "");
  check_bool "fault" true (B.corrupt s (blk 0));
  check_bool "the fault is on a" true
    ((List.hd (B.versions s (blk 0) ~key:"a")).B.value <> Some "a3");
  List.iter (fun st -> check_int "b's head rolled back" 1 (B.rollback_above st (lsn 3))) [ s; peer ];
  check_bool "mismatch kept" false (B.verify s (blk 0));
  check_bool "peer rolled back alike repairs" true
    (B.repair s (blk 0) (B.block_snapshot peer (blk 0)));
  check_bool "repaired" true (B.verify s (blk 0));
  check_bool "fault again" true (B.corrupt s (blk 0));
  check_int "the faulted head rolled back" 1 (B.rollback_above s (lsn 2));
  check_bool "mismatch kept without the faulted head" false (B.verify s (blk 0));
  ignore (B.rollback_above peer (lsn 2) : int);
  B.load_snapshot s (blk 0) (B.block_snapshot peer (blk 0));
  check_bool "image installed" true (B.verify s (blk 0))

(* A fault is its block's own: block 1 of the same store verifies through
   writes made after block 0's fault, and repair leaves it alone. *)
let test_block_store_fault_stays_in_its_block () =
  let module B = Storage.Block_store in
  let s = B.create () and peer = B.create () in
  let both r = List.iter (fun st -> B.apply st r) [ s; peer ] in
  both (put ~l:1 ~block:0 "a" "a1");
  both (put ~l:2 ~block:1 "x" "x1");
  check_bool "fault on block 0" true (B.corrupt s (blk 0));
  both (put ~l:3 ~prev_block:(lsn 2) ~t:2 ~block:1 "x" "x3");
  both (put ~l:4 ~t:2 ~block:1 "y" "y1");
  check_bool "block 0 mismatched" false (B.verify s (blk 0));
  check_bool "block 1 verifies" true (B.verify s (blk 1));
  check_bool "repair leaves block 1 alone" false
    (B.repair s (blk 1) (B.block_snapshot peer (blk 1)));
  check_bool "even for other contents" false
    (B.repair s (blk 1) (B.block_snapshot peer (blk 0)));
  check_int "block 1 keeps its versions" 2 (List.length (B.versions s (blk 1) ~key:"x"));
  check_bool "block 1 still verifies" true (B.verify s (blk 1))

(* ---- GC parking: a key whose non-last versions have no commit outcome
   is parked, and must come back when a commit or a write can change it. *)

(* Block 0 key "a": t1 at LSN 1 (committed at 2) under t2 at LSN 3. *)
let parked_pair () =
  let module B = Storage.Block_store in
  let s = B.create () in
  B.apply s (put ~l:1 ~t:1 ~block:0 "a" "v1");
  B.note_outcome s (txn 1) (lsn 2) ~aborted:false;
  B.apply s (put ~l:3 ~prev_block:(lsn 1) ~t:2 ~block:0 "a" "v3");
  s

let test_gc_parked_woken_by_commit () =
  let module B = Storage.Block_store in
  let s = parked_pair () in
  check_int "t2 unknown: nothing to collect" 0 (B.gc s ~keep_at_or_above:(lsn 3));
  B.note_outcome s (txn 2) (lsn 4) ~aborted:true;
  check_int "an abort anchors nothing" 0 (B.gc s ~keep_at_or_above:(lsn 4));
  B.note_outcome s (txn 2) (lsn 4) ~aborted:false;
  check_int "late commit collects" 1 (B.gc s ~keep_at_or_above:(lsn 4));
  check_int "one version left" 1 (List.length (B.versions s (blk 0) ~key:"a"))

let test_gc_parked_woken_by_write () =
  let module B = Storage.Block_store in
  let s = parked_pair () in
  check_int "parked" 0 (B.gc s ~keep_at_or_above:(lsn 3));
  B.apply s (put ~l:5 ~prev_block:(lsn 3) ~t:3 ~block:0 "a" "v5");
  B.note_outcome s (txn 3) (lsn 6) ~aborted:false;
  check_int "write woke it" 2 (B.gc s ~keep_at_or_above:(lsn 6));
  check_int "version_count" 1 (B.version_count s)

(* A commit above the floor keeps its key on the work list: the next floor
   can anchor on it without any other event. *)
let test_gc_commit_above_floor_not_parked () =
  let module B = Storage.Block_store in
  let s = parked_pair () in
  B.note_outcome s (txn 2) (lsn 10) ~aborted:false;
  check_int "commit above the floor" 0 (B.gc s ~keep_at_or_above:(lsn 4));
  check_int "floor reaches the commit" 1 (B.gc s ~keep_at_or_above:(lsn 10))

(* Rollback rebuilds the index: a parked key ("a") and a key left on the
   work list ("b") in the same block both collect afterwards. *)
let test_gc_parked_across_rollback () =
  let module B = Storage.Block_store in
  let s = parked_pair () in
  B.apply s (put ~l:4 ~t:1 ~block:0 "b" "b4");
  B.apply s (put ~l:5 ~prev_block:(lsn 4) ~t:4 ~block:0 "b" "b5");
  B.note_outcome s (txn 1) (lsn 6) ~aborted:false;
  B.note_outcome s (txn 4) (lsn 9) ~aborted:false;
  B.apply s (put ~l:7 ~prev_block:(lsn 3) ~t:5 ~block:0 "a" "v7");
  B.apply s (put ~l:8 ~prev_block:(lsn 5) ~t:5 ~block:0 "b" "b8");
  check_int "nothing yet" 0 (B.gc s ~keep_at_or_above:(lsn 8));
  check_int "t5 rolled back" 2 (B.rollback_above s (lsn 6));
  B.note_outcome s (txn 2) (lsn 9) ~aborted:false;
  check_int "both keys collect" 2 (B.gc s ~keep_at_or_above:(lsn 9));
  check_int "version_count" 2 (B.version_count s)

(* A snapshot replaces a block holding a parked key and a busy work list:
   the new image's keys are GC work, the old entry is no longer GC'd. *)
let test_gc_parked_across_load_snapshot () =
  let module B = Storage.Block_store in
  let s = parked_pair () in
  check_int "parked" 0 (B.gc s ~keep_at_or_above:(lsn 3));
  B.apply s (put ~l:4 ~t:1 ~block:0 "b" "b4");
  B.apply s (put ~l:5 ~prev_block:(lsn 4) ~t:1 ~block:0 "b" "b5");
  let image = B.block_snapshot s (blk 0) in
  B.load_snapshot s (blk 0) [ ("a", B.versions s (blk 0) ~key:"a") ];
  check_int "old entry dropped" 2 (B.version_count s);
  B.note_outcome s (txn 2) (lsn 6) ~aborted:false;
  check_int "loaded key collects" 1 (B.gc s ~keep_at_or_above:(lsn 6));
  check_int "only the image's versions left" 1 (B.version_count s);
  B.load_snapshot s (blk 0) image;
  check_int "reloaded image collects" 2 (B.gc s ~keep_at_or_above:(lsn 6));
  check_int "heads only" 2 (B.version_count s)

(* One block with 1,000 keys: its key table doubles six times from 8
   slots, and every key is still found, listed once and digested once. *)
let test_block_store_many_keys () =
  let module B = Storage.Block_store in
  let s = B.create () in
  let n = 1_000 in
  let key i = Printf.sprintf "key%d" i in
  for i = 1 to n do
    B.apply s (put ~l:i ~t:i ~block:0 (key i) (Printf.sprintf "v%d" i))
  done;
  for i = 1 to n do
    match B.versions s (blk 0) ~key:(key i) with
    | [ v ] when v.B.value = Some (Printf.sprintf "v%d" i) -> ()
    | _ -> Alcotest.failf "versions of %s" (key i)
  done;
  let keys entries = List.sort_uniq String.compare (List.map fst entries) in
  let snapshot = B.block_snapshot s (blk 0) in
  check_int "snapshot entries" n (List.length snapshot);
  check_int "snapshot keys" n (List.length (keys snapshot));
  let image, _ = B.image s (blk 0) ~as_of:(lsn n) in
  check_int "image entries" n (List.length image);
  check_int "image keys" n (List.length (keys image));
  check_bool "verify" true (B.verify s (blk 0))

(* Differential check of Block_store against a naive model: assoc-list
   chains, an outcome table, a GC that scans every key, and the checksum
   rule "a block verifies iff no corrupt returned true since its last
   load_snapshot".  Outcomes arrive as store state at their own LSNs, before
   or after the GC passes that meet their transactions' versions, so keys
   park and are woken by both later commits and later writes. *)
module Model = struct
  type op =
    | Apply of { block : int; key : int; value : int; txn : int }
        (** [value] 0 is a delete, 1 the empty string. *)
    | Outcome of { txn : int; aborted : bool }
        (** recorded at the next LSN, replacing any earlier outcome *)
    | Gc of { back : int }
    | Rollback of { back : int }
    | Load of { block : int; src : int }  (** install [src]'s model image *)
    | Corrupt of { block : int }
    | Verify of { block : int }

  let n_blocks = 3
  let n_txns = 6

  (* Keys 0-3 are the narrow range most applies draw from, so chains grow
     long; a fill writes a run of keys from 4 up, so a block's key table
     grows past 32 keys (two doublings from its 8 slots). *)
  let key_of i =
    if i < 26 then String.make 1 (Char.chr (Char.code 'a' + i)) else Printf.sprintf "k%d" i

  let value_of = function
    | 0 -> None
    | 1 -> Some ""
    | v -> Some (Printf.sprintf "v%d" v)

  let show = function
    | Apply { block; key; value; txn } ->
      Printf.sprintf "apply b%d %s=%s t%d" block (key_of key)
        (match value_of value with Some v -> Printf.sprintf "%S" v | None -> "del")
        txn
    | Outcome { txn; aborted } ->
      Printf.sprintf "%s t%d" (if aborted then "abort" else "commit") txn
    | Gc { back } -> Printf.sprintf "gc -%d" back
    | Rollback { back } -> Printf.sprintf "rollback -%d" back
    | Load { block; src } -> Printf.sprintf "load b%d <- b%d" block src
    | Corrupt { block } -> Printf.sprintf "corrupt b%d" block
    | Verify { block } -> Printf.sprintf "verify b%d" block

  let gen_op =
    let open QCheck.Gen in
    let block = int_bound (n_blocks - 1) in
    frequency
      [
        ( 8,
          map4
            (fun block key value txn -> Apply { block; key; value; txn })
            block (int_bound 3) (int_bound 5) (int_range 1 n_txns) );
        ( 3,
          map2
            (fun txn aborted -> Outcome { txn; aborted })
            (int_range 1 n_txns)
            (map (fun n -> n = 0) (int_bound 3)) );
        (3, map (fun back -> Gc { back }) (int_bound 6));
        (1, map (fun back -> Rollback { back }) (int_bound 4));
        (1, map2 (fun block src -> Load { block; src }) block block);
        (2, map (fun block -> Corrupt { block }) block);
        (2, map (fun block -> Verify { block }) block);
      ]

  (* One op, or a fill: a run of applies to consecutive keys of one block. *)
  let gen_steps =
    let open QCheck.Gen in
    let fill =
      map4
        (fun block first n txn ->
          List.init n (fun j -> Apply { block; key = first + j; value = 2 + (j mod 4); txn }))
        (int_bound (n_blocks - 1))
        (int_range 4 44) (int_range 8 40) (int_range 1 n_txns)
    in
    frequency [ (12, map (fun op -> [ op ]) gen_op); (1, fill) ]

  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show ops))
      ~shrink:QCheck.Shrink.list
      QCheck.Gen.(map List.concat (list_size (int_range 1 80) gen_steps))

  (* Model state: per block, an assoc list key -> chain (newest first);
     [None] for a block the store has never seen. *)
  type version = string option * int * int (* value, txn, lsn *)

  let version_bytes key ((value, _, _) : version) =
    String.length key
    + (match value with Some s -> String.length s | None -> 0)
    + 24

  let of_store (v : Storage.Block_store.version) : version =
    (v.value, Txn_id.to_int v.txn, Lsn.to_int v.lsn)

  let to_store ((value, t, l) : version) : Storage.Block_store.version =
    { value; txn = txn t; lsn = lsn l }

  let sorted chains = List.sort (fun (a, _) (b, _) -> String.compare a b) chains

  (* Full-scan GC: cut each chain below its newest committed
     version at or below the floor. *)
  let gc_chain ~floor ~is_committed vs =
    let rec split kept = function
      | [] -> (List.rev kept, [])
      | ((_, t, l) as v) :: rest ->
        if l <= floor && is_committed t then (List.rev (v :: kept), rest)
        else split (v :: kept) rest
    in
    split [] vs

  let run ops =
    let module B = Storage.Block_store in
    let s = B.create () in
    let model = Array.make n_blocks None in
    let outcomes = Array.make (n_txns + 1) None in
    let tainted = Array.make n_blocks false in
    let next = ref 0 in
    let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt in
    let chains b = match model.(b) with Some c -> c | None -> [] in
    let check_state step =
      let nv = ref 0 and bytes = ref 0 in
      for b = 0 to n_blocks - 1 do
        let want = sorted (chains b) in
        let got =
          sorted
            (List.map
               (fun (k, vs) -> (k, List.map of_store vs))
               (B.block_snapshot s (blk b)))
        in
        if want <> got then fail "%s: block %d chains differ" step b;
        List.iter
          (fun (k, vs) ->
            List.iter
              (fun v ->
                incr nv;
                bytes := !bytes + version_bytes k v)
              vs)
          want
      done;
      if B.version_count s <> !nv then
        fail "%s: version_count %d, model %d" step (B.version_count s) !nv;
      if B.bytes_used s <> !bytes then
        fail "%s: bytes_used %d, model %d" step (B.bytes_used s) !bytes;
      let want =
        List.filter_map
          (fun t -> Option.map (fun (l, a) -> (t, l, a)) outcomes.(t))
          (List.init n_txns succ)
      in
      let got =
        List.sort compare
          (List.map (fun (t, l, a) -> (Txn_id.to_int t, Lsn.to_int l, a)) (B.outcomes s))
      in
      if want <> got then fail "%s: outcomes differ" step
    in
    List.iter
      (fun op ->
        let step = show op in
        (match op with
        | Apply { block; key; value; txn = t } ->
          incr next;
          let k = key_of key and value = value_of value in
          let op =
            match value with
            | Some value -> Log_record.Put { key = k; value }
            | None -> Log_record.Delete { key = k }
          in
          B.apply s
            (Log_record.make ~lsn:(lsn !next) ~prev_volume:(lsn (!next - 1))
               ~prev_segment:Lsn.none ~prev_block:Lsn.none ~block:(blk block)
               ~txn:(txn t) ~mtr_id:!next ~mtr_end:true ~op);
          let c = chains block in
          let prior = match List.assoc_opt k c with Some vs -> vs | None -> [] in
          let v = (value, t, !next) in
          model.(block) <-
            Some
              (if List.mem_assoc k c then
                 List.map (fun (k', vs) -> if k' = k then (k', v :: prior) else (k', vs)) c
               else c @ [ (k, [ v ]) ])
        | Outcome { txn = t; aborted } ->
          incr next;
          B.note_outcome s (txn t) (lsn !next) ~aborted;
          outcomes.(t) <- Some (!next, aborted)
        | Gc { back } ->
          let floor = max 0 (!next - back) in
          let is_committed t =
            match outcomes.(t) with Some (l, false) -> l <= floor | Some _ | None -> false
          in
          let want = ref 0 in
          for b = 0 to n_blocks - 1 do
            match model.(b) with
            | None -> ()
            | Some c ->
              model.(b) <-
                Some
                  (List.map
                     (fun (k, vs) ->
                       let kept, drop = gc_chain ~floor ~is_committed vs in
                       want := !want + List.length drop;
                       (k, kept))
                     c)
          done;
          let got = B.gc s ~keep_at_or_above:(lsn floor) in
          if got <> !want then fail "%s: dropped %d, model %d" step got !want
        | Rollback { back } ->
          let bound = max 0 (!next - back) in
          let want = ref 0 in
          for b = 0 to n_blocks - 1 do
            match model.(b) with
            | None -> ()
            | Some c ->
              model.(b) <-
                Some
                  (List.map
                     (fun (k, vs) ->
                       let keep = List.filter (fun (_, _, l) -> l <= bound) vs in
                       want := !want + List.length vs - List.length keep;
                       (k, keep))
                     c)
          done;
          let got = B.rollback_above s (lsn bound) in
          if got <> !want then fail "%s: dropped %d, model %d" step got !want
        | Load { block; src } ->
          let image = chains src in
          B.load_snapshot s (blk block)
            (List.map (fun (k, vs) -> (k, List.map to_store vs)) image);
          model.(block) <- Some image;
          tainted.(block) <- false
        | Corrupt { block } ->
          let candidates =
            List.filter
              (fun (_, vs) ->
                match vs with (Some v, _, _) :: _ -> v <> "" | _ -> false)
              (chains block)
          in
          let got = B.corrupt s (blk block) in
          if got <> (candidates <> []) then
            fail "%s: corrupt returned %b with %d candidates" step got
              (List.length candidates);
          if got then begin
            tainted.(block) <- true;
            (* Mirror the store's mutation: exactly one candidate's head
               value has its first byte moved by one. *)
            let bump v =
              String.mapi
                (fun i ch -> if i = 0 then Char.chr ((Char.code ch + 1) land 0xff) else ch)
                v
            in
            let altered =
              List.filter
                (fun (k, vs) ->
                  match (vs, B.versions s (blk block) ~key:k) with
                  | (Some v, _, _) :: _, w :: _ -> w.B.value <> Some v
                  | _ -> false)
                candidates
            in
            match altered with
            | [ (k, (Some v, t, l) :: rest) ] ->
              (match B.versions s (blk block) ~key:k with
              | w :: _ when w.B.value = Some (bump v) -> ()
              | _ -> fail "%s: unexpected corruption of %s" step k);
              model.(block) <-
                Some
                  (List.map
                     (fun (k', vs) ->
                       if k' = k then (k', (Some (bump v), t, l) :: rest) else (k', vs))
                     (chains block))
            | _ -> fail "%s: %d keys altered" step (List.length altered)
          end
        | Verify { block } ->
          let got = B.verify s (blk block) in
          if got = tainted.(block) then
            fail "%s: verify %b, model says tainted=%b" step got tainted.(block));
        check_state step)
      ops;
    true
end

let test_block_store_model =
  QCheck.Test.make ~count:500
    ~name:"matches naive model" Model.arb
    Model.run

(* The one-pass image against the path it replaced: [block_snapshot], then
   the visible-suffix filter, then a fold sizing every version, over random
   histories of puts, deletes, outcomes, GCs, rollbacks, loads and
   corruptions and at random read points.  After every step each block's
   byte total equals a fold over its chains, and the totals sum to
   [bytes_used]. *)
module One_pass_image = struct
  module B = Storage.Block_store

  type op = Step of Model.op | Image of { block : int; back : int }

  let show = function
    | Step op -> Model.show op
    | Image { block; back } -> Printf.sprintf "image b%d at -%d" block back

  let arb =
    let open QCheck.Gen in
    let image =
      map2
        (fun block back -> Image { block; back })
        (int_bound (Model.n_blocks - 1))
        (int_range (-1) 10)
    in
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show ops))
      ~shrink:QCheck.Shrink.list
      (map List.concat
         (list_size (int_range 1 80)
            (frequency
               [
                 (4, map (List.map (fun op -> Step op)) Model.gen_steps);
                 (2, map (fun i -> [ i ]) image);
               ])))

  let chain_bytes (key, vs) =
    List.fold_left
      (fun acc (v : B.version) ->
        acc + String.length key
        + (match v.value with Some s -> String.length s | None -> 0)
        + 24)
      0 vs

  (* What [Segment.read_block] built before [B.image]. *)
  let reference s block ~as_of =
    let rec visible = function
      | (v : B.version) :: rest when Lsn.(v.lsn > as_of) -> visible rest
      | vs -> vs
    in
    let entries =
      List.filter_map
        (fun (key, vs) -> match visible vs with [] -> None | vs -> Some (key, vs))
        (B.block_snapshot s (blk block))
    in
    (entries, List.fold_left (fun acc e -> acc + chain_bytes e) 0 entries)

  let flat entries =
    List.map
      (fun (k, vs) ->
        (k, List.map (fun (v : B.version) -> (v.value, Txn_id.to_int v.txn, Lsn.to_int v.lsn)) vs))
      entries

  let run ops =
    let s = B.create () in
    let next = ref 0 in
    let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt in
    (* At an [as_of] above every applied LSN nothing is hidden: the image's
       size is the block's running total. *)
    let block_bytes b = snd (B.image s (blk b) ~as_of:(Lsn.of_int max_int)) in
    let check_bytes step =
      let total = ref 0 in
      for b = 0 to Model.n_blocks - 1 do
        let want =
          List.fold_left (fun acc e -> acc + chain_bytes e) 0 (B.block_snapshot s (blk b))
        in
        if block_bytes b <> want then
          fail "%s: block %d holds %d bytes, its chains %d" step b (block_bytes b) want;
        total := !total + block_bytes b
      done;
      if !total <> B.bytes_used s then
        fail "%s: block totals sum to %d, bytes_used %d" step !total (B.bytes_used s)
    in
    List.iter
      (fun op ->
        let step = show op in
        (match op with
        | Step (Model.Apply { block; key; value; txn = t }) ->
          incr next;
          let key = Model.key_of key in
          let op =
            match Model.value_of value with
            | Some value -> Log_record.Put { key; value }
            | None -> Log_record.Delete { key }
          in
          B.apply s
            (Log_record.make ~lsn:(lsn !next) ~prev_volume:(lsn (!next - 1))
               ~prev_segment:Lsn.none ~prev_block:Lsn.none ~block:(blk block)
               ~txn:(txn t) ~mtr_id:!next ~mtr_end:true ~op)
        | Step (Model.Outcome { txn = t; aborted }) ->
          incr next;
          B.note_outcome s (txn t) (lsn !next) ~aborted
        | Step (Model.Gc { back }) ->
          ignore (B.gc s ~keep_at_or_above:(lsn (max 0 (!next - back))) : int)
        | Step (Model.Rollback { back }) ->
          ignore (B.rollback_above s (lsn (max 0 (!next - back))) : int)
        | Step (Model.Load { block; src }) ->
          B.load_snapshot s (blk block) (B.block_snapshot s (blk src))
        | Step (Model.Corrupt { block }) -> ignore (B.corrupt s (blk block) : bool)
        | Step (Model.Verify { block }) -> ignore (B.verify s (blk block) : bool)
        | Image { block; back } ->
          let as_of = lsn (max 0 (!next - back)) in
          let entries, bytes = B.image s (blk block) ~as_of in
          let want_entries, want_bytes = reference s block ~as_of in
          if flat entries <> flat want_entries then fail "%s: entries differ" step;
          if bytes <> want_bytes then fail "%s: size %d, reference %d" step bytes want_bytes);
        check_bytes step)
      ops;
    true
end

let test_one_pass_image =
  QCheck.Test.make ~count:500 ~name:"one-pass image matches snapshot, filter and fold"
    One_pass_image.arb One_pass_image.run

(* 5,000 outcomes over 4,000 transactions, in an order that scatters the
   ids: the table doubles many times from its 64-key start, a re-noted
   transaction keeps only its later outcome, and [outcomes] lists each
   transaction exactly once. *)
let test_block_store_many_outcomes () =
  let module B = Storage.Block_store in
  let s = B.create () in
  let model = Hashtbl.create 4096 in
  for i = 0 to 4_999 do
    let t = i * 7_919 mod 4_000 in
    let aborted = i mod 5 = 0 in
    B.note_outcome s (txn t) (lsn (i + 1)) ~aborted;
    Hashtbl.replace model t (i + 1, aborted)
  done;
  let got =
    List.map (fun (t, l, a) -> (Txn_id.to_int t, Lsn.to_int l, a)) (B.outcomes s)
  in
  check_int "one row per transaction" 4_000 (List.length got);
  let want =
    List.sort compare (Hashtbl.fold (fun t (l, a) acc -> (t, l, a) :: acc) model [])
  in
  Alcotest.(check (list (triple int int bool))) "outcomes" want (List.sort compare got)

(* One segment's share of a volume: [Volume.pg_of_block] is [b mod
   group_count], so with 32 groups a store holds only the stripe {g, g+32,
   g+64, ...} of 2,048 blocks.  Random applies, outcomes, GCs and images
   over those 64 blocks against a naive model of per-block assoc chains
   and the full-scan GC of [Model]. *)
module Stripe = struct
  module B = Storage.Block_store

  let groups = 32
  let blocks = 2_048 / groups
  let n_txns = 12

  type op =
    | Apply of { slot : int; key : int; txn : int }
    | Outcome of { txn : int; aborted : bool }
    | Gc of { back : int }
    | Image of { slot : int; back : int }

  let show = function
    | Apply { slot; key; txn } -> Printf.sprintf "apply #%d k%d t%d" slot key txn
    | Outcome { txn; aborted } ->
      Printf.sprintf "%s t%d" (if aborted then "abort" else "commit") txn
    | Gc { back } -> Printf.sprintf "gc -%d" back
    | Image { slot; back } -> Printf.sprintf "image #%d at -%d" slot back

  let arb =
    let open QCheck.Gen in
    let slot = int_bound (blocks - 1) in
    let op =
      frequency
        [
          ( 10,
            map3
              (fun slot key txn -> Apply { slot; key; txn })
              slot (int_bound 5) (int_range 1 n_txns) );
          ( 3,
            map2
              (fun txn aborted -> Outcome { txn; aborted })
              (int_range 1 n_txns)
              (map (fun n -> n = 0) (int_bound 3)) );
          (2, map (fun back -> Gc { back }) (int_bound 20));
          (3, map2 (fun slot back -> Image { slot; back }) slot (int_range (-1) 30));
        ]
    in
    QCheck.make
      ~print:(fun (g, ops) ->
        Printf.sprintf "g=%d: %s" g (String.concat "; " (List.map show ops)))
      ~shrink:QCheck.Shrink.(pair nil list)
      (pair (int_bound (groups - 1)) (list_size (int_range 1 400) op))

  let run (g, ops) =
    let s = B.create () in
    let block slot = blk (g + (groups * slot)) in
    let model = Array.make blocks [] in
    let outcomes = Array.make (n_txns + 1) None in
    let next = ref 0 in
    let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt in
    let sorted entries = List.sort (fun (a, _) (b, _) -> String.compare a b) entries in
    let flat entries =
      sorted
        (List.map
           (fun (k, vs) -> (k, List.map (fun (v : B.version) -> Model.of_store v) vs))
           entries)
    in
    List.iter
      (fun op ->
        let step = show op in
        match op with
        | Apply { slot; key; txn = t } ->
          incr next;
          let key = Printf.sprintf "k%d" key and value = Printf.sprintf "v%d" !next in
          B.apply s
            (Log_record.make ~lsn:(lsn !next) ~prev_volume:(lsn (!next - 1))
               ~prev_segment:Lsn.none ~prev_block:Lsn.none ~block:(block slot)
               ~txn:(txn t) ~mtr_id:!next ~mtr_end:true
               ~op:(Log_record.Put { key; value }));
          let v = (Some value, t, !next) in
          let c = model.(slot) in
          model.(slot) <-
            (match List.assoc_opt key c with
            | Some vs -> (key, v :: vs) :: List.remove_assoc key c
            | None -> (key, [ v ]) :: c)
        | Outcome { txn = t; aborted } ->
          incr next;
          B.note_outcome s (txn t) (lsn !next) ~aborted;
          outcomes.(t) <- Some (!next, aborted)
        | Gc { back } ->
          let floor = max 0 (!next - back) in
          let is_committed t =
            match outcomes.(t) with Some (l, false) -> l <= floor | Some _ | None -> false
          in
          let want = ref 0 in
          Array.iteri
            (fun slot c ->
              model.(slot) <-
                List.map
                  (fun (k, vs) ->
                    let kept, drop = Model.gc_chain ~floor ~is_committed vs in
                    want := !want + List.length drop;
                    (k, kept))
                  c)
            model;
          let got = B.gc s ~keep_at_or_above:(lsn floor) in
          if got <> !want then fail "%s: dropped %d, model %d" step got !want
        | Image { slot; back } ->
          let as_of = max 0 (!next - back) in
          let entries, bytes = B.image s (block slot) ~as_of:(lsn as_of) in
          let want =
            List.filter_map
              (fun (k, vs) ->
                match List.filter (fun (_, _, l) -> l <= as_of) vs with
                | [] -> None
                | vs -> Some (k, vs))
              model.(slot)
          in
          let want_bytes =
            List.fold_left
              (fun acc (k, vs) ->
                List.fold_left (fun acc v -> acc + Model.version_bytes k v) acc vs)
              0 want
          in
          if flat entries <> sorted want then fail "%s: image differs" step;
          if bytes <> want_bytes then fail "%s: size %d, model %d" step bytes want_bytes)
      ops;
    let held = ref 0 in
    Array.iteri
      (fun slot c ->
        if flat (B.block_snapshot s (block slot)) <> sorted c then
          fail "block %d: chains differ" (Block_id.to_int (block slot));
        List.iter (fun (_, vs) -> held := !held + List.length vs) c)
      model;
    let touched = List.length (List.filter (fun c -> c <> []) (Array.to_list model)) in
    if List.length (B.blocks s) <> touched then
      fail "%d blocks listed, %d written" (List.length (B.blocks s)) touched;
    if B.version_count s <> !held then
      fail "version_count %d, model %d" (B.version_count s) !held;
    true
end

let test_block_store_stripe =
  QCheck.Test.make ~count:200 ~name:"a stripe of 2048 blocks matches naive model"
    Stripe.arb Stripe.run

(* ---- Disk ---- *)

let test_disk_fifo () =
  let sim = Sim.create () in
  let rng = Rng.create 1 in
  let d =
    Storage.Disk.create ~sim ~rng ~service:(Distribution.constant (Time_ns.us 100))
      ~per_byte_ns:10
  in
  let log = ref [] in
  Storage.Disk.submit d ~bytes:100 (fun () -> log := 1 :: !log);
  Storage.Disk.submit d ~bytes:100 (fun () -> log := 2 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2 ] (List.rev !log);
  (* Two ops of 100us + 1us transfer each, serialized. *)
  check_int "completion time" (Time_ns.us 202) (Sim.now sim);
  check_int "completed" 2 (Storage.Disk.completed d)

(* ---- Segment ---- *)

let make_segment ?(kind = Membership.Full) () =
  Storage.Segment.create ~pg:(Storage.Pg_id.of_int 0) ~seg:(Member_id.of_int 0) ~kind

let chain n =
  List.init n (fun i ->
      let l = i + 1 in
      put ~l ~prev:(if l = 1 then Lsn.none else lsn (l - 1)) ~block:(l mod 3)
        (Printf.sprintf "k%d" (l mod 3))
        (Printf.sprintf "v%d" l))

(* Segment.read_block serves each chain's visible suffix.  Differential
   check against the plain rule — filter every version by [as_of] — over
   random histories of writes, commit/abort outcomes, truncations (which
   roll coalesced versions back) and GC floor pushes. *)
module Image_model = struct
  type op =
    | Write of { block : int; key : int; t : int; delete : bool }
    | Outcome of { t : int; abort : bool }
    | Truncate of { back : int }
    | Gc of { back : int }
    | Read of { block : int; back : int }

  let n_blocks = 3

  let show = function
    | Write { block; key; t; delete } ->
      Printf.sprintf "%s b%d k%d t%d" (if delete then "del" else "put") block key t
    | Outcome { t; abort } -> Printf.sprintf "%s t%d" (if abort then "abort" else "commit") t
    | Truncate { back } -> Printf.sprintf "truncate -%d" back
    | Gc { back } -> Printf.sprintf "gc -%d" back
    | Read { block; back } -> Printf.sprintf "read b%d -%d" block back

  let gen_op =
    let open QCheck.Gen in
    let block = int_bound (n_blocks - 1) in
    frequency
      [
        ( 8,
          map4
            (fun block key t delete -> Write { block; key; t; delete })
            block (int_bound 3) (int_range 1 4) (map (fun n -> n = 0) (int_bound 5)) );
        (2, map2 (fun t abort -> Outcome { t; abort }) (int_range 1 4) bool);
        (1, map (fun back -> Truncate { back }) (int_bound 4));
        (2, map (fun back -> Gc { back }) (int_bound 8));
        (4, map2 (fun block back -> Read { block; back }) block (int_bound 10));
      ]

  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show ops))
      ~shrink:QCheck.Shrink.list
      QCheck.Gen.(list_size (int_range 1 80) gen_op)

  let flat entries =
    List.map
      (fun (k, vs) ->
        ( k,
          List.map
            (fun (v : Storage.Block_store.version) ->
              (v.value, Txn_id.to_int v.txn, Lsn.to_int v.lsn))
            vs ))
      entries

  let run ops =
    let s = Storage.Segment.create ~pg:(Storage.Pg_id.of_int 0) ~seg:(Member_id.of_int 0)
        ~kind:Membership.Full in
    (* [live]: LSNs of the records still on the segment chain, newest
       first. *)
    let next = ref 0 and live = ref [] in
    let tail () = match !live with l :: _ -> l | [] -> 0 in
    let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt in
    let append ~block ~t op =
      incr next;
      let r =
        Log_record.make ~lsn:(lsn !next) ~prev_volume:(lsn (!next - 1))
          ~prev_segment:(lsn (tail ())) ~prev_block:Lsn.none ~block:(blk block)
          ~txn:(txn t) ~mtr_id:!next ~mtr_end:true ~op
      in
      ignore (Storage.Segment.insert_records s [ r ] : Lsn.t);
      live := !next :: !live
    in
    List.iter
      (fun op ->
        match op with
        | Write { block; key; t; delete } ->
          let key = Printf.sprintf "k%d" key in
          append ~block ~t
            (if delete then Log_record.Delete { key }
             else Log_record.Put { key; value = Printf.sprintf "v%d" (!next + 1) })
        | Outcome { t; abort } ->
          append ~block:0 ~t (if abort then Log_record.Abort else Log_record.Commit)
        | Truncate { back } ->
          (* Cut the newest [back] records.  Never below the GC floor, as
             recovery never truncates below VDL; later records are
             allocated above the annulled range. *)
          let kept = List.filteri (fun i _ -> i >= back) !live in
          let above = match kept with l :: _ -> l | [] -> 0 in
          if above >= Lsn.to_int (Storage.Segment.pgmrpl s) then begin
            ignore
              (Storage.Segment.truncate s ~above:(lsn above) ~upto:(lsn (!next + 2))
                : int);
            next := !next + 2;
            live := kept
          end
        | Gc { back } ->
          ignore
            (Storage.Segment.advance_pgmrpl s (lsn (max 0 (tail () - back))) : int)
        | Read { block; back } -> (
          let scl = Storage.Segment.scl s in
          Storage.Segment.note_pgcl s scl;
          let as_of = Lsn.max (Storage.Segment.pgmrpl s) (Lsn.add scl (-back)) in
          match Storage.Segment.read_block s ~block:(blk block) ~as_of with
          | Error _ -> fail "%s: refused at as_of %d" (show op) (Lsn.to_int as_of)
          | Ok img ->
            let want =
              List.filter_map
                (fun (k, vs) ->
                  match
                    List.filter
                      (fun (v : Storage.Block_store.version) -> Lsn.(v.lsn <= as_of))
                      vs
                  with
                  | [] -> None
                  | vs -> Some (k, vs))
                (Storage.Block_store.block_snapshot (Storage.Segment.store s) (blk block))
            in
            if flat img.Protocol.image_entries <> flat want then
              fail "%s: image differs from the filtered chains" (show op)))
      ops;
    true
end

let test_read_block_model =
  QCheck.Test.make ~count:500 ~name:"read_block image matches filtered chains"
    Image_model.arb Image_model.run

let test_segment_insert_coalesce_read () =
  let s = make_segment () in
  ignore (Storage.Segment.insert_records s (chain 6) : Lsn.t);
  check_int "scl" 6 (Lsn.to_int (Storage.Segment.scl s));
  check_int "coalesced" 6 (Storage.Segment.coalesce s);
  check_int "coalesced point" 6 (Lsn.to_int (Storage.Segment.coalesced_upto s));
  Storage.Segment.note_pgcl s (lsn 6);
  match Storage.Segment.read_block s ~block:(blk 0) ~as_of:(lsn 6) with
  | Ok img ->
    check_bool "has key" true
      (List.exists (fun (k, _) -> k = "k0") img.Protocol.image_entries)
  | Error e -> Alcotest.failf "read failed: %a" Protocol.pp_read_error e

let test_segment_read_acceptance () =
  let s = make_segment () in
  ignore (Storage.Segment.insert_records s (chain 4) : Lsn.t);
  Storage.Segment.note_pgcl s (lsn 4);
  (* as_of beyond SCL while the group's durable point says records exist
     there this segment lacks: refused. *)
  Storage.Segment.note_pgcl s (lsn 9);
  (match Storage.Segment.read_block s ~block:(blk 0) ~as_of:(lsn 9) with
  | Error (Protocol.Beyond_scl _) -> ()
  | _ -> Alcotest.fail "expected Beyond_scl");
  (* Fresh segment: as_of beyond SCL but PGCL proves the group has no
     records between SCL and as_of -> served. *)
  let s = make_segment () in
  ignore (Storage.Segment.insert_records s (chain 4) : Lsn.t);
  Storage.Segment.note_pgcl s (lsn 4);
  (match Storage.Segment.read_block s ~block:(blk 1) ~as_of:(lsn 9) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Protocol.pp_read_error e);
  (* Tail segments never serve blocks. *)
  let t = make_segment ~kind:Membership.Tail () in
  ignore (Storage.Segment.insert_records t (chain 4) : Lsn.t);
  match Storage.Segment.read_block t ~block:(blk 0) ~as_of:(lsn 2) with
  | Error Protocol.Tail_segment -> ()
  | _ -> Alcotest.fail "expected Tail_segment"

let test_segment_epochs () =
  let s = make_segment () in
  let e v m = { Protocol.volume = Epoch.of_int v; membership = Epoch.of_int m } in
  (match Storage.Segment.check_epochs s (e 1 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "initial epochs rejected");
  (* Higher volume epoch adopted; the old one then fenced. *)
  (match Storage.Segment.check_epochs s (e 3 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "new epoch rejected");
  (match Storage.Segment.check_epochs s (e 1 1) with
  | Error (Protocol.Stale_volume_epoch cur) ->
    check_int "current reported" 3 (Epoch.to_int cur)
  | _ -> Alcotest.fail "stale volume epoch accepted");
  Storage.Segment.install_membership s ~epoch:(Epoch.of_int 2) ~peers:[];
  match Storage.Segment.check_epochs s (e 3 1) with
  | Error (Protocol.Stale_membership_epoch _) -> ()
  | _ -> Alcotest.fail "stale membership epoch accepted"

let test_segment_truncate () =
  let s = make_segment () in
  ignore (Storage.Segment.insert_records s (chain 8) : Lsn.t);
  ignore (Storage.Segment.coalesce s : int);
  let dropped = Storage.Segment.truncate s ~above:(lsn 5) ~upto:(lsn 100) in
  check_bool "dropped records and versions" true (dropped > 0);
  check_int "scl" 5 (Lsn.to_int (Storage.Segment.scl s));
  check_int "coalesced rolled back" 5 (Lsn.to_int (Storage.Segment.coalesced_upto s))

let test_segment_hydrate_roundtrip () =
  let donor = make_segment () in
  ignore (Storage.Segment.insert_records donor (chain 10) : Lsn.t);
  ignore (Storage.Segment.coalesce donor : int);
  let records, blocks = Storage.Segment.hydrate_export donor ~since:Lsn.none ~want_blocks:true in
  check_int "all records" 10 (List.length records);
  check_bool "blocks included" true (blocks <> []);
  let fresh = make_segment () in
  Storage.Segment.hydrate_import fresh ~records ~blocks
    ~donor_scl:(Storage.Segment.scl donor)
    ~coalesced:(Storage.Segment.coalesced_upto donor);
  check_int "scl matches donor" 10 (Lsn.to_int (Storage.Segment.scl fresh));
  Storage.Segment.note_pgcl fresh (lsn 10);
  match Storage.Segment.read_block fresh ~block:(blk 1) ~as_of:(lsn 10) with
  | Ok img -> check_bool "readable" true (img.Protocol.image_entries <> [])
  | Error e -> Alcotest.failf "read failed: %a" Protocol.pp_read_error e

let test_segment_hydrate_from_gced_donor () =
  (* Donor whose hot log was fully collected: hydration must still hand
     over the chain position (anchor = donor SCL) and blocks. *)
  let donor = make_segment () in
  ignore (Storage.Segment.insert_records donor (chain 10) : Lsn.t);
  ignore (Storage.Segment.coalesce donor : int);
  Storage.Segment.set_backup_upto donor (lsn 10);
  ignore (Storage.Segment.advance_pgmrpl donor (lsn 10) : int);
  ignore (Storage.Segment.gc_hot_log donor : int);
  let records, blocks =
    Storage.Segment.hydrate_export donor ~since:Lsn.none ~want_blocks:true
  in
  check_int "nothing retained" 0 (List.length records);
  let fresh = make_segment () in
  Storage.Segment.hydrate_import fresh ~records ~blocks
    ~donor_scl:(Storage.Segment.scl donor)
    ~coalesced:(Storage.Segment.coalesced_upto donor);
  check_int "adopted donor chain position" 10
    (Lsn.to_int (Storage.Segment.scl fresh));
  check_bool "blocks installed" true
    (Storage.Block_store.blocks (Storage.Segment.store fresh) <> [])

let test_segment_hydrate_stale_snapshot_ignored () =
  (* Regression: a later hydration round whose donor has coalesced {e less}
     far than the importer must not install the donor's block snapshots.
     The importer materialized "v10" into block 1 off the live stream; the
     donor's snapshot still says "v7".  Loading it would roll the block
     back while the importer's coalesce watermark stayed at 10, so records
     8..10 would never be re-applied from the hot log — a silent loss of
     acknowledged writes. *)
  let donor = make_segment () in
  ignore (Storage.Segment.insert_records donor (chain 7) : Lsn.t);
  ignore (Storage.Segment.coalesce donor : int);
  let importer = make_segment () in
  ignore (Storage.Segment.insert_records importer (chain 10) : Lsn.t);
  ignore (Storage.Segment.coalesce importer : int);
  let records, blocks =
    Storage.Segment.hydrate_export donor ~since:(Storage.Segment.scl importer)
      ~want_blocks:true
  in
  check_int "donor has no newer records" 0 (List.length records);
  check_bool "donor still offers snapshots" true (blocks <> []);
  Storage.Segment.hydrate_import importer ~records ~blocks
    ~donor_scl:(Storage.Segment.scl donor)
    ~coalesced:(Storage.Segment.coalesced_upto donor);
  check_int "importer scl untouched" 10 (Lsn.to_int (Storage.Segment.scl importer));
  check_int "coalesce watermark untouched" 10
    (Lsn.to_int (Storage.Segment.coalesced_upto importer));
  Storage.Segment.note_pgcl importer (lsn 10);
  match Storage.Segment.read_block importer ~block:(blk 1) ~as_of:(lsn 10) with
  | Error e -> Alcotest.failf "read failed: %a" Protocol.pp_read_error e
  | Ok img -> (
    (* chain writes key "k1" on block 1 at LSNs 1,4,7,10; newest is v10. *)
    match List.assoc_opt "k1" img.Protocol.image_entries with
    | Some ({ Storage.Block_store.value = Some v; _ } :: _) ->
      Alcotest.(check string) "newest write survived the stale import" "v10" v
    | _ -> Alcotest.fail "k1 lost its newest version")

let test_segment_txn_statuses () =
  let s = make_segment () in
  let commit =
    Log_record.make ~lsn:(lsn 1) ~prev_volume:Lsn.none ~prev_segment:Lsn.none
      ~prev_block:Lsn.none ~block:(blk 0) ~txn:(txn 7) ~mtr_id:1 ~mtr_end:true
      ~op:Log_record.Commit
  in
  ignore (Storage.Segment.insert_records s [ commit ] : Lsn.t);
  (match Storage.Segment.txn_statuses s with
  | [ (t7, l, false) ] ->
    check_int "txn" 7 (Txn_id.to_int t7);
    check_int "scn" 1 (Lsn.to_int l)
  | _ -> Alcotest.fail "expected one commit status");
  Storage.Segment.merge_statuses s [ (txn 9, lsn 3, true) ];
  check_int "merged" 2 (List.length (Storage.Segment.txn_statuses s))

(* Hydration's [merge_statuses] delivers outcomes to the block store, so a
   key parked on a transaction whose commit only a peer saw wakes up. *)
let test_segment_merge_statuses_wakes_parked () =
  let s = make_segment () in
  let record ~l ~t ?(prev_block = Lsn.none) op =
    Log_record.make ~lsn:(lsn l) ~prev_volume:(lsn (l - 1))
      ~prev_segment:(lsn (l - 1)) ~prev_block ~block:(blk 0) ~txn:(txn t)
      ~mtr_id:l ~mtr_end:true ~op
  in
  ignore
    (Storage.Segment.insert_records s
       [
         record ~l:1 ~t:1 (Log_record.Put { key = "a"; value = "v1" });
         record ~l:2 ~t:1 Log_record.Commit;
         record ~l:3 ~t:2 ~prev_block:(lsn 1) (Log_record.Put { key = "a"; value = "v3" });
       ]
      : Lsn.t);
  check_int "coalesced" 3 (Storage.Segment.coalesce s);
  check_int "t2 unknown here" 0 (Storage.Segment.advance_pgmrpl s (lsn 3));
  Storage.Segment.merge_statuses s [ (txn 2, lsn 4, false) ];
  check_int "peer's commit wakes the key" 1 (Storage.Segment.advance_pgmrpl s (lsn 4))

(* ---- Storage node over network ---- *)

let node_fixture () =
  let sim = Sim.create () in
  let rng = Rng.create 42 in
  let net =
    Simnet.Net.create ~sim ~rng:(Rng.split rng)
      ~default_latency:(Distribution.constant (Time_ns.us 100)) ()
  in
  let s3 =
    Storage.S3.create ~sim ~latency:(Distribution.constant (Time_ns.ms 1))
      ~rng:(Rng.split rng)
  in
  (sim, rng, net, s3)

let epochs1 = { Protocol.volume = Epoch.initial; membership = Epoch.initial }

let test_node_write_ack () =
  let sim, rng, net, s3 = node_fixture () in
  let addr = Simnet.Addr.of_int 1 and client = Simnet.Addr.of_int 0 in
  let node =
    Storage.Storage_node.create ~sim ~rng ~net ~addr ~s3
      ~config:Storage.Storage_node.default_config ()
  in
  Storage.Storage_node.add_segment node (make_segment ());
  Storage.Storage_node.start node;
  let acks = ref [] in
  Simnet.Net.register net client (fun env ->
      match env.Simnet.Net.msg with
      | Protocol.Write_ack { scl; _ } -> acks := Lsn.to_int scl :: !acks
      | _ -> ());
  Simnet.Net.send net ~src:client ~dst:addr
    (Protocol.Write_batch
       {
         pg = Storage.Pg_id.of_int 0;
         seg = Member_id.of_int 0;
         records = chain 3;
         pgcl = Lsn.none;
         epochs = epochs1;
       });
  Sim.run_until sim (Time_ns.ms 10);
  Alcotest.(check (list int)) "ack carries SCL" [ 3 ] !acks

let test_node_gossip_fills_hole () =
  let sim, rng, net, s3 = node_fixture () in
  let a1 = Simnet.Addr.of_int 1 and a2 = Simnet.Addr.of_int 2 in
  let mk addr seg_id =
    let node =
      Storage.Storage_node.create ~sim ~rng:(Rng.split rng) ~net ~addr ~s3
        ~config:Storage.Storage_node.default_config ()
    in
    let seg =
      Storage.Segment.create ~pg:(Storage.Pg_id.of_int 0)
        ~seg:(Member_id.of_int seg_id) ~kind:Membership.Full
    in
    Storage.Segment.set_peers seg [ (Member_id.of_int 0, a1); (Member_id.of_int 1, a2) ];
    Storage.Storage_node.add_segment node seg;
    Storage.Storage_node.start node;
    (node, seg)
  in
  let _, seg1 = mk a1 0 in
  let _, seg2 = mk a2 1 in
  (* Node 1 has the full chain; node 2 has a hole (missing record 2). *)
  let records = chain 5 in
  ignore (Storage.Segment.insert_records seg1 records : Lsn.t);
  ignore
    (Storage.Segment.insert_records seg2
       (List.filter (fun (r : Log_record.t) -> Lsn.to_int r.lsn <> 2) records)
      : Lsn.t);
  check_int "hole blocks SCL" 1 (Lsn.to_int (Storage.Segment.scl seg2));
  Sim.run_until sim (Time_ns.sec 2);
  check_int "gossip filled the hole" 5 (Lsn.to_int (Storage.Segment.scl seg2))

let test_node_crash_restart () =
  let sim, rng, net, s3 = node_fixture () in
  let addr = Simnet.Addr.of_int 1 and client = Simnet.Addr.of_int 0 in
  let node =
    Storage.Storage_node.create ~sim ~rng ~net ~addr ~s3
      ~config:Storage.Storage_node.default_config ()
  in
  let seg = make_segment () in
  Storage.Storage_node.add_segment node seg;
  Storage.Storage_node.start node;
  ignore (Storage.Segment.insert_records seg (chain 3) : Lsn.t);
  Storage.Storage_node.crash node;
  let got_reply = ref false in
  Simnet.Net.register net client (fun _ -> got_reply := true);
  Simnet.Net.send net ~src:client ~dst:addr
    (Protocol.Scl_probe
       { req = 0; pg = Storage.Pg_id.of_int 0; seg = Member_id.of_int 0; epochs = epochs1 });
  Sim.run_until sim (Time_ns.ms 10);
  check_bool "down node silent" false !got_reply;
  Storage.Storage_node.restart node;
  check_int "durable state survives crash" 3 (Lsn.to_int (Storage.Segment.scl seg));
  Simnet.Net.send net ~src:client ~dst:addr
    (Protocol.Scl_probe
       { req = 0; pg = Storage.Pg_id.of_int 0; seg = Member_id.of_int 0; epochs = epochs1 });
  Sim.run_until sim (Time_ns.ms 20);
  check_bool "restarted node answers" true !got_reply

let test_s3_backup () =
  let sim, _, _, s3 = node_fixture () in
  let durable = ref false in
  Storage.S3.upload s3
    {
      Storage.S3.pg = Storage.Pg_id.of_int 0;
      seg = Member_id.of_int 0;
      upto = lsn 10;
      bytes = 1000;
      taken_at = Sim.now sim;
    }
    ~on_durable:(fun () -> durable := true);
  check_int "in flight" 1 (Storage.S3.uploads_in_flight s3);
  Sim.run sim;
  check_bool "durable" true !durable;
  check_int "coverage" 10
    (Lsn.to_int (Storage.S3.durable_upto s3 (Storage.Pg_id.of_int 0) (Member_id.of_int 0)))

(* The memoised image against a fresh fold, over random histories of the
   model's steps plus repairs.  A twin store takes every step but the
   faults, so its snapshots are the images a peer would send, and a repair
   sometimes lands.  Reads fall on both sides of the block's newest LSN:
   at or above it the memo answers, below it the image is built.  Each
   image must equal the visible suffixes of [block_snapshot] and their
   summed sizes, and a read straight after it at the same point must return
   the same image.  The second property holds [mismatched] to a filter of
   every block through [verify] after every step. *)
module Memo_image = struct
  module B = Storage.Block_store

  type op =
    | Step of Model.op
    | Repair of { block : int }
    | Image of { block : int; at : int }
        (** [at] 0-4: the block's newest LSN - 2 .. + 2; 5: the last LSN
            issued; 6: above every LSN *)

  let show = function
    | Step op -> Model.show op
    | Repair { block } -> Printf.sprintf "repair b%d" block
    | Image { block; at } -> Printf.sprintf "image b%d at %d" block at

  let arb =
    let open QCheck.Gen in
    let block = int_bound (Model.n_blocks - 1) in
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show ops))
      ~shrink:QCheck.Shrink.list
      (map List.concat
         (list_size (int_range 1 80)
            (frequency
               [
                 (4, map (List.map (fun op -> Step op)) Model.gen_steps);
                 (1, map (fun block -> [ Repair { block } ]) block);
                 (3, map2 (fun block at -> [ Image { block; at } ]) block (int_bound 6));
               ])))

  let fail_report fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt

  let as_of s block ~next = function
    | 5 -> lsn next
    | 6 -> Lsn.of_int max_int
    | at ->
      let newest =
        List.fold_left
          (fun acc (_, vs) ->
            List.fold_left (fun acc (v : B.version) -> Int.max acc (Lsn.to_int v.lsn)) acc vs)
          0 (B.block_snapshot s (blk block))
      in
      lsn (max 0 (newest + at - 2))

  let run ~check ops =
    let s = B.create () and twin = B.create () in
    let next = ref 0 in
    let both f =
      f s;
      f twin
    in
    List.iter
      (fun op ->
        let step = show op in
        (match op with
        | Step (Model.Apply { block; key; value; txn = t }) ->
          incr next;
          let key = Model.key_of key in
          let op =
            match Model.value_of value with
            | Some value -> Log_record.Put { key; value }
            | None -> Log_record.Delete { key }
          in
          let r =
            Log_record.make ~lsn:(lsn !next) ~prev_volume:(lsn (!next - 1))
              ~prev_segment:Lsn.none ~prev_block:Lsn.none ~block:(blk block)
              ~txn:(txn t) ~mtr_id:!next ~mtr_end:true ~op
          in
          both (fun st -> B.apply st r)
        | Step (Model.Outcome { txn = t; aborted }) ->
          incr next;
          both (fun st -> B.note_outcome st (txn t) (lsn !next) ~aborted)
        | Step (Model.Gc { back }) ->
          both (fun st ->
              ignore (B.gc st ~keep_at_or_above:(lsn (max 0 (!next - back))) : int))
        | Step (Model.Rollback { back }) ->
          both (fun st -> ignore (B.rollback_above st (lsn (max 0 (!next - back))) : int))
        | Step (Model.Load { block; src }) ->
          both (fun st -> B.load_snapshot st (blk block) (B.block_snapshot st (blk src)))
        | Step (Model.Corrupt { block }) -> ignore (B.corrupt s (blk block) : bool)
        | Step (Model.Verify { block }) -> ignore (B.verify s (blk block) : bool)
        | Repair { block } ->
          ignore (B.repair s (blk block) (B.block_snapshot twin (blk block)) : bool)
        | Image _ -> ());
        check s ~next:!next step op)
      ops;
    true

  let images s ~next step = function
    | Image { block; at } ->
      let as_of = as_of s block ~next at in
      let entries, bytes = B.image s (blk block) ~as_of in
      let want_entries, want_bytes = One_pass_image.reference s block ~as_of in
      let flat = One_pass_image.flat in
      if flat entries <> flat want_entries then fail_report "%s: entries differ" step;
      if bytes <> want_bytes then fail_report "%s: size %d, fresh fold %d" step bytes want_bytes;
      let again = B.image s (blk block) ~as_of in
      if flat (fst again) <> flat entries || snd again <> bytes then
        fail_report "%s: a repeat read differs" step
    | Step _ | Repair _ -> ()

  let mismatched s ~next:_ step _ =
    let ids l = List.sort Int.compare (List.map Block_id.to_int l) in
    let want = ids (List.filter (fun b -> not (B.verify s b)) (B.blocks s)) in
    if ids (B.mismatched s) <> want then fail_report "%s: mismatched differs" step
end

let test_memo_image =
  QCheck.Test.make ~count:500 ~name:"memoised image equals a fresh one" Memo_image.arb
    (Memo_image.run ~check:Memo_image.images)

let test_mismatched =
  QCheck.Test.make ~count:500 ~name:"mismatched is every block failing verify"
    Memo_image.arb
    (Memo_image.run ~check:Memo_image.mismatched)

(* An unchanged block's image is built once: every later read at or above
   its newest LSN returns the same memo and allocates nothing. *)
let test_image_memo_allocates_nothing () =
  let module B = Storage.Block_store in
  let s = B.create () in
  for l = 1 to 20 do
    B.apply s (put ~l ~block:0 (Printf.sprintf "k%d" (l mod 7)) (Printf.sprintf "v%d" l))
  done;
  let as_of = lsn 20 in
  let first = B.image s (blk 0) ~as_of in
  let reads = 100_000 in
  let same = ref true in
  let w0 = Gc.minor_words () in
  for _ = 1 to reads do
    if B.image s (blk 0) ~as_of != first then same := false
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int reads in
  check_bool "every read returns the memo" true !same;
  Alcotest.(check (float 0.001)) "minor words per repeat image" 0. words;
  B.apply s (put ~l:21 ~block:0 "k0" "v21");
  check_bool "a write clears the memo" true (B.image s (blk 0) ~as_of:(lsn 21) != first)

let () =
  Alcotest.run "storage"
    [
      ( "block_store",
        [
          Alcotest.test_case "version chains" `Quick test_block_store_versions;
          Alcotest.test_case "mvcc read_at" `Quick test_block_store_read_at;
          Alcotest.test_case "gc keeps floor version" `Quick test_block_store_gc;
          Alcotest.test_case "rollback_above" `Quick test_block_store_rollback;
          Alcotest.test_case "checksum scrub" `Quick test_block_store_scrub;
          Alcotest.test_case "checksum not laundered" `Quick
            test_block_store_no_laundering;
          QCheck_alcotest.to_alcotest prop_corrupt_caught_at_every_length;
          Alcotest.test_case "repair checks image" `Quick test_block_store_repair;
          Alcotest.test_case "corrupt stays private to a store" `Quick
            test_block_store_shared_versions;
          Alcotest.test_case "parked key woken by a late commit" `Quick
            test_gc_parked_woken_by_commit;
          Alcotest.test_case "parked key woken by a write" `Quick
            test_gc_parked_woken_by_write;
          Alcotest.test_case "commit above the floor is not parked" `Quick
            test_gc_commit_above_floor_not_parked;
          Alcotest.test_case "parked keys across rollback_above" `Quick
            test_gc_parked_across_rollback;
          Alcotest.test_case "parked keys across load_snapshot" `Quick
            test_gc_parked_across_load_snapshot;
          Alcotest.test_case "one block, 1000 keys" `Quick test_block_store_many_keys;
          QCheck_alcotest.to_alcotest test_block_store_model;
          QCheck_alcotest.to_alcotest test_one_pass_image;
          Alcotest.test_case "5000 outcomes listed once" `Quick
            test_block_store_many_outcomes;
          QCheck_alcotest.to_alcotest test_block_store_stripe;
          Alcotest.test_case "corrupt twice, repair by image" `Quick
            test_block_store_corrupt_twice;
          Alcotest.test_case "rollback_above over a faulted block" `Quick
            test_block_store_rollback_tracked;
          Alcotest.test_case "a fault stays in its block" `Quick
            test_block_store_fault_stays_in_its_block;
          QCheck_alcotest.to_alcotest test_memo_image;
          QCheck_alcotest.to_alcotest test_mismatched;
          Alcotest.test_case "image of an unchanged block allocates nothing" `Quick
            test_image_memo_allocates_nothing;
        ] );
      ("disk", [ Alcotest.test_case "fifo queueing" `Quick test_disk_fifo ]);
      ( "segment",
        [
          Alcotest.test_case "insert/coalesce/read" `Quick
            test_segment_insert_coalesce_read;
          Alcotest.test_case "read acceptance" `Quick test_segment_read_acceptance;
          Alcotest.test_case "epoch fencing" `Quick test_segment_epochs;
          Alcotest.test_case "truncate" `Quick test_segment_truncate;
          Alcotest.test_case "hydrate roundtrip" `Quick test_segment_hydrate_roundtrip;
          Alcotest.test_case "hydrate from GCed donor" `Quick
            test_segment_hydrate_from_gced_donor;
          Alcotest.test_case "hydrate ignores stale snapshot" `Quick
            test_segment_hydrate_stale_snapshot_ignored;
          Alcotest.test_case "txn statuses" `Quick test_segment_txn_statuses;
          Alcotest.test_case "merge_statuses wakes parked keys" `Quick
            test_segment_merge_statuses_wakes_parked;
          QCheck_alcotest.to_alcotest test_read_block_model;
        ] );
      ( "node",
        [
          Alcotest.test_case "write -> ack with SCL" `Quick test_node_write_ack;
          Alcotest.test_case "gossip fills hole" `Quick test_node_gossip_fills_hole;
          Alcotest.test_case "crash/restart" `Quick test_node_crash_restart;
          Alcotest.test_case "s3 backup" `Quick test_s3_backup;
        ] );
    ]
