(* Tests for the Aurora core engine: consistency points, boxcar policies,
   MVCC read views, buffer cache, commit queue, and the recovery math. *)
open Simcore
open Wal
open Quorum
module C = Aurora_core.Consistency
module Boxcar = Aurora_core.Boxcar
module Read_view = Aurora_core.Read_view
module Txn_table = Aurora_core.Txn_table
module Buffer_cache = Aurora_core.Buffer_cache
module Commit_queue = Aurora_core.Commit_queue
module Recovery = Aurora_core.Recovery

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let lsn = Lsn.of_int
let pg = Storage.Pg_id.of_int
let m = Member_id.of_int
let six = List.init 6 m

(* ---- Consistency ---- *)

let fresh_consistency ?on_volume n_pgs =
  let c = C.create ?on_volume () in
  for i = 0 to n_pgs - 1 do
    C.register_pg c (pg i) ~write_quorum:(Quorum_set.k_of 4 six)
  done;
  c

let test_consistency_figure3 () =
  (* Also `aurora_cli exp e3`, pinned by test/golden/exp_e3.txt; keep the
     core case here. *)
  let c = fresh_consistency 2 in
  for l = 101 to 108 do
    C.note_submitted c ~pg:(pg (l mod 2)) ~lsn:(lsn l) ~mtr_end:true
  done;
  let ack p s l = C.note_ack c ~pg:(pg p) ~seg:(m s) ~scl:(lsn l) in
  (* odd lsns -> pg 1, even -> pg 0 *)
  ack 1 0 103; ack 1 1 103; ack 1 2 103; ack 1 3 103; ack 1 4 107;
  ack 0 0 104; ack 0 1 104; ack 0 2 104; ack 0 3 104; ack 0 4 108;
  check_int "pgcl odd" 103 (Lsn.to_int (C.pgcl c (pg 1)));
  check_int "pgcl even" 104 (Lsn.to_int (C.pgcl c (pg 0)));
  check_int "vcl" 104 (Lsn.to_int (C.vcl c))

let test_consistency_quorum_threshold () =
  let c = fresh_consistency 1 in
  C.note_submitted c ~pg:(pg 0) ~lsn:(lsn 1) ~mtr_end:true;
  for s = 0 to 2 do
    C.note_ack c ~pg:(pg 0) ~seg:(m s) ~scl:(lsn 1)
  done;
  check_int "3 acks insufficient" 0 (Lsn.to_int (C.vcl c));
  C.note_ack c ~pg:(pg 0) ~seg:(m 3) ~scl:(lsn 1);
  check_int "4th ack completes" 1 (Lsn.to_int (C.vcl c))

let test_consistency_vdl_mtr () =
  let c = fresh_consistency 1 in
  (* A 3-record MTR: VDL must rest only on the final record. *)
  C.note_submitted c ~pg:(pg 0) ~lsn:(lsn 1) ~mtr_end:false;
  C.note_submitted c ~pg:(pg 0) ~lsn:(lsn 2) ~mtr_end:false;
  C.note_submitted c ~pg:(pg 0) ~lsn:(lsn 3) ~mtr_end:true;
  for s = 0 to 3 do
    C.note_ack c ~pg:(pg 0) ~seg:(m s) ~scl:(lsn 2)
  done;
  check_int "vcl mid-MTR" 2 (Lsn.to_int (C.vcl c));
  check_int "vdl waits for MTR end" 0 (Lsn.to_int (C.vdl c));
  for s = 0 to 3 do
    C.note_ack c ~pg:(pg 0) ~seg:(m s) ~scl:(lsn 3)
  done;
  check_int "vdl lands on MTR end" 3 (Lsn.to_int (C.vdl c))

let test_consistency_hooks_and_candidates () =
  let vcl_seen = ref [] and vdl_seen = ref [] in
  let cref = ref None in
  let c =
    fresh_consistency 1 ~on_volume:(fun ~vcl ~vdl ->
        vcl_seen := Lsn.to_int vcl :: !vcl_seen;
        (* Both points are set before the hook runs. *)
        let live = Option.map C.vdl !cref in
        vdl_seen := (Option.map Lsn.to_int vdl, Option.map Lsn.to_int live) :: !vdl_seen)
  in
  cref := Some c;
  C.note_submitted c ~pg:(pg 0) ~lsn:(lsn 1) ~mtr_end:true;
  C.note_submitted c ~pg:(pg 0) ~lsn:(lsn 2) ~mtr_end:true;
  C.note_submitted c ~pg:(pg 0) ~lsn:(lsn 3) ~mtr_end:false;
  for s = 0 to 3 do
    C.note_ack c ~pg:(pg 0) ~seg:(m s) ~scl:(lsn 2)
  done;
  Alcotest.(check (list int)) "hook fired once with final value" [ 2 ] !vcl_seen;
  (* VCL moves alone past a record that ends no MTR: the hook says VDL
     did not move. *)
  for s = 0 to 3 do
    C.note_ack c ~pg:(pg 0) ~seg:(m s) ~scl:(lsn 3)
  done;
  Alcotest.(check (list int)) "second advance" [ 3; 2 ] !vcl_seen;
  Alcotest.(check (list (pair (option int) (option int))))
    "VDL set before the hook, reported only when it moved"
    [ (None, Some 2); (Some 2, Some 2) ]
    !vdl_seen;
  let candidates () =
    List.filter (C.covers c ~pg:(pg 0) ~lsn:(lsn 2)) six |> List.length
  in
  check_int "candidates at 2" 4 (candidates ());
  C.note_ack c ~pg:(pg 0) ~seg:(m 4) ~scl:(lsn 1);
  check_int "partial segment excluded" 4 (candidates ());
  check_bool "partial segment covers 1" true (C.covers c ~pg:(pg 0) ~lsn:(lsn 1) (m 4));
  check_bool "silent segment covers nothing" false
    (C.covers c ~pg:(pg 0) ~lsn:Lsn.none (m 5))

let test_consistency_quorum_set_write () =
  (* Transitional quorum (Figure 5): ABCD satisfies both sides. *)
  let c = C.create () in
  let abcdeg = List.init 5 m @ [ m 6 ] in
  C.register_pg c (pg 0)
    ~write_quorum:
      (Quorum_set.all [ Quorum_set.k_of 4 six; Quorum_set.k_of 4 abcdeg ]);
  C.note_submitted c ~pg:(pg 0) ~lsn:(lsn 1) ~mtr_end:true;
  for s = 0 to 2 do
    C.note_ack c ~pg:(pg 0) ~seg:(m s) ~scl:(lsn 1)
  done;
  check_int "3 acks not enough" 0 (Lsn.to_int (C.vcl c));
  C.note_ack c ~pg:(pg 0) ~seg:(m 3) ~scl:(lsn 1);
  check_int "ABCD satisfies composite" 1 (Lsn.to_int (C.vcl c))

(* A membership change that commits or reverts loosens the write quorum.
   Records already acked by the new quorum must become durable at the swap,
   not at the next ack that raises some SCL (which may never come). *)
let test_consistency_looser_quorum () =
  let durable = ref [] in
  let c = C.create ~on_pgcl:(fun _ l -> durable := Lsn.to_int l :: !durable) () in
  let abcdeg = List.init 5 m @ [ m 6 ] in
  C.register_pg c (pg 0)
    ~write_quorum:
      (Quorum_set.all [ Quorum_set.k_of 4 six; Quorum_set.k_of 4 abcdeg ]);
  C.note_submitted c ~pg:(pg 0) ~lsn:(lsn 1) ~mtr_end:true;
  List.iter (fun s -> C.note_ack c ~pg:(pg 0) ~seg:(m s) ~scl:(lsn 1)) [ 0; 1; 2; 6 ];
  check_int "ABCG misses ABCDEF" 0 (Lsn.to_int (C.pgcl c (pg 0)));
  C.set_write_quorum c (pg 0) (Quorum_set.k_of 4 abcdeg);
  check_int "pgcl at the swap" 1 (Lsn.to_int (C.pgcl c (pg 0)));
  check_int "vcl at the swap" 1 (Lsn.to_int (C.vcl c));
  check_int "vdl at the swap" 1 (Lsn.to_int (C.vdl c));
  C.note_ack c ~pg:(pg 0) ~seg:(m 0) ~scl:(lsn 1);
  Alcotest.(check (list int)) "durable once" [ 1 ] !durable

(* Property: VCL equals the reference computation (largest prefix of the
   global submission order where each record's group reaches quorum). *)
let prop_consistency_reference =
  QCheck.Test.make ~name:"VCL matches reference under random ack schedules"
    ~count:150
    QCheck.(pair (int_range 1 60) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let c = fresh_consistency 2 in
      let assignment = Array.init n (fun _ -> Rng.int rng 2) in
      for i = 0 to n - 1 do
        C.note_submitted c ~pg:(pg assignment.(i)) ~lsn:(lsn (i + 1)) ~mtr_end:true
      done;
      (* Random per-segment SCLs (each segment acked a random prefix of its
         group's records). *)
      let scls = Array.make_matrix 2 6 0 in
      for p = 0 to 1 do
        for s = 0 to 5 do
          let v = Rng.int rng (n + 1) in
          scls.(p).(s) <- v;
          C.note_ack c ~pg:(pg p) ~seg:(m s) ~scl:(lsn v)
        done
      done;
      (* Reference: record i durable iff >=4 segments of its group have
         scl >= i+1; VCL = largest prefix fully durable. *)
      let durable i =
        let p = assignment.(i) in
        let count = ref 0 in
        for s = 0 to 5 do
          if scls.(p).(s) >= i + 1 then incr count
        done;
        !count >= 4
      in
      let rec prefix i = if i < n && durable i then prefix (i + 1) else i in
      Lsn.to_int (C.vcl c) = prefix 0)

(* Property: the tracker agrees with the set-based model it replaced
   ([Consistency_model]) after every step of random histories over three
   groups: in-order submits with random MTR ends, acks from members and
   non-members in any order (stale ones included; ids past the tracker's
   initial SCL array grow it), and write-quorum swaps among the schemes the
   system installs. *)
let prop_consistency_model =
  let members = List.init 12 m in
  let abcdeg = List.init 5 m @ [ m 6 ] in
  let quorums =
    [|
      Quorum_set.k_of 4 six;
      Quorum_set.all [ Quorum_set.k_of 4 six; Quorum_set.k_of 4 abcdeg ];
      Quorum_set.any [ Quorum_set.k_of 4 six; Quorum_set.k_of 3 [ m 0; m 2; m 4 ] ];
      Quorum_set.k_of 3 [ m 0; m 1; m 2; m 6 ];
    |]
  in
  QCheck.Test.make ~name:"consistency matches a set-based oracle" ~count:300
    QCheck.(pair (int_range 1 200) (int_range 0 1_000_000))
    (fun (steps, seed) ->
      let rng = Rng.create seed in
      (* PGCL advances reported during the current step. *)
      let advances = ref [] in
      let c =
        C.create
          ~on_pgcl:(fun p l ->
            advances := (Storage.Pg_id.to_int p, Lsn.to_int l) :: !advances)
          ()
      and model = Consistency_model.create () in
      let durable_before = ref 0 in
      for p = 0 to 2 do
        C.register_pg c (pg p) ~write_quorum:quorums.(0);
        Consistency_model.set_write_quorum model p quorums.(0)
      done;
      let last = ref 0 in
      let agree () =
        let points_agree p =
          let pgcl = Consistency_model.pgcl model p in
          Lsn.equal (C.pgcl c (pg p)) pgcl
          && List.for_all
               (fun l ->
                 let covering = Consistency_model.covering_at model ~pg:p ~lsn:l in
                 List.for_all
                   (fun seg ->
                     Bool.equal
                       (C.covers c ~pg:(pg p) ~lsn:l seg)
                       (Member_id.Set.mem seg covering))
                   members)
               [ Lsn.none; pgcl; Lsn.of_int (Rng.int rng (!last + 2)) ]
        in
        List.for_all points_agree [ 0; 1; 2 ]
        && Lsn.equal (C.vcl c) model.Consistency_model.vcl
        && Lsn.equal (C.vdl c) model.Consistency_model.vdl
        &&
        (* A step touches one group, so its records the model made durable
           are one PGCL advance, reported once, up to the last of them. *)
        let durable = Consistency_model.durable model in
        let fresh = List.filteri (fun i _ -> i >= !durable_before) durable in
        durable_before := List.length durable;
        let want = match List.rev fresh with [] -> [] | last :: _ -> [ last ] in
        let got = !advances in
        advances := [];
        List.equal (fun (p, l) (q, k) -> Int.equal p q && Int.equal l k) got want
      in
      let step () =
        match Rng.int rng 10 with
        | 0 | 1 | 2 ->
          incr last;
          let p = Rng.int rng 3 and mtr_end = Rng.int rng 3 > 0 in
          C.note_submitted c ~pg:(pg p) ~lsn:(lsn !last) ~mtr_end;
          Consistency_model.note_submitted model ~pg:p ~lsn:(lsn !last) ~mtr_end
        | 3 ->
          let p = Rng.int rng 3 and q = quorums.(Rng.int rng (Array.length quorums)) in
          C.set_write_quorum c (pg p) q;
          Consistency_model.set_write_quorum model p q
        | _ ->
          (* Half the acks report the newest LSN, the rest any earlier one. *)
          let p = Rng.int rng 3 and seg = Rng.int rng 12 in
          let scl = if Rng.int rng 2 = 0 then !last else Rng.int rng (!last + 1) in
          C.note_ack c ~pg:(pg p) ~seg:(m seg) ~scl:(lsn scl);
          Consistency_model.note_ack model ~pg:p ~seg ~scl:(lsn scl)
      in
      let rec go i = i >= steps || (step (); agree () && go (i + 1)) in
      go 0)

(* ---- Boxcar ---- *)

let mk_boxcar sim policy =
  let flushed = ref [] in
  let b =
    Boxcar.create ~sim ~policy ~flush:(fun records ->
        flushed := List.map (fun (r : Log_record.t) -> Lsn.to_int r.lsn) records :: !flushed)
  in
  (b, fun () -> List.rev !flushed)

let rec_at l =
  Log_record.make ~lsn:(lsn l) ~prev_volume:Lsn.none ~prev_segment:Lsn.none
    ~prev_block:Lsn.none ~block:(Block_id.of_int 0) ~txn:(Txn_id.of_int 1)
    ~mtr_id:l ~mtr_end:true ~op:Log_record.Noop

let test_boxcar_immediate () =
  let sim = Sim.create () in
  let b, flushed = mk_boxcar sim Boxcar.Immediate in
  Boxcar.add b (rec_at 1);
  Boxcar.add b (rec_at 2);
  Alcotest.(check (list (list int))) "each alone" [ [ 1 ]; [ 2 ] ] (flushed ())

let test_boxcar_first_record () =
  let sim = Sim.create () in
  let b, flushed = mk_boxcar sim (Boxcar.First_record (Time_ns.us 20)) in
  Boxcar.add b (rec_at 1);
  (* Arrives while the async send is pending: rides along. *)
  ignore (Sim.schedule sim ~delay:(Time_ns.us 10) (fun () -> Boxcar.add b (rec_at 2)));
  (* Arrives after the send fired: next boxcar. *)
  ignore (Sim.schedule sim ~delay:(Time_ns.us 50) (fun () -> Boxcar.add b (rec_at 3)));
  Sim.run sim;
  Alcotest.(check (list (list int))) "packed then fresh" [ [ 1; 2 ]; [ 3 ] ] (flushed ());
  check_bool "mean batch" true (Boxcar.mean_batch_size b = 1.5)

let test_boxcar_timeout_policy () =
  let sim = Sim.create () in
  let b, flushed =
    mk_boxcar sim (Boxcar.Timeout_boxcar { timeout = Time_ns.ms 1; max_records = 3 })
  in
  (* Fill to max: flushes immediately without waiting. *)
  Boxcar.add b (rec_at 1);
  Boxcar.add b (rec_at 2);
  Boxcar.add b (rec_at 3);
  check_int "flushed at capacity" 1 (List.length (flushed ()));
  check_int "at time zero" 0 (Sim.now sim);
  (* A lone record waits for the timer. *)
  Boxcar.add b (rec_at 4);
  Sim.run sim;
  check_int "timer fired" (Time_ns.ms 1) (Sim.now sim);
  Alcotest.(check (list (list int))) "both batches" [ [ 1; 2; 3 ]; [ 4 ] ] (flushed ())

let test_boxcar_flush_now () =
  let sim = Sim.create () in
  let b, flushed = mk_boxcar sim (Boxcar.First_record (Time_ns.ms 10)) in
  Boxcar.add b (rec_at 1);
  Boxcar.flush_now b;
  check_int "flushed" 1 (List.length (flushed ()));
  Sim.run sim;
  check_int "timer cancelled, no double flush" 1 (List.length (flushed ()))

(* ---- Txn_table & Read_view ---- *)

let test_txn_table () =
  let t = Txn_table.create () in
  let a = Txn_table.begin_txn t in
  let b = Txn_table.begin_txn t in
  check_bool "active" true (Txn_table.status t a = Some Txn_table.Active);
  Txn_table.mark_committed t a ~scn:(lsn 10);
  Txn_table.mark_aborted t b;
  Alcotest.(check (option int)) "scn" (Some 10)
    (Option.map Lsn.to_int (Txn_table.commit_scn t a));
  Alcotest.(check (option int)) "aborted has none" None
    (Option.map Lsn.to_int (Txn_table.commit_scn t b));
  check_bool "aborted" true (Txn_table.status t b = Some Txn_table.Aborted)

let version ~l ~t value =
  { Storage.Block_store.value = Some value; txn = Txn_id.of_int t; lsn = lsn l }

let image ~block ~as_of entries =
  {
    Storage.Protocol.image_block = Block_id.of_int block;
    image_as_of = as_of;
    image_entries = entries;
    image_bytes = Storage.Protocol.snapshot_bytes entries;
  }

let test_read_view_visibility () =
  let tbl = Txn_table.create () in
  let t1 = Txn_table.begin_txn tbl in
  let t2 = Txn_table.begin_txn tbl in
  Txn_table.mark_committed tbl t1 ~scn:(lsn 5);
  (* t2 stays active. *)
  let chain =
    [ version ~l:8 ~t:2 "uncommitted"; version ~l:3 ~t:1 "committed" ]
  in
  let view = Read_view.make ~as_of:(lsn 10) () in
  Alcotest.(check (option string)) "skips active txn" (Some "committed")
    (Read_view.value view tbl chain);
  (* The writing transaction sees its own write. *)
  let own = Read_view.make ~as_of:(lsn 10) ~owner:t2 () in
  Alcotest.(check (option string)) "own write visible" (Some "uncommitted")
    (Read_view.value own tbl chain);
  (* A view before the commit SCN must not see it. *)
  let early = Read_view.make ~as_of:(lsn 4) () in
  Alcotest.(check (option string)) "pre-commit view blind" None
    (Read_view.value early tbl chain)

let test_read_view_delete () =
  let tbl = Txn_table.create () in
  let t1 = Txn_table.begin_txn tbl in
  Txn_table.mark_committed tbl t1 ~scn:(lsn 6);
  let chain =
    [
      { Storage.Block_store.value = None; txn = t1; lsn = lsn 5 };
      version ~l:2 ~t:1 "old";
    ]
  in
  let view = Read_view.make ~as_of:(lsn 10) () in
  Alcotest.(check (option string)) "visible delete = absent" None
    (Read_view.value view tbl chain)

(* ---- Buffer cache ---- *)

let put_record ~l ~block key value =
  Log_record.make ~lsn:(lsn l) ~prev_volume:Lsn.none ~prev_segment:Lsn.none
    ~prev_block:Lsn.none ~block:(Block_id.of_int block) ~txn:(Txn_id.of_int 1)
    ~mtr_id:l ~mtr_end:true ~op:(Log_record.Put { key; value })

let test_cache_wal_rule () =
  let cache = Buffer_cache.create ~capacity:2 in
  (* Three dirty blocks, VDL at 0: nothing evictable, cache stays oversized. *)
  Buffer_cache.apply cache (put_record ~l:1 ~block:0 "a" "1") ~vdl:Lsn.none;
  Buffer_cache.apply cache (put_record ~l:2 ~block:1 "b" "2") ~vdl:Lsn.none;
  Buffer_cache.apply cache (put_record ~l:3 ~block:2 "c" "3") ~vdl:Lsn.none;
  check_int "WAL rule blocks eviction" 3 (Buffer_cache.size cache);
  check_bool "blocked recorded" true ((Buffer_cache.stats cache).eviction_blocked > 0);
  (* VDL covers everything: pressure now shrinks to capacity. *)
  Buffer_cache.evict_pressure cache ~vdl:(lsn 3);
  check_int "evicted to capacity" 2 (Buffer_cache.size cache)

let test_cache_lru () =
  let cache = Buffer_cache.create ~capacity:2 in
  Buffer_cache.apply cache (put_record ~l:1 ~block:0 "a" "1") ~vdl:(lsn 10);
  Buffer_cache.apply cache (put_record ~l:2 ~block:1 "b" "2") ~vdl:(lsn 10);
  (* Touch block 0 so block 1 is the LRU victim. *)
  ignore (Buffer_cache.read cache (Block_id.of_int 0) ~key:"a");
  Buffer_cache.apply cache (put_record ~l:3 ~block:2 "c" "3") ~vdl:(lsn 10);
  check_bool "lru evicted" false (Buffer_cache.contains cache (Block_id.of_int 1));
  check_bool "recently used kept" true (Buffer_cache.contains cache (Block_id.of_int 0))

let test_cache_partial_vs_complete () =
  let cache = Buffer_cache.create ~capacity:4 in
  Buffer_cache.apply cache (put_record ~l:1 ~block:0 "a" "1") ~vdl:(lsn 10);
  (* Blind-write block: authoritative for "a", not for "zz". *)
  (match Buffer_cache.read cache (Block_id.of_int 0) ~key:"zz" with
  | Buffer_cache.Partial [] -> ()
  | _ -> Alcotest.fail "expected Partial []");
  (* Install a storage image: now authoritative. *)
  Buffer_cache.install cache
    (image ~block:0 ~as_of:(lsn 5) [ ("a", [ version ~l:1 ~t:1 "1" ]) ])
    ~vdl:(lsn 10);
  (match Buffer_cache.read cache (Block_id.of_int 0) ~key:"zz" with
  | Buffer_cache.Hit [] -> ()
  | _ -> Alcotest.fail "expected authoritative empty");
  match Buffer_cache.read cache (Block_id.of_int 0) ~key:"a" with
  | Buffer_cache.Hit [ _ ] -> ()
  | _ -> Alcotest.fail "expected single version"

let test_cache_install_preserves_local () =
  let cache = Buffer_cache.create ~capacity:4 in
  (* Local write above the image's as_of must survive the install. *)
  Buffer_cache.apply cache (put_record ~l:9 ~block:0 "a" "local") ~vdl:(lsn 20);
  Buffer_cache.install cache
    (image ~block:0 ~as_of:(lsn 5) [ ("a", [ version ~l:3 ~t:2 "storage" ]) ])
    ~vdl:(lsn 20);
  match Buffer_cache.read cache (Block_id.of_int 0) ~key:"a" with
  | Buffer_cache.Hit (newest :: _) ->
    Alcotest.(check (option string)) "local wins" (Some "local")
      newest.Storage.Block_store.value
  | _ -> Alcotest.fail "expected merged chain"

(* Differential check of Buffer_cache against a naive model of its
   eviction rule: every block carries a use stamp, and each eviction folds
   the whole cache for the clean block (newest LSN <= VDL) with the
   smallest stamp, until at capacity or nothing clean is left. *)
module Cache_model = struct
  type op =
    | Apply of { block : int; l : int; vdl : int }
    | Apply_if_present of { block : int; l : int; vdl : int }
    | Install of { block : int; l : int; vdl : int }
        (** An image at [as_of] = [l]; [l] = 0 is an image with no keys. *)
    | Read of { block : int }
    | Evict of { vdl : int }
    | Drop_all

  let n_blocks = 8

  let show = function
    | Apply { block; l; vdl } -> Printf.sprintf "apply b%d @%d vdl %d" block l vdl
    | Apply_if_present { block; l; vdl } ->
      Printf.sprintf "apply_if_present b%d @%d vdl %d" block l vdl
    | Install { block; l; vdl } -> Printf.sprintf "install b%d @%d vdl %d" block l vdl
    | Read { block } -> Printf.sprintf "read b%d" block
    | Evict { vdl } -> Printf.sprintf "evict vdl %d" vdl
    | Drop_all -> "drop_all"

  let gen_op =
    let open QCheck.Gen in
    let block = int_bound (n_blocks - 1) and l = int_range 1 20 and vdl = int_bound 20 in
    frequency
      [
        (6, map3 (fun block l vdl -> Apply { block; l; vdl }) block l vdl);
        (3, map3 (fun block l vdl -> Apply_if_present { block; l; vdl }) block l vdl);
        (3, map3 (fun block l vdl -> Install { block; l; vdl }) block (int_bound 20) vdl);
        (4, map (fun block -> Read { block }) block);
        (2, map (fun vdl -> Evict { vdl }) vdl);
        (1, return Drop_all);
      ]

  let arb =
    QCheck.make
      ~print:(fun (capacity, ops) ->
        Printf.sprintf "capacity %d: %s" capacity
          (String.concat "; " (List.map show ops)))
      ~shrink:QCheck.Shrink.(pair nil list)
      QCheck.Gen.(pair (int_range 1 4) (list_size (int_range 1 80) gen_op))

  type entry = { mutable last_lsn : int; mutable used : int; mutable complete : bool }

  type model = {
    capacity : int;
    blocks : entry option array;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable blocked : int;
  }

  let touch m e =
    m.clock <- m.clock + 1;
    e.used <- m.clock

  let size m = Array.fold_left (fun n e -> if Option.is_some e then n + 1 else n) 0 m.blocks

  let evict m ~vdl =
    let continue = ref (size m > m.capacity) in
    while !continue do
      let victim = ref None in
      Array.iteri
        (fun b e ->
          match (e, !victim) with
          | Some e, Some (_, used) when e.last_lsn <= vdl && e.used < used ->
            victim := Some (b, e.used)
          | Some e, None when e.last_lsn <= vdl -> victim := Some (b, e.used)
          | _ -> ())
        m.blocks;
      match !victim with
      | Some (b, _) ->
        m.blocks.(b) <- None;
        m.evictions <- m.evictions + 1;
        continue := size m > m.capacity
      | None ->
        m.blocked <- m.blocked + 1;
        continue := false
    done

  let entry_of m b =
    match m.blocks.(b) with
    | Some e -> e
    | None ->
      let e = { last_lsn = 0; used = 0; complete = false } in
      m.blocks.(b) <- Some e;
      e

  let write m e ~l ~vdl =
    e.last_lsn <- max e.last_lsn l;
    touch m e;
    evict m ~vdl

  let run (capacity, ops) =
    let cache = Buffer_cache.create ~capacity in
    let m =
      {
        capacity;
        blocks = Array.make n_blocks None;
        clock = 0;
        hits = 0;
        misses = 0;
        evictions = 0;
        blocked = 0;
      }
    in
    let fail fmt = Printf.ksprintf (fun msg -> QCheck.Test.fail_report msg) fmt in
    let check step =
      for b = 0 to n_blocks - 1 do
        let got = Option.map Lsn.to_int (Buffer_cache.last_modified cache (Block_id.of_int b)) in
        let want = Option.map (fun e -> e.last_lsn) m.blocks.(b) in
        if Buffer_cache.contains cache (Block_id.of_int b) <> Option.is_some want then
          fail "%s: membership of b%d differs" step b;
        if got <> want then fail "%s: last_modified of b%d differs" step b
      done;
      if Buffer_cache.size cache <> size m then
        fail "%s: size %d, model %d" step (Buffer_cache.size cache) (size m);
      let st = Buffer_cache.stats cache in
      if
        st.hits <> m.hits || st.misses <> m.misses || st.evictions <> m.evictions
        || st.eviction_blocked <> m.blocked
      then
        fail "%s: stats %d/%d/%d/%d, model %d/%d/%d/%d" step st.hits st.misses
          st.evictions st.eviction_blocked m.hits m.misses m.evictions m.blocked
    in
    List.iter
      (fun op ->
        let step = show op in
        (match op with
        | Apply { block; l; vdl } ->
          Buffer_cache.apply cache (put_record ~l ~block "k" "v") ~vdl:(lsn vdl);
          write m (entry_of m block) ~l ~vdl
        | Apply_if_present { block; l; vdl } ->
          let got =
            Buffer_cache.apply_if_present cache (put_record ~l ~block "k" "v")
              ~vdl:(lsn vdl)
          in
          (match m.blocks.(block) with
          | Some e ->
            if not got then fail "%s: cached block not applied" step;
            write m e ~l ~vdl
          | None -> if got then fail "%s: uncached block applied" step)
        | Install { block; l; vdl } ->
          Buffer_cache.install cache
            (image ~block ~as_of:(lsn l)
               (if l = 0 then [] else [ ("k", [ version ~l ~t:1 "v" ]) ]))
            ~vdl:(lsn vdl);
          let e = entry_of m block in
          e.complete <- true;
          write m e ~l ~vdl
        | Read { block } -> (
          let got = Buffer_cache.read cache (Block_id.of_int block) ~key:"k" in
          match (got, m.blocks.(block)) with
          | Buffer_cache.Miss, None -> m.misses <- m.misses + 1
          | Buffer_cache.Hit _, Some ({ complete = true; _ } as e) ->
            m.hits <- m.hits + 1;
            touch m e
          | Buffer_cache.Partial _, Some ({ complete = false; _ } as e) -> touch m e
          | (Buffer_cache.Miss | Buffer_cache.Hit _ | Buffer_cache.Partial _), _ ->
            fail "%s: lookup kind differs" step)
        | Evict { vdl } ->
          Buffer_cache.evict_pressure cache ~vdl:(lsn vdl);
          evict m ~vdl
        | Drop_all ->
          Buffer_cache.drop_all cache;
          Array.fill m.blocks 0 n_blocks None);
        check step)
      ops;
    true
end

let test_cache_model =
  QCheck.Test.make ~count:500 ~name:"matches naive LRU model"
    Cache_model.arb Cache_model.run

(* The lazy image entry against the eager cache it replaced
   (buffer_cache_model.ml): the same random fills, local writes, second
   installs, evictions and reads on both, and every read must return the
   same lookup and chain.  Reads touch both caches alike, so LRU order and
   stats stay comparable too. *)
module Lazy_cache_model = struct
  module Eager = Buffer_cache_model

  type op =
    | Write of { block : int; key : int; vdl : int }
    | Write_if_present of { block : int; key : int; vdl : int }
    | Install of { block : int; back : int; chains : (int * int list) list; vdl : int }
        (** An image at [as_of] = newest LSN - [back]: per key index its
            chain, as gaps below [as_of]. *)
    | Read of { block : int; key : int }
    | Evict of { vdl : int }
    | Drop_all

  let n_blocks = 4
  let key_of i = String.make 1 (Char.chr (Char.code 'a' + i))

  let show = function
    | Write { block; key; vdl } -> Printf.sprintf "write b%d %s vdl -%d" block (key_of key) vdl
    | Write_if_present { block; key; vdl } ->
      Printf.sprintf "write_if_present b%d %s vdl -%d" block (key_of key) vdl
    | Install { block; back; chains; vdl } ->
      Printf.sprintf "install b%d at -%d [%s] vdl -%d" block back
        (String.concat "; "
           (List.map
              (fun (k, gaps) ->
                Printf.sprintf "%s:%s" (key_of k)
                  (String.concat "," (List.map string_of_int gaps)))
              chains))
        vdl
    | Read { block; key } -> Printf.sprintf "read b%d %s" block (key_of key)
    | Evict { vdl } -> Printf.sprintf "evict vdl -%d" vdl
    | Drop_all -> "drop_all"

  let gen_op =
    let open QCheck.Gen in
    let block = int_bound (n_blocks - 1) and key = int_bound 3 and vdl = int_bound 6 in
    let chains = list_size (int_bound 4) (pair key (list_size (int_bound 3) (int_range 0 3))) in
    frequency
      [
        (4, map3 (fun block key vdl -> Write { block; key; vdl }) block key vdl);
        (2, map3 (fun block key vdl -> Write_if_present { block; key; vdl }) block key vdl);
        ( 4,
          map4
            (fun block back chains vdl -> Install { block; back; chains; vdl })
            block (int_bound 5) chains vdl );
        (6, map2 (fun block key -> Read { block; key }) block key);
        (1, map (fun vdl -> Evict { vdl }) vdl);
        (1, return Drop_all);
      ]

  let arb =
    QCheck.make
      ~print:(fun (capacity, ops) ->
        Printf.sprintf "capacity %d: %s" capacity (String.concat "; " (List.map show ops)))
      ~shrink:QCheck.Shrink.(pair nil list)
      QCheck.Gen.(pair (int_range 1 3) (list_size (int_range 1 80) gen_op))

  let flat chain =
    List.map
      (fun (v : Storage.Block_store.version) ->
        (v.value, Txn_id.to_int v.txn, Lsn.to_int v.lsn))
      chain

  let same got want =
    match (got, want) with
    | Buffer_cache.Hit a, Eager.Hit b | Buffer_cache.Partial a, Eager.Partial b ->
      flat a = flat b
    | Buffer_cache.Miss, Eager.Miss -> true
    | (Buffer_cache.Hit _ | Buffer_cache.Partial _ | Buffer_cache.Miss), _ -> false

  let run (capacity, ops) =
    let cache = Buffer_cache.create ~capacity and eager = Eager.create ~capacity in
    let next = ref 0 in
    let fail fmt = Printf.ksprintf (fun msg -> QCheck.Test.fail_report msg) fmt in
    let at back = lsn (max 0 (!next - back)) in
    let read step block key =
      let b = Block_id.of_int block in
      if not (same (Buffer_cache.read cache b ~key) (Eager.read eager b ~key)) then
        fail "%s: b%d %s reads differ" step block key
    in
    let check step =
      for block = 0 to n_blocks - 1 do
        let b = Block_id.of_int block in
        if Buffer_cache.contains cache b <> Eager.contains eager b then
          fail "%s: membership of b%d differs" step block;
        if
          Option.map Lsn.to_int (Buffer_cache.last_modified cache b)
          <> Option.map Lsn.to_int (Eager.last_modified eager b)
        then fail "%s: last_modified of b%d differs" step block
      done;
      let a = Buffer_cache.stats cache and e = Eager.stats eager in
      if
        a.hits <> e.hits || a.misses <> e.misses || a.evictions <> e.evictions
        || a.eviction_blocked <> e.eviction_blocked
      then fail "%s: stats differ" step
    in
    List.iter
      (fun op ->
        let step = show op in
        (match op with
        | Write { block; key; vdl } ->
          incr next;
          let r = put_record ~l:!next ~block (key_of key) (Printf.sprintf "w%d" !next) in
          Buffer_cache.apply cache r ~vdl:(at vdl);
          Eager.apply eager r ~vdl:(at vdl)
        | Write_if_present { block; key; vdl } ->
          incr next;
          let r = put_record ~l:!next ~block (key_of key) (Printf.sprintf "w%d" !next) in
          let a = Buffer_cache.apply_if_present cache r ~vdl:(at vdl) in
          if a <> Eager.apply_if_present eager r ~vdl:(at vdl) then
            fail "%s: applied differs" step
        | Install { block; back; chains; vdl } ->
          (* A storage image: each key once, chains newest first, no
             version above [as_of]. *)
          let as_of = Lsn.to_int (at back) in
          let entries =
            List.fold_left
              (fun acc (k, gaps) ->
                let key = key_of k in
                if List.mem_assoc key acc then acc
                else
                  let _, chain =
                    List.fold_left
                      (fun (l, chain) gap ->
                        let l = l - gap in
                        if l < 1 then (l, chain)
                        else (l - 1, version ~l ~t:1 (Printf.sprintf "s%d" l) :: chain))
                      (as_of, []) gaps
                  in
                  match List.rev chain with [] -> acc | chain -> (key, chain) :: acc)
              [] chains
          in
          let img = image ~block ~as_of:(lsn as_of) entries in
          Buffer_cache.install cache img ~vdl:(at vdl);
          Eager.install eager img ~vdl:(at vdl)
        | Read { block; key } -> read step block (key_of key)
        | Evict { vdl } ->
          Buffer_cache.evict_pressure cache ~vdl:(at vdl);
          Eager.evict_pressure eager ~vdl:(at vdl)
        | Drop_all ->
          Buffer_cache.drop_all cache;
          Eager.drop_all eager);
        check step)
      ops;
    (* Last, every key of every block. *)
    for block = 0 to n_blocks - 1 do
      for key = 0 to 3 do
        read "final sweep" block (key_of key)
      done
    done;
    true
end

let test_lazy_cache_model =
  QCheck.Test.make ~count:500 ~name:"lazy image entry reads as the eager merge"
    Lazy_cache_model.arb Lazy_cache_model.run

(* The fixed sequence of the property above: an image fill, a local write,
   a second install and an eviction, each key read after every step. *)
let test_cache_lazy_sequence () =
  let cache = Buffer_cache.create ~capacity:1
  and eager = Buffer_cache_model.create ~capacity:1 in
  let install img ~vdl =
    Buffer_cache.install cache img ~vdl:(lsn vdl);
    Buffer_cache_model.install eager img ~vdl:(lsn vdl)
  and apply r ~vdl =
    Buffer_cache.apply cache r ~vdl:(lsn vdl);
    Buffer_cache_model.apply eager r ~vdl:(lsn vdl)
  in
  let read step key =
    let got = Buffer_cache.read cache (Block_id.of_int 0) ~key
    and want = Buffer_cache_model.read eager (Block_id.of_int 0) ~key in
    check_bool (step ^ ": " ^ key) true (Lazy_cache_model.same got want);
    got
  in
  let reads step =
    List.iter (fun key -> ignore (read step key : Buffer_cache.lookup)) [ "a"; "b"; "c" ]
  in
  install ~vdl:4
    (image ~block:0 ~as_of:(lsn 4)
       [ ("a", [ version ~l:3 ~t:1 "a3"; version ~l:1 ~t:1 "a1" ]); ("b", [ version ~l:2 ~t:1 "b2" ]) ]);
  reads "image fill";
  apply (put_record ~l:6 ~block:0 "a" "a6") ~vdl:4;
  reads "local write";
  install ~vdl:4
    (image ~block:0 ~as_of:(lsn 5)
       [ ("a", [ version ~l:3 ~t:1 "a3" ]); ("c", [ version ~l:5 ~t:1 "c5" ]) ]);
  reads "second install";
  (match read "after" "a" with
  | Buffer_cache.Hit chain ->
    Alcotest.(check (list int)) "local write kept above the image" [ 6; 3 ]
      (List.map (fun (v : Storage.Block_store.version) -> Lsn.to_int v.lsn) chain)
  | Buffer_cache.Partial _ | Buffer_cache.Miss -> Alcotest.fail "expected a hit");
  apply (put_record ~l:7 ~block:1 "a" "other") ~vdl:7;
  check_bool "block 0 evicted" false (Buffer_cache.contains cache (Block_id.of_int 0));
  reads "eviction"

(* Block ids far past the table's first 64 slots, as [Volume.grow] adds
   above [n_blocks]: the table grows to reach them, and after [drop_all]
   every block reads as a miss and a refill works.  The eager cache (a
   [Block_id.Tbl]) agrees on every read, membership, [last_modified],
   size and stats at every step. *)
let test_cache_sparse_ids () =
  let ids = [ 0; 63; 64; 1_000; 70_000 ] in
  let cache = Buffer_cache.create ~capacity:3
  and eager = Buffer_cache_model.create ~capacity:3 in
  let l = ref 0 in
  let write ~vdl block =
    incr l;
    let r = put_record ~l:!l ~block "k" (Printf.sprintf "w%d" !l) in
    Buffer_cache.apply cache r ~vdl:(lsn vdl);
    Buffer_cache_model.apply eager r ~vdl:(lsn vdl)
  in
  let check step =
    List.iter
      (fun block ->
        let b = Block_id.of_int block in
        let where = Printf.sprintf "%s: b%d" step block in
        check_bool (where ^ " contains") (Buffer_cache_model.contains eager b)
          (Buffer_cache.contains cache b);
        Alcotest.(check (option int)) (where ^ " last_modified")
          (Option.map Lsn.to_int (Buffer_cache_model.last_modified eager b))
          (Option.map Lsn.to_int (Buffer_cache.last_modified cache b));
        check_bool (where ^ " read") true
          (Lazy_cache_model.same (Buffer_cache.read cache b ~key:"k")
             (Buffer_cache_model.read eager b ~key:"k")))
      ids;
    check_int (step ^ ": size") (Buffer_cache_model.size eager) (Buffer_cache.size cache);
    let a = Buffer_cache.stats cache and e = Buffer_cache_model.stats eager in
    Alcotest.(check (list int)) (step ^ ": stats")
      [ e.hits; e.misses; e.evictions; e.eviction_blocked ]
      [ a.hits; a.misses; a.evictions; a.eviction_blocked ]
  in
  (* Dirty above VDL 0: all five stay, over capacity. *)
  List.iter (write ~vdl:0) ids;
  check "dirty fill";
  check_int "WAL rule keeps all five" 5 (Buffer_cache.size cache);
  Buffer_cache.evict_pressure cache ~vdl:(lsn !l);
  Buffer_cache_model.evict_pressure eager ~vdl:(lsn !l);
  check "evicted to capacity";
  Buffer_cache.drop_all cache;
  Buffer_cache_model.drop_all eager;
  check "after drop_all";
  check_int "empty after drop_all" 0 (Buffer_cache.size cache);
  List.iter (fun block -> write ~vdl:!l block) (List.rev ids);
  check "refill";
  let img = image ~block:70_001 ~as_of:(lsn 1) [ ("k", [ version ~l:1 ~t:1 "s1" ]) ] in
  Buffer_cache.install cache img ~vdl:(lsn !l);
  Buffer_cache_model.install eager img ~vdl:(lsn !l);
  check_bool "installed above every id so far" true
    (Buffer_cache.contains cache (Block_id.of_int 70_001));
  check "install"

(* The id-indexed table against a [Hashtbl] of statuses, with the
   allocator modelled as a counter: begins, out-of-order registrations
   (ids up to 700, past the table's first 256 rows), floors, commits,
   aborts, forgets, and every lookup after every step.  SCNs are distinct
   and increasing, as commit records' LSNs are. *)
module Txn_table_model = struct
  type op =
    | Begin
    | Register of int
    | Floor of int
    | Commit of int
    | Abort of int
    | Forget of int
    | Upto of int  (** [committed_upto] at the SCN counter less this *)

  let max_id = 700

  let show = function
    | Begin -> "begin"
    | Register i -> Printf.sprintf "register t%d" i
    | Floor i -> Printf.sprintf "floor t%d" i
    | Commit i -> Printf.sprintf "commit t%d" i
    | Abort i -> Printf.sprintf "abort t%d" i
    | Forget i -> Printf.sprintf "forget t%d" i
    | Upto back -> Printf.sprintf "upto -%d" back

  let arb =
    let open QCheck.Gen in
    let id = int_range 1 max_id in
    QCheck.make
      ~print:(fun ops -> String.concat "; " (List.map show ops))
      ~shrink:QCheck.Shrink.list
      (list_size (int_range 1 120)
         (frequency
            [
              (4, return Begin);
              (3, map (fun i -> Register i) id);
              (1, map (fun i -> Floor i) id);
              (4, map (fun i -> Commit i) id);
              (2, map (fun i -> Abort i) id);
              (1, map (fun i -> Forget i) id);
              (2, map (fun b -> Upto b) (int_bound 20));
            ]))

  let show_status = function
    | None -> "absent"
    | Some Txn_table.Active -> "active"
    | Some Txn_table.Aborted -> "aborted"
    | Some (Txn_table.Committed scn) -> Printf.sprintf "committed@%d" (Lsn.to_int scn)

  let run ops =
    let t = Txn_table.create () in
    let model : (int, Txn_table.status) Hashtbl.t = Hashtbl.create 64 in
    let last = ref 0 and scn = ref 0 in
    let fail fmt = Printf.ksprintf (fun msg -> QCheck.Test.fail_report msg) fmt in
    let check step =
      for i = 1 to max_id + 130 do
        let id = Txn_id.of_int i in
        let want = Hashtbl.find_opt model i in
        let got = Txn_table.status t id in
        if show_status got <> show_status want then
          fail "%s: t%d is %s, model %s" step i (show_status got) (show_status want);
        let want_scn = match want with Some (Txn_table.Committed c) -> Lsn.to_int c | _ -> 0 in
        if Lsn.to_int (Txn_table.scn t id) <> want_scn then
          fail "%s: scn of t%d is %d, model %d" step i (Lsn.to_int (Txn_table.scn t id)) want_scn;
        if
          Option.map Lsn.to_int (Txn_table.commit_scn t id)
          <> (if want_scn > 0 then Some want_scn else None)
        then fail "%s: commit_scn of t%d" step i
      done
    in
    List.iter
      (fun op ->
        let step = show op in
        (match op with
        | Begin ->
          incr last;
          let id = Txn_table.begin_txn t in
          if Txn_id.to_int id <> !last then
            fail "%s: allocated t%d, model t%d" step (Txn_id.to_int id) !last;
          Hashtbl.replace model !last Txn_table.Active
        | Register i ->
          Txn_table.register t (Txn_id.of_int i);
          Hashtbl.replace model i Txn_table.Active
        | Floor i ->
          Txn_table.note_floor t (Txn_id.of_int i);
          last := max !last i
        | Commit i ->
          incr scn;
          Txn_table.mark_committed t (Txn_id.of_int i) ~scn:(lsn !scn);
          Hashtbl.replace model i (Txn_table.Committed (lsn !scn))
        | Abort i ->
          Txn_table.mark_aborted t (Txn_id.of_int i);
          Hashtbl.replace model i Txn_table.Aborted
        | Forget i ->
          Txn_table.forget t (Txn_id.of_int i);
          Hashtbl.remove model i
        | Upto back ->
          let bound = max 0 (!scn - back) in
          let want =
            Hashtbl.fold
              (fun i status acc ->
                match status with
                | Txn_table.Committed c when Lsn.to_int c <= bound -> (Lsn.to_int c, i) :: acc
                | Txn_table.Committed _ | Txn_table.Active | Txn_table.Aborted -> acc)
              model []
            |> List.sort compare
          in
          let got =
            List.map
              (fun (id, c) -> (Lsn.to_int c, Txn_id.to_int id))
              (Txn_table.committed_upto t (lsn bound))
          in
          if got <> want then fail "%s: committed_upto differs (or is unsorted)" step);
        check step)
      ops;
    true
end

let test_txn_table_model =
  QCheck.Test.make ~count:300 ~name:"txn table matches a Hashtbl model"
    Txn_table_model.arb Txn_table_model.run

(* ---- Volume rosters ---- *)

(* [full_roster] is memoised on the membership it came from: each
   membership step, a scheme change included, must show at once, and an
   unchanged group returns the very same list. *)
let test_full_roster_memo () =
  let module Volume = Aurora_core.Volume in
  let membership = Layout.membership Layout.Tiered in
  let members = Membership.members membership in
  let addr (m : Membership.member) = Simnet.Addr.of_int (100 + Member_id.to_int m.id) in
  let volume =
    Volume.create
      [
        ( pg 0,
          membership,
          List.map (fun (m : Membership.member) -> (m.id, addr m)) members );
      ]
  in
  let g = Volume.find_pg volume (pg 0) in
  let reference () =
    List.filter_map
      (fun (m : Membership.member) ->
        match (m.kind, Member_id.Map.find_opt m.id g.Volume.addr_of) with
        | Membership.Full, Some a -> Some (Member_id.to_int m.id, Simnet.Addr.to_int a)
        | _ -> None)
      (Membership.members g.Volume.membership)
  in
  let ids l = List.map (fun (m, a) -> (Member_id.to_int m, Simnet.Addr.to_int a)) l in
  let check step =
    let full = Volume.full_roster g in
    Alcotest.(check (list (pair int int))) step (reference ()) (ids full);
    check_bool (step ^ ": memoised") true (Volume.full_roster g == full)
  in
  check "initial";
  check_int "three full segments" 3 (List.length (Volume.full_roster g));
  let full_member =
    List.find (fun (m : Membership.member) -> m.kind = Membership.Full) members
  in
  let suspect = full_member.id and replacement = Member_id.of_int 40 in
  let ok = function Ok () -> () | Error e -> Alcotest.fail e in
  ok
    (Volume.begin_membership_change volume (pg 0) ~suspect
       ~replacement:{ full_member with id = replacement }
       ~replacement_addr:(Simnet.Addr.of_int 140));
  check "replacement begun";
  check_bool "replacement readable" true
    (List.exists (fun (m, _) -> Member_id.equal m replacement) (Volume.full_roster g));
  ok (Volume.commit_membership_change volume (pg 0) ~suspect);
  check "suspect removed";
  check_bool "suspect no longer read" false
    (List.exists (fun (m, _) -> Member_id.equal m suspect) (Volume.full_roster g));
  (* Re-form on the three full segments alone: the tail segments leave
     the roster, and their addresses with them. *)
  let fulls =
    List.filter
      (fun (m : Membership.member) -> m.kind = Membership.Full)
      (Membership.members g.Volume.membership)
  in
  let before = Volume.roster g in
  ok
    (Volume.change_scheme volume (pg 0) ~scheme:Layout.scheme_2_of_3 fulls);
  check "scheme changed";
  check_bool "roster refreshed" false (Volume.roster g == before);
  Alcotest.(check (list (pair int int)))
    "roster is the full segments" (ids (Volume.full_roster g)) (ids (Volume.roster g));
  check_int "addresses of the members left" 3 (Member_id.Map.cardinal g.Volume.addr_of);
  check_bool "unaddressed member refused" true
    (Result.is_error
       (Volume.change_scheme volume (pg 0) ~scheme:Layout.scheme_2_of_3
          ({ full_member with id = Member_id.of_int 41 } :: List.tl fulls)))

(* ---- Commit queue ---- *)

let test_commit_queue () =
  let q = Commit_queue.create () in
  let acked = ref [] in
  for i = 1 to 3 do
    Commit_queue.enqueue q ~txn:(Txn_id.of_int i) ~scn:(lsn (i * 10))
      ~on_ack:(fun () -> acked := i :: !acked)
  done;
  check_int "drain below 15" 1 (Commit_queue.drain q ~vcl:(lsn 15));
  Alcotest.(check (list int)) "first only" [ 1 ] (List.rev !acked);
  check_int "drain to 30" 2 (Commit_queue.drain q ~vcl:(lsn 30));
  Alcotest.(check (list int)) "in order" [ 1; 2; 3 ] (List.rev !acked);
  check_int "empty" 0 (Commit_queue.pending q)

(* ---- Recovery math ---- *)

let test_recovered_point () =
  check_int "max of scls" 7
    (Lsn.to_int
       (Recovery.recovered_point
          ~scls:[ (m 0, lsn 3); (m 1, lsn 7); (m 2, lsn 5) ]))

let chain_records assignment =
  (* Build volume-chain records 1..n with the given pg assignment. *)
  List.mapi
    (fun i p ->
      let l = i + 1 in
      Log_record.make ~lsn:(lsn l) ~prev_volume:(lsn (l - 1))
        ~prev_segment:Lsn.none ~prev_block:Lsn.none
        ~block:(Block_id.of_int p) (* block i lives in pg i for the test *)
        ~txn:(Txn_id.of_int 1) ~mtr_id:l ~mtr_end:true ~op:Log_record.Noop)
    assignment

let test_compute_vcl_figure4 () =
  (* Records 1..6 alternating pg0/pg1; pg0 durable to 5, pg1 durable to 4:
     the chain is complete through 5 but 6 (pg1) is beyond its point. *)
  let records = chain_records [ 0; 1; 0; 1; 0; 1 ] in
  let points p = if Storage.Pg_id.to_int p = 0 then lsn 5 else lsn 4 in
  let vcl, vdl =
    Recovery.compute_vcl ~anchor:Lsn.none ~points
      ~pg_of:(fun b -> Storage.Pg_id.of_int (Block_id.to_int b))
      records
  in
  check_int "vcl stops at first uncovered" 5 (Lsn.to_int vcl);
  check_int "vdl likewise" 5 (Lsn.to_int vdl)

let test_compute_vcl_gap () =
  (* A missing record (never fetched) must stop the walk even if later
     records are covered. *)
  let records =
    List.filter
      (fun (r : Log_record.t) -> Lsn.to_int r.lsn <> 3)
      (chain_records [ 0; 0; 0; 0; 0 ])
  in
  let vcl, _ =
    Recovery.compute_vcl ~anchor:Lsn.none
      ~points:(fun _ -> lsn 100)
      ~pg_of:(fun b -> Storage.Pg_id.of_int (Block_id.to_int b))
      records
  in
  check_int "stops at gap" 2 (Lsn.to_int vcl)

let test_compute_vcl_anchor () =
  (* Records below the anchor were GCed: the walk starts above it. *)
  let records =
    List.filter
      (fun (r : Log_record.t) -> Lsn.to_int r.lsn > 3)
      (chain_records [ 0; 0; 0; 0; 0; 0 ])
  in
  let vcl, _ =
    Recovery.compute_vcl ~anchor:(lsn 3)
      ~points:(fun _ -> lsn 100)
      ~pg_of:(fun b -> Storage.Pg_id.of_int (Block_id.to_int b))
      records
  in
  check_int "continues from anchor" 6 (Lsn.to_int vcl)

let prop_compute_vcl_never_exceeds_durable =
  QCheck.Test.make
    ~name:"recovered VCL covers exactly the durable gapless prefix" ~count:200
    QCheck.(triple (int_range 1 40) (int_range 0 40) (int_range 0 9999))
    (fun (n, point0, seed) ->
      let rng = Rng.create seed in
      let assignment = List.init n (fun _ -> Rng.int rng 2) in
      let records = chain_records assignment in
      let p0 = lsn (min point0 n) in
      let p1 = lsn (Rng.int rng (n + 1)) in
      let points p = if Storage.Pg_id.to_int p = 0 then p0 else p1 in
      let vcl, _ =
        Recovery.compute_vcl ~anchor:Lsn.none ~points
          ~pg_of:(fun b -> Storage.Pg_id.of_int (Block_id.to_int b))
          records
      in
      (* Reference: largest prefix where each record <= its pg's point. *)
      let rec prefix i =
        if i < n
           && Lsn.to_int (points (Storage.Pg_id.of_int (List.nth assignment i)))
              >= i + 1
        then prefix (i + 1)
        else i
      in
      Lsn.to_int vcl = prefix 0)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "aurora_core"
    [
      ( "consistency",
        [
          Alcotest.test_case "figure 3" `Quick test_consistency_figure3;
          Alcotest.test_case "quorum threshold" `Quick
            test_consistency_quorum_threshold;
          Alcotest.test_case "VDL on MTR boundaries" `Quick test_consistency_vdl_mtr;
          Alcotest.test_case "hooks + read candidates" `Quick
            test_consistency_hooks_and_candidates;
          Alcotest.test_case "composite write quorum" `Quick
            test_consistency_quorum_set_write;
          Alcotest.test_case "looser quorum re-advances PGCL" `Quick
            test_consistency_looser_quorum;
          qc prop_consistency_reference;
          qc prop_consistency_model;
        ] );
      ( "boxcar",
        [
          Alcotest.test_case "immediate" `Quick test_boxcar_immediate;
          Alcotest.test_case "first-record (aurora)" `Quick test_boxcar_first_record;
          Alcotest.test_case "timeout policy" `Quick test_boxcar_timeout_policy;
          Alcotest.test_case "flush_now" `Quick test_boxcar_flush_now;
        ] );
      ( "mvcc",
        [
          Alcotest.test_case "txn table" `Quick test_txn_table;
          Alcotest.test_case "visibility" `Quick test_read_view_visibility;
          Alcotest.test_case "deletes" `Quick test_read_view_delete;
          qc test_txn_table_model;
        ] );
      ( "buffer_cache",
        [
          Alcotest.test_case "WAL eviction rule" `Quick test_cache_wal_rule;
          Alcotest.test_case "LRU order" `Quick test_cache_lru;
          Alcotest.test_case "partial vs complete" `Quick
            test_cache_partial_vs_complete;
          Alcotest.test_case "install preserves local" `Quick
            test_cache_install_preserves_local;
          qc test_cache_model;
          qc test_lazy_cache_model;
          Alcotest.test_case "lazy image entry: fill, write, install, evict" `Quick
            test_cache_lazy_sequence;
          Alcotest.test_case "block ids past the table, and drop_all" `Quick
            test_cache_sparse_ids;
        ] );
      ("volume", [ Alcotest.test_case "full roster memo" `Quick test_full_roster_memo ]);
      ("commit_queue", [ Alcotest.test_case "scn gating" `Quick test_commit_queue ]);
      ( "recovery",
        [
          Alcotest.test_case "recovered point = max scl" `Quick test_recovered_point;
          Alcotest.test_case "vcl walk (figure 4)" `Quick test_compute_vcl_figure4;
          Alcotest.test_case "vcl stops at gaps" `Quick test_compute_vcl_gap;
          Alcotest.test_case "vcl from anchor" `Quick test_compute_vcl_anchor;
          qc prop_compute_vcl_never_exceeds_durable;
        ] );
    ]
