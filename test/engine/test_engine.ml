(* Engine-level behaviour tests: the writer database's client semantics
   (read-your-writes, aborts, deletes, snapshot anchoring) and the replica's
   stream handling, each on a small real cluster. *)
open Simcore
open Wal
module Database = Aurora_core.Database
module Replica = Aurora_core.Replica
module Buffer_cache = Aurora_core.Buffer_cache
module Boxcar = Aurora_core.Boxcar
module Volume = Aurora_core.Volume
module Protocol = Storage.Protocol
module Cluster = Harness.Cluster

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_vopt = Alcotest.(check (option string))

let with_cluster ?(seed = 301) ?(n_pgs = 2) f =
  let cluster = Cluster.create { Cluster.default_config with seed; n_pgs } in
  f cluster (Cluster.sim cluster) (Cluster.db cluster)

(* One PG, so every record of a window shares one boxcar. *)
let with_boxcar policy f =
  let db_config = { Database.default_config with boxcar = policy } in
  let cluster =
    Cluster.create { Cluster.default_config with seed = 301; n_pgs = 1; db_config }
  in
  f cluster (Cluster.sim cluster) (Cluster.db cluster)

let settle sim span = Sim.run_until sim (Time_ns.add (Sim.now sim) span)

let get_now sim db ?txn key =
  let r = ref None in
  Database.get db ?txn ~key (fun x -> r := Some x);
  settle sim (Time_ns.sec 2);
  match !r with
  | Some (Ok v) -> v
  | Some (Error e) -> Alcotest.failf "get %s failed: %s" key e
  | None -> Alcotest.failf "get %s never returned" key

(* Put [key] in its own transaction, commit, and settle: was it acked? *)
let commit_now sim db key =
  let acked = ref false in
  let txn = Database.begin_txn db in
  Database.put db ~txn ~key ~value:"v";
  Database.commit db ~txn (fun r -> acked := r = Ok ());
  settle sim (Time_ns.sec 1);
  !acked

let pg_of db key =
  (Volume.pg_of_block (Database.volume db)
     (Database.block_of_key (Database.config db) key))
    .Volume.id

(* The first of [prefix]0, [prefix]1, ... whose group is not [pg]. *)
let key_outside db pg prefix =
  let rec find i =
    let k = prefix ^ string_of_int i in
    if Storage.Pg_id.equal (pg_of db k) pg then find (i + 1) else k
  in
  find 0

(* Every reply from [pg]'s storage nodes to [dsts] takes [span]. *)
let slow_replies cluster pg ~dsts span =
  List.iter
    (fun node ->
      match Storage.Storage_node.segments node with
      | s :: _ when Storage.Pg_id.equal (Storage.Segment.pg s) pg ->
        List.iter
          (fun dst ->
            Simnet.Net.set_link_latency (Cluster.net cluster)
              ~src:(Storage.Storage_node.addr node) ~dst
              (Distribution.constant span))
          dsts
      | _ -> ())
    (Cluster.storage_nodes cluster)

(* ---- writer semantics ---- *)

let test_read_your_own_writes () =
  with_cluster (fun _ sim db ->
      let txn = Database.begin_txn db in
      Database.put db ~txn ~key:"k" ~value:"mine";
      (* Uncommitted: visible to the writing txn, invisible to others. *)
      check_vopt "own write visible" (Some "mine") (get_now sim db ~txn "k");
      check_vopt "others blind" None (get_now sim db "k");
      Database.commit db ~txn (fun _ -> ());
      settle sim (Time_ns.sec 1);
      check_vopt "visible after commit" (Some "mine") (get_now sim db "k"))

(* A read issued from a commit's ack anchors at or above that commit: VCL
   and VDL are both set before the commit queue drains. *)
let test_read_from_commit_ack () =
  with_cluster (fun _ sim db ->
      check_bool "first commit acked" true (commit_now sim db "k");
      let seen = ref None in
      let txn = Database.begin_txn db in
      Database.put db ~txn ~key:"k" ~value:"mine";
      Database.commit db ~txn (fun r ->
          if r = Ok () then Database.get db ~key:"k" (fun x -> seen := Some x));
      settle sim (Time_ns.sec 2);
      match !seen with
      | Some (Ok v) -> check_vopt "read from the ack sees the commit" (Some "mine") v
      | Some (Error e) -> Alcotest.failf "get failed: %s" e
      | None -> Alcotest.fail "commit never acked")

let test_abort_invisible () =
  with_cluster (fun _ sim db ->
      let t1 = Database.begin_txn db in
      Database.put db ~txn:t1 ~key:"k" ~value:"committed";
      Database.commit db ~txn:t1 (fun _ -> ());
      settle sim (Time_ns.sec 1);
      let t2 = Database.begin_txn db in
      Database.put db ~txn:t2 ~key:"k" ~value:"rolled-back";
      Database.abort db ~txn:t2;
      settle sim (Time_ns.sec 1);
      check_vopt "abort leaves prior value" (Some "committed")
        (get_now sim db "k"))

let test_delete_visible () =
  with_cluster (fun _ sim db ->
      let t1 = Database.begin_txn db in
      Database.put db ~txn:t1 ~key:"k" ~value:"v";
      Database.commit db ~txn:t1 (fun _ -> ());
      settle sim (Time_ns.sec 1);
      let t2 = Database.begin_txn db in
      Database.delete db ~txn:t2 ~key:"k";
      Database.commit db ~txn:t2 (fun _ -> ());
      settle sim (Time_ns.sec 1);
      check_vopt "deleted" None (get_now sim db "k"))

let test_read_only_commit_immediate () =
  with_cluster (fun _ sim db ->
      let txn = Database.begin_txn db in
      let acked = ref false in
      Database.get db ~txn ~key:"nothing" (fun _ -> ());
      settle sim (Time_ns.sec 1);
      Database.commit db ~txn (fun r -> acked := r = Ok ());
      (* No durability to wait for: ack is synchronous. *)
      check_bool "read-only commit immediate" true !acked)

(* Commit and abort release a writer's bookkeeping: after a batch of each
   (plus read-only commits, which never write), nothing is held. *)
let test_writer_map_released () =
  with_cluster (fun _ sim db ->
      let acks = ref 0 in
      for i = 1 to 20 do
        let txn = Database.begin_txn db in
        if i mod 5 <> 0 then
          Database.put db ~txn ~key:(Printf.sprintf "k%d" (i mod 7))
            ~value:(string_of_int i);
        if i mod 3 = 0 then Database.abort db ~txn
        else Database.commit db ~txn (fun r -> if r = Ok () then incr acks)
      done;
      check_int "released as commit/abort is called" 0 (Database.open_writers db);
      settle sim (Time_ns.sec 1);
      check_int "every commit acked" 14 !acks;
      check_int "no open writers" 0 (Database.open_writers db);
      let txn = Database.begin_txn db in
      Database.put db ~txn ~key:"k0" ~value:"open";
      check_int "an open writer is held" 1 (Database.open_writers db);
      Database.commit db ~txn (fun _ -> ());
      check_int "released at commit" 0 (Database.open_writers db))

let test_snapshot_does_not_see_later_commits () =
  (* A read served at an earlier VDL anchor must not observe a commit that
     lands after the anchor was taken: we pin the view by capturing vdl
     before a racing write, then read storage directly at that anchor. *)
  with_cluster (fun cluster sim db ->
      ignore cluster;
      let t1 = Database.begin_txn db in
      Database.put db ~txn:t1 ~key:"x" ~value:"old";
      Database.commit db ~txn:t1 (fun _ -> ());
      settle sim (Time_ns.sec 1);
      let anchor = Database.vdl db in
      let t2 = Database.begin_txn db in
      Database.put db ~txn:t2 ~key:"x" ~value:"new";
      Database.commit db ~txn:t2 (fun _ -> ());
      settle sim (Time_ns.sec 1);
      (* Visibility at the old anchor. *)
      let view = Aurora_core.Read_view.make ~as_of:anchor () in
      let block = Database.block_of_key (Database.config db) "x" in
      (match
         Buffer_cache.read (Database.cache db) block ~key:"x"
       with
      | Buffer_cache.Hit chain | Buffer_cache.Partial chain ->
        check_vopt "old anchor sees old value" (Some "old")
          (Aurora_core.Read_view.value view (Database.txn_table db) chain)
      | Buffer_cache.Miss -> Alcotest.fail "block not cached");
      check_vopt "current view sees new value" (Some "new")
        (get_now sim db "x"))

let test_cache_hit_ratio_counts () =
  with_cluster (fun _ sim db ->
      let txn = Database.begin_txn db in
      Database.put db ~txn ~key:"hot" ~value:"v";
      Database.commit db ~txn (fun _ -> ());
      settle sim (Time_ns.sec 1);
      for _ = 1 to 10 do
        ignore (get_now sim db "hot")
      done;
      let m = Database.metrics db in
      check_bool "cache hits counted" true (m.Database.cache_hit_reads >= 10))

let test_mean_batch_size_metric () =
  with_cluster (fun _ sim db ->
      let txn = Database.begin_txn db in
      for i = 1 to 20 do
        Database.put db ~txn ~key:(Printf.sprintf "b%d" i) ~value:"v"
      done;
      Database.commit db ~txn (fun _ -> ());
      settle sim (Time_ns.sec 1);
      check_bool "batches packed" true (Database.mean_batch_size db > 1.));
  (* Exact: one record per batch with no batching, and all k records of
     one window in one batch. *)
  let puts db k =
    let txn = Database.begin_txn db in
    for i = 1 to k do
      Database.put db ~txn ~key:(Printf.sprintf "p%d" i) ~value:"v"
    done
  in
  with_boxcar Boxcar.Immediate (fun _ sim db ->
      puts db 12;
      settle sim (Time_ns.ms 10);
      Alcotest.(check (float 0.)) "immediate" 1.0 (Database.mean_batch_size db));
  with_boxcar (Boxcar.First_record (Time_ns.us 20)) (fun _ sim db ->
      puts db 12;
      settle sim (Time_ns.ms 10);
      check_int "records written" 12 (Database.metrics db).Database.records_written;
      Alcotest.(check (float 0.)) "one window" 12.0 (Database.mean_batch_size db))

(* ---- boxcar fan-out (§2.2) ---- *)

(* Every [Write_batch] the writer hands to the network, oldest first, as
   (send instant, destination, LSNs). *)
let watch_batches cluster =
  let sent = ref [] in
  let sim = Cluster.sim cluster and writer = Database.addr (Cluster.db cluster) in
  Simnet.Net.set_recorder (Cluster.net cluster)
    (Some
       (fun phase ~src ~dst msg ->
         match (phase, msg) with
         | Simnet.Net.Sent, Protocol.Write_batch { records; _ }
           when Simnet.Addr.equal src writer ->
           let lsns = List.map (fun (r : Log_record.t) -> Lsn.to_int r.lsn) records in
           sent := (Sim.now sim, dst, lsns) :: !sent
         | _ -> ()));
  fun () -> List.rev !sent

let test_boxcar_fans_out_once () =
  with_boxcar (Boxcar.First_record (Time_ns.us 20)) (fun cluster sim db ->
      settle sim (Time_ns.ms 100);
      let batches = watch_batches cluster in
      let txn = Database.begin_txn db in
      Database.put db ~txn ~key:"k" ~value:"v";
      settle sim (Time_ns.ms 1);
      let g =
        Volume.pg_of_block (Database.volume db)
          (Database.block_of_key (Database.config db) "k")
      in
      let got = batches () in
      Alcotest.(check (list int)) "one batch per roster member, in roster order"
        (List.map (fun (_, a) -> Simnet.Addr.to_int a) (Volume.roster g))
        (List.map (fun (_, dst, _) -> Simnet.Addr.to_int dst) got);
      match got with
      | [] -> Alcotest.fail "nothing sent"
      | (at, _, lsns) :: rest ->
        check_int "one record" 1 (List.length lsns);
        List.iter
          (fun (at', _, lsns') ->
            check_int "same instant" at at';
            Alcotest.(check (list int)) "same records" lsns lsns')
          rest)

(* A Put's version is built once, by [Log_record.make]: the writer's cache
   and every full segment that coalesces the record cons that same object
   onto the key's chain.  A change that copies versions again fails the
   physical-equality checks. *)
let test_version_shared_end_to_end () =
  with_boxcar (Boxcar.First_record (Time_ns.us 20)) (fun cluster sim db ->
      settle sim (Time_ns.ms 100);
      let sent = ref None in
      Simnet.Net.set_recorder (Cluster.net cluster)
        (Some
           (fun phase ~src:_ ~dst:_ msg ->
             match (phase, msg) with
             | Simnet.Net.Sent, Protocol.Write_batch { records; _ } ->
               List.iter
                 (fun (r : Log_record.t) ->
                   match r.op with
                   | Log_record.Put { key = "k"; _ } -> sent := Some r
                   | _ -> ())
                 records
             | _ -> ()));
      let txn = Database.begin_txn db in
      Database.put db ~txn ~key:"k" ~value:"v";
      Database.commit db ~txn (fun _ -> ());
      settle sim (Time_ns.sec 2);
      let r =
        match !sent with Some r -> r | None -> Alcotest.fail "put never sent"
      in
      let block = Database.block_of_key (Database.config db) "k" in
      (match Buffer_cache.read (Database.cache db) block ~key:"k" with
      | Buffer_cache.Hit (v :: _) | Buffer_cache.Partial (v :: _) ->
        check_bool "writer cache head is the record's version" true (v == r.version)
      | Buffer_cache.Hit [] | Buffer_cache.Partial [] | Buffer_cache.Miss ->
        Alcotest.fail "writer cache lost the put");
      let g = Volume.pg_of_block (Database.volume db) block in
      let full =
        List.filter_map
          (fun (m : Quorum.Membership.member) ->
            match m.kind with
            | Quorum.Membership.Tail -> None
            | Quorum.Membership.Full ->
              Option.bind (Cluster.node_of_member cluster g.Volume.id m.id) (fun n ->
                  Storage.Storage_node.segment n g.Volume.id))
          (Cluster.members_of_pg cluster g.Volume.id)
      in
      check_bool "the group has full segments" true (full <> []);
      List.iter
        (fun seg ->
          match Storage.Block_store.versions (Storage.Segment.store seg) block ~key:"k" with
          | v :: _ ->
            check_bool "segment head is the record's version" true (v == r.version)
          | [] -> Alcotest.fail "a full segment never coalesced the put")
        full)

(* Destinations are the roster when the window flushes: a replacement that
   joins while the window is open gets the batch, a suspect removed while
   it is open gets none. *)
let test_boxcar_roster_at_flush () =
  with_boxcar (Boxcar.First_record (Time_ns.ms 50)) (fun cluster sim db ->
      settle sim (Time_ns.ms 100);
      let batches = watch_batches cluster in
      let txn = Database.begin_txn db in
      Database.put db ~txn ~key:"k" ~value:"v";
      let g =
        Volume.pg_of_block (Database.volume db)
          (Database.block_of_key (Database.config db) "k")
      in
      let suspect, suspect_addr = List.hd (Volume.roster g) in
      let replacement =
        match Cluster.start_replacement cluster g.Volume.id ~suspect with
        | Ok m -> m
        | Error e -> Alcotest.failf "start_replacement: %s" e
      in
      (match Cluster.finish_replacement cluster g.Volume.id ~suspect with
      | Ok () -> ()
      | Error e -> Alcotest.failf "finish_replacement: %s" e);
      settle sim (Time_ns.ms 100);
      let dsts = List.map (fun (_, dst, _) -> Simnet.Addr.to_int dst) (batches ()) in
      let roster = Volume.roster g in
      Alcotest.(check (list int)) "the roster at flush time"
        (List.map (fun (_, a) -> Simnet.Addr.to_int a) roster)
        dsts;
      let replacement_addr = List.assoc replacement roster in
      check_bool "replacement gets the batch" true
        (List.mem (Simnet.Addr.to_int replacement_addr) dsts);
      check_bool "removed suspect gets none" false
        (List.mem (Simnet.Addr.to_int suspect_addr) dsts))

(* Reads follow the full roster as membership changes: once a replacement
   commits, no block read goes to the removed suspect, and every one goes
   to a member of the new roster. *)
let test_reads_follow_roster () =
  with_cluster ~n_pgs:1 (fun cluster sim db ->
      check_bool "write acked" true (commit_now sim db "w");
      let reads = ref [] in
      let writer = Database.addr db in
      Simnet.Net.set_recorder (Cluster.net cluster)
        (Some
           (fun phase ~src ~dst msg ->
             match (phase, msg) with
             | Simnet.Net.Sent, Protocol.Read_block _ when Simnet.Addr.equal src writer ->
               reads := Simnet.Addr.to_int dst :: !reads
             | _ -> ()));
      (* Keys no one wrote: their blocks are not cached, so each read goes
         to storage. *)
      let read_fresh prefix =
        reads := [];
        for i = 0 to 19 do
          ignore (get_now sim db (Printf.sprintf "%s%d" prefix i) : string option)
        done;
        !reads
      in
      let g = Volume.find_pg (Database.volume db) (Storage.Pg_id.of_int 0) in
      let addrs () = List.map (fun (_, a) -> Simnet.Addr.to_int a) (Volume.full_roster g) in
      let before = read_fresh "a" in
      check_bool "reads issued" true (before <> []);
      let suspect, suspect_addr = List.hd (Volume.full_roster g) in
      (match Cluster.start_replacement cluster g.Volume.id ~suspect with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "start_replacement: %s" e);
      settle sim (Time_ns.sec 1);
      (match Cluster.finish_replacement cluster g.Volume.id ~suspect with
      | Ok () -> ()
      | Error e -> Alcotest.failf "finish_replacement: %s" e);
      check_bool "write acked after the change" true (commit_now sim db "w");
      let after = read_fresh "b" in
      check_bool "reads issued after the change" true (after <> []);
      check_bool "removed suspect gets no read" false
        (List.mem (Simnet.Addr.to_int suspect_addr) after);
      check_bool "every read goes to the new full roster" true
        (List.for_all (fun a -> List.mem a (addrs ())) after))

(* A boxcar armed before a crash must not flush from the recovered
   instance: its records were annulled by recovery. *)
let test_boxcar_dropped_at_crash () =
  with_boxcar (Boxcar.First_record (Time_ns.ms 50)) (fun cluster sim db ->
      settle sim (Time_ns.ms 100);
      let batches = watch_batches cluster in
      let txn = Database.begin_txn db in
      Database.put db ~txn ~key:"k" ~value:"v";
      let flush_at = Time_ns.add (Sim.now sim) (Time_ns.ms 50) in
      Database.crash db;
      let recovered = ref None in
      Database.recover db (fun r -> recovered := Some (Sim.now sim, Result.is_ok r));
      settle sim (Time_ns.ms 200);
      (match !recovered with
      | Some (at, ok) ->
        check_bool "recovered" true ok;
        check_bool "recovered before the stale timer fires" true (at < flush_at)
      | None -> Alcotest.fail "recovery never finished");
      check_int "no batch sent" 0 (List.length (batches ())))

(* A writer fenced out by a second instance recovers without a crash; the
   boxcars of its fenced generation must not swallow its new writes. *)
let test_boxcar_after_fenced_recovery () =
  with_boxcar (Boxcar.First_record (Time_ns.us 20)) (fun cluster sim db ->
      let commit = commit_now sim in
      check_bool "first commit" true (commit db "a");
      let rival =
        Database.create ~sim ~rng:(Rng.create 999) ~net:(Cluster.net cluster)
          ~addr:(Simnet.Addr.of_int 4242) ~volume:(Database.volume db)
          ~config:(Database.config db) ()
      in
      Database.recover rival (fun _ -> ());
      settle sim (Time_ns.sec 2);
      check_bool "fenced commit not acked" false (commit db "b");
      check_bool "fenced" false (Database.is_open db);
      (* The rival writes above the fenced record, so the next recovery's
         truncation range lies above every LSN already handed out.  (Its
         VCL stalls at the fenced record's LSN, which storage never got.) *)
      ignore (commit rival "r" : bool);
      let recovered = ref false in
      Database.recover db (fun r -> recovered := Result.is_ok r);
      settle sim (Time_ns.sec 2);
      check_bool "recovered" true !recovered;
      check_bool "commit after recovery" true (commit db "c"))

(* A writer fenced out by a rival that recovered and then crashed without
   writing: the fenced commit took LSNs above the rival's truncation
   range, which no segment ever saw, and the fenced writer's own recovery
   must annul them too. *)
let test_fenced_recovery_after_idle_rival () =
  with_boxcar (Boxcar.First_record (Time_ns.us 20)) (fun cluster sim db ->
      let commit = commit_now sim in
      check_bool "first commit" true (commit db "a");
      let rival =
        Database.create ~sim ~rng:(Rng.create 999) ~net:(Cluster.net cluster)
          ~addr:(Simnet.Addr.of_int 4242) ~volume:(Database.volume db)
          ~config:(Database.config db) ()
      in
      Database.recover rival (fun _ -> ());
      settle sim (Time_ns.sec 2);
      check_bool "fenced commit not acked" false (commit db "b");
      check_bool "fenced" false (Database.is_open db);
      Database.crash rival;
      let recovered = ref false in
      Database.recover db (fun r -> recovered := Result.is_ok r);
      settle sim (Time_ns.sec 2);
      check_bool "recovered" true !recovered;
      check_bool "commit after recovery" true (commit db "c");
      check_vopt "a survives" (Some "v") (get_now sim db "a");
      check_vopt "the fenced commit is annulled" None (get_now sim db "b"))

(* A writer fenced out with a storage read in flight never sees that read
   finish: once fenced it ignores every reply.  After it recovers, the GC
   floor it pushes (PGMRPL, §3.4) must still rise past that read's anchor,
   or storage stops collecting versions for good. *)
let test_fenced_read_does_not_pin_pgmrpl () =
  with_cluster (fun cluster sim db ->
      let commit = commit_now sim in
      (* The write that gets us fenced lands in one group; the read goes to
         the other, whose replies to the writer take 50 ms. *)
      let write_key = "a" in
      let read_key = key_outside db (pg_of db write_key) "cold" in
      check_bool "first commit" true (commit db write_key);
      slow_replies cluster (pg_of db read_key) ~dsts:[ Database.addr db ]
        (Time_ns.ms 50);
      (* The rival pushes no GC floor of its own, so only this writer's
         floor can raise the segments' PGMRPL. *)
      let rival =
        Database.create ~sim ~rng:(Rng.create 999) ~net:(Cluster.net cluster)
          ~addr:(Simnet.Addr.of_int 4242) ~volume:(Database.volume db)
          ~config:{ (Database.config db) with pgmrpl_interval = Time_ns.hours 1 }
          ()
      in
      Database.recover rival (fun _ -> ());
      settle sim (Time_ns.sec 2);
      let stale = Database.vdl db in
      let read_done = ref false in
      Database.get db ~key:read_key (fun _ -> read_done := true);
      check_bool "fenced commit not acked" false (commit db write_key);
      check_bool "fenced" false (Database.is_open db);
      check_bool "read never finished" false !read_done;
      (* As in the test above: the rival writes above the fenced record. *)
      ignore (commit rival "r" : bool);
      let recovered = ref false in
      Database.recover db (fun r -> recovered := Result.is_ok r);
      settle sim (Time_ns.sec 2);
      check_bool "recovered" true !recovered;
      check_bool "commit after recovery" true (commit db "c");
      settle sim (Time_ns.sec 1);
      List.iter
        (fun node ->
          if Storage.Storage_node.is_alive node then
            List.iter
              (fun s ->
                if not Lsn.(Storage.Segment.pgmrpl s > stale) then
                  Alcotest.failf "pg %d seg %d: PGMRPL %d still at the fenced read's %d"
                    (Storage.Pg_id.to_int (Storage.Segment.pg s))
                    (Quorum.Member_id.to_int (Storage.Segment.seg_id s))
                    (Lsn.to_int (Storage.Segment.pgmrpl s))
                    (Lsn.to_int stale))
              (Storage.Storage_node.segments node))
        (Cluster.storage_nodes cluster))

(* A storage read still in flight when the writer crashes must not
   complete a read of the recovered writer.  Replies from one group take
   500 ms; the writer reads key [a] there (its first storage read),
   crashes, recovers with 1 ms replies, and reads committed key [b] of the
   same group with 600 ms replies: [a]'s late image arrives first. *)
let test_stale_reply_after_recovery () =
  with_cluster (fun cluster sim db ->
      let b = "b" in
      let g = pg_of db b in
      let block k = Database.block_of_key (Database.config db) k in
      let rec find i =
        let k = "a" ^ string_of_int i in
        if Storage.Pg_id.equal (pg_of db k) g && not (Block_id.equal (block k) (block b))
        then k
        else find (i + 1)
      in
      let a = find 0 in
      check_bool "commit b" true (commit_now sim db b);
      let replies span = slow_replies cluster g ~dsts:[ Database.addr db ] span in
      replies (Time_ns.ms 500);
      Database.get db ~key:a (fun _ -> ());
      settle sim (Time_ns.ms 10);
      Database.crash db;
      replies (Time_ns.ms 1);
      let recovered = ref false in
      Database.recover db (fun r -> recovered := Result.is_ok r);
      settle sim (Time_ns.ms 100);
      check_bool "recovered" true !recovered;
      replies (Time_ns.ms 600);
      check_vopt "b reads its committed value" (Some "v") (get_now sim db b))

(* ---- replica semantics ---- *)

let replica_get sim replica key =
  let r = ref None in
  Replica.get replica ~key (fun x -> r := Some x);
  settle sim (Time_ns.sec 2);
  match !r with
  | Some (Ok v) -> v
  | Some (Error e) -> Alcotest.failf "replica get failed: %s" e
  | None -> Alcotest.fail "replica get never returned"

let test_replica_sees_committed_writes () =
  with_cluster (fun cluster sim db ->
      let replica = Cluster.add_replica cluster in
      let txn = Database.begin_txn db in
      Database.put db ~txn ~key:"r" ~value:"v1";
      Database.commit db ~txn (fun _ -> ());
      settle sim (Time_ns.sec 1);
      check_vopt "replica reads committed value" (Some "v1")
        (replica_get sim replica "r");
      check_bool "anchor advanced" true (Lsn.to_int (Replica.vdl_seen replica) > 0);
      check_bool "commit known via notifications" true
        (Replica.committed replica txn <> None))

let test_replica_does_not_see_uncommitted () =
  with_cluster (fun cluster sim db ->
      let replica = Cluster.add_replica cluster in
      let t0 = Database.begin_txn db in
      Database.put db ~txn:t0 ~key:"warm" ~value:"w";
      Database.commit db ~txn:t0 (fun _ -> ());
      settle sim (Time_ns.sec 1);
      (* An open transaction's writes stream nowhere useful: the replica
         must not show them. *)
      let t1 = Database.begin_txn db in
      Database.put db ~txn:t1 ~key:"u" ~value:"dirty";
      settle sim (Time_ns.sec 1);
      check_vopt "uncommitted invisible at replica" None
        (replica_get sim replica "u"))

let test_replica_stale_stream_dropped () =
  with_cluster (fun cluster sim db ->
      let replica = Cluster.add_replica cluster in
      let txn = Database.begin_txn db in
      Database.put db ~txn ~key:"k" ~value:"v";
      Database.commit db ~txn (fun _ -> ());
      settle sim (Time_ns.sec 1);
      (* Simulate a new writer generation: the replica adopts the higher
         epoch, then the old writer's stream must be dropped. *)
      let net = Cluster.net cluster in
      Simnet.Net.send net ~src:(Database.addr db) ~dst:(Replica.addr replica)
        (Storage.Protocol.Redo_stream
           {
             chunks = [];
             vdl = Database.vdl db;
             commits = [];
             volume_epoch = Quorum.Epoch.of_int 5;
             prev = Wal.Lsn.none;
           });
      settle sim (Time_ns.ms 100);
      let before = (Replica.metrics replica).Replica.stale_streams_dropped in
      Simnet.Net.send net ~src:(Database.addr db) ~dst:(Replica.addr replica)
        (Storage.Protocol.Redo_stream
           {
             chunks = [];
             vdl = Database.vdl db;
             commits = [];
             volume_epoch = Quorum.Epoch.of_int 2;
             prev = Wal.Lsn.none;
           });
      settle sim (Time_ns.ms 100);
      check_int "stale stream dropped" (before + 1)
        (Replica.metrics replica).Replica.stale_streams_dropped)

(* A stream message lost on the way (the writer -> replica link blocked
   for a while) leaves a gap: its records never reach the replica's cache
   and its commit never reaches its table.  The replica notices from the
   next message's [prev], stays at its old anchor, asks for a fresh
   hand-off and, once it has it, reads the value committed in the gap. *)
let test_replica_stream_gap () =
  with_cluster (fun cluster sim db ->
      let replica = Cluster.add_replica cluster in
      let write key v =
        let txn = Database.begin_txn db in
        Database.put db ~txn ~key ~value:v;
        Database.commit db ~txn (fun _ -> ())
      in
      write "k" "v1";
      settle sim (Time_ns.sec 1);
      check_vopt "replica caught up" (Some "v1") (replica_get sim replica "k");
      let net = Cluster.net cluster in
      let w = Database.addr db and r = Replica.addr replica in
      Simnet.Net.block net w r;
      write "k" "v2";
      settle sim (Time_ns.ms 50);
      Simnet.Net.unblock net w r;
      write "other" "x";
      settle sim (Time_ns.sec 1);
      check_vopt "value committed in the gap" (Some "v2")
        (replica_get sim replica "k"))

let test_replica_feedback_floor () =
  with_cluster (fun cluster sim db ->
      let replica = Cluster.add_replica cluster in
      let net = Cluster.net cluster in
      let txn = Database.begin_txn db in
      Database.put db ~txn ~key:"k" ~value:"v";
      Database.commit db ~txn (fun _ -> ());
      settle sim (Time_ns.sec 1);
      (* The replica reports a read floor at (or below) its anchor. *)
      check_bool "floor <= anchor" true
        Lsn.(Replica.read_floor replica <= Replica.vdl_seen replica);
      check_bool "floor positive after traffic" true
        (Lsn.to_int (Replica.read_floor replica) > 0);
      (* A storage read in flight holds the floor at its anchor.  Reads of
         [cold] go to a group whose replies take 500 ms; meanwhile commits
         to the other group move VDL, the replica's anchor and the floor
         it reports past the read's anchor. *)
      let cold = "cold" in
      let busy = key_outside db (pg_of db cold) "busy" in
      slow_replies cluster (pg_of db cold)
        ~dsts:[ Database.addr db; Replica.addr replica ]
        (Time_ns.ms 500);
      let pgmrpl_sent = ref Lsn.none in
      Simnet.Net.set_recorder net
        (Some
           (fun phase ~src:_ ~dst:_ msg ->
             match (phase, msg) with
             | Simnet.Net.Sent, Protocol.Pgmrpl_update { floor; _ } ->
               pgmrpl_sent := floor
             | _ -> ()));
      let commits_for span =
        let until = Time_ns.add (Sim.now sim) span in
        while Time_ns.compare (Sim.now sim) until < 0 do
          let txn = Database.begin_txn db in
          Database.put db ~txn ~key:busy ~value:"v";
          Database.commit db ~txn (fun _ -> ());
          settle sim (Time_ns.ms 20)
        done
      in
      let floor_while_reading name ~anchor ~read ~floor =
        let finished = ref false in
        read (fun _ -> finished := true);
        commits_for (Time_ns.ms 450);
        check_bool (name ^ ": read still in flight") false !finished;
        check_bool (name ^ ": anchors moved on") true
          Lsn.(Replica.vdl_seen replica > anchor && Database.vdl db > anchor);
        check_int (name ^ ": floor is the read's anchor") (Lsn.to_int anchor)
          (Lsn.to_int (floor ()));
        settle sim (Time_ns.sec 1);
        check_bool (name ^ ": read finished") true !finished
      in
      floor_while_reading "writer" ~anchor:(Database.vdl db)
        ~read:(fun k -> Database.get db ~key:cold k)
        ~floor:(fun () -> !pgmrpl_sent);
      check_int "writer: PGMRPL back at VDL" (Lsn.to_int (Database.vdl db))
        (Lsn.to_int !pgmrpl_sent);
      floor_while_reading "replica" ~anchor:(Replica.vdl_seen replica)
        ~read:(fun k -> Replica.get replica ~key:cold k)
        ~floor:(fun () -> Replica.read_floor replica);
      check_int "replica: floor back at its anchor"
        (Lsn.to_int (Replica.vdl_seen replica))
        (Lsn.to_int (Replica.read_floor replica));
      Simnet.Net.set_recorder net None)

(* Commit shipping: a tick's commit notices are the Commit records among
   the records it drains, so every write commit ships exactly once, in the
   first tick whose VDL covers its SCN, in SCN order, to every replica.  A
   read-only commit writes no record and never ships; half the load below
   is read-only. *)
let test_commits_ship_with_their_records () =
  with_cluster (fun cluster sim db ->
      ignore (Cluster.add_replica cluster : Replica.t);
      ignore (Cluster.add_replica cluster : Replica.t);
      (* Write commits (txn, scn), newest first. *)
      let written = ref [] in
      let shipped_upto = ref Lsn.none in
      let tick = ref None in
      let streams = ref 0 in
      let ships = Hashtbl.create 256 in
      let pairs = List.map (fun (txn, scn) -> (Txn_id.to_int txn, Lsn.to_int scn)) in
      Simnet.Net.set_recorder (Cluster.net cluster)
        (Some
           (fun phase ~src ~dst:_ msg ->
             match (phase, msg) with
             | Simnet.Net.Sent, Storage.Protocol.Redo_stream { vdl; commits; _ }
               when Simnet.Addr.equal src (Database.addr db) ->
               incr streams;
               let now = Sim.now sim in
               let expected =
                 match !tick with
                 | Some (at, expected) when Time_ns.compare at now = 0 -> expected
                 | Some _ | None ->
                   (* First message of this tick: the commits its drain
                      reached are those above the last tick's VDL. *)
                   let expected =
                     List.filter
                       (fun (_, scn) -> Lsn.(scn > !shipped_upto && scn <= vdl))
                       (List.rev !written)
                   in
                   List.iter
                     (fun (txn, _) ->
                       Hashtbl.replace ships txn
                         (1 + Option.value ~default:0 (Hashtbl.find_opt ships txn)))
                     expected;
                   shipped_upto := vdl;
                   tick := Some (now, expected);
                   expected
               in
               Alcotest.(check (list (pair int int)))
                 "stream commits = the tick's drained commit records" (pairs expected)
                 (pairs commits)
             | _ -> ()));
      let rng = Rng.create 11 in
      let rec step i =
        if i < 400 then begin
          let txn = Database.begin_txn db in
          let wrote = Rng.bernoulli rng 0.5 in
          if wrote then
            Database.put db ~txn ~key:(Printf.sprintf "k%d" (Rng.int rng 50)) ~value:"v";
          Database.commit db ~txn (fun _ -> ());
          (match Aurora_core.Txn_table.commit_scn (Database.txn_table db) txn with
          | Some scn when wrote -> written := (txn, scn) :: !written
          | None when not wrote -> ()
          | Some _ -> Alcotest.fail "a read-only commit left an SCN"
          | None -> Alcotest.fail "a write commit left no SCN");
          ignore
            (Sim.schedule sim ~delay:(Time_ns.us (Rng.int rng 1500)) (fun () ->
                 step (i + 1))
              : Sim.event_id)
        end
      in
      step 0;
      settle sim (Time_ns.sec 2);
      Simnet.Net.set_recorder (Cluster.net cluster) None;
      check_bool "streams observed" true (!streams > 0);
      List.iter
        (fun (txn, _) ->
          if Hashtbl.find_opt ships txn <> Some 1 then
            Alcotest.failf "write commit %d did not ship exactly once" (Txn_id.to_int txn))
        !written)

(* The redo stream is kept only for attached replicas: without one, no
   record is ever queued for it. *)
let test_no_replica_no_backlog () =
  with_cluster (fun _ sim db ->
      for i = 1 to 300 do
        let txn = Database.begin_txn db in
        Database.put db ~txn ~key:(Printf.sprintf "k%d" (i mod 50)) ~value:"v";
        Database.commit db ~txn (fun _ -> ());
        if i mod 50 = 0 then begin
          settle sim (Time_ns.ms 20);
          check_int "backlog while writing" 0 (Database.stream_backlog db)
        end
      done;
      settle sim (Time_ns.sec 1);
      check_int "backlog after settling" 0 (Database.stream_backlog db))

(* With no replica attached, the replication state keeps nothing per
   commit, write or read-only. *)
let test_no_replica_state_constant () =
  with_cluster (fun _ sim db ->
      let commits n =
        for i = 1 to n do
          let txn = Database.begin_txn db in
          if i mod 4 <> 0 then
            Database.put db ~txn ~key:(Printf.sprintf "k%d" (i mod 50)) ~value:"v";
          Database.commit db ~txn (fun _ -> ())
        done;
        settle sim (Time_ns.sec 1);
        Obj.reachable_words (Obj.repr (Database.replication_stream db))
      in
      let after_n = commits 200 in
      check_int "words after 2N commits = after N" after_n (commits 200))

(* A replica that attaches while another is streaming starts through its
   own hand-off: the commits made before it attached reach it, so it reads
   every committed key once one more commit anchors it. *)
let test_second_late_replica () =
  with_cluster (fun cluster sim db ->
      ignore (Cluster.add_replica cluster : Replica.t);
      let keys = List.init 10 (Printf.sprintf "e%d") in
      List.iter (fun key -> check_bool ("commit " ^ key) true (commit_now sim db key)) keys;
      let b = Cluster.add_replica cluster in
      check_bool "anchoring commit" true (commit_now sim db "anchor");
      List.iter (fun key -> check_vopt key (Some "v") (replica_get sim b key)) keys)

(* A writer commits k=v2 and crashes in that commit's ack callback, before
   the replication tick that would ship it, then recovers and commits 20
   more keys.  Recovery restarts the replica's stream through a hand-off
   of the recovered commits, and the first stream of the new volume epoch
   drops the replica's cache, so it reads v2 whether or not it had cached
   the block at v1. *)
let test_replica_after_crash_gap ~cached () =
  with_cluster (fun cluster sim db ->
      let replica = Cluster.add_replica cluster in
      let commit key value =
        let txn = Database.begin_txn db in
        Database.put db ~txn ~key ~value;
        Database.commit db ~txn (fun _ -> ());
        settle sim (Time_ns.sec 1)
      in
      commit "k" "v1";
      if cached then check_vopt "replica reads v1" (Some "v1") (replica_get sim replica "k");
      let txn = Database.begin_txn db in
      Database.put db ~txn ~key:"k" ~value:"v2";
      let acked = ref false in
      Database.commit db ~txn (fun r ->
          acked := r = Ok ();
          Database.crash db);
      settle sim (Time_ns.ms 100);
      check_bool "v2 acked, then the writer crashed" true (!acked && not (Database.is_open db));
      let recovered = ref false in
      Database.recover db (fun r -> recovered := Result.is_ok r);
      settle sim (Time_ns.sec 2);
      check_bool "recovered" true !recovered;
      for i = 1 to 20 do
        commit (Printf.sprintf "after%d" i) "v"
      done;
      check_int "replica reached the writer's VDL" (Lsn.to_int (Database.vdl db))
        (Lsn.to_int (Replica.vdl_seen replica));
      check_vopt "replica reads v2" (Some "v2") (replica_get sim replica "k"))

(* A replica attached to a writer that then writes nothing still gets its
   first message, and with it an anchor to read at, even when that message
   has nothing to carry: the writer's only transaction aborted.  The same
   holds after the writer recovers, though the allocator then restarts
   above a truncated range no record occupies. *)
let test_replica_of_idle_writer ~recovered () =
  with_cluster (fun cluster sim db ->
      let txn = Database.begin_txn db in
      Database.put db ~txn ~key:"idle" ~value:"v";
      Database.abort db ~txn;
      settle sim (Time_ns.sec 1);
      if recovered then begin
        Database.crash db;
        let ok = ref false in
        Database.recover db (fun r -> ok := Result.is_ok r);
        settle sim (Time_ns.sec 1);
        check_bool "recovered" true !ok
      end;
      let replica = Cluster.add_replica cluster in
      settle sim (Time_ns.ms 100);
      check_bool "the writer's VDL is set" false (Lsn.is_none (Database.vdl db));
      check_int "anchored at the writer's VDL" (Lsn.to_int (Database.vdl db))
        (Lsn.to_int (Replica.vdl_seen replica));
      check_vopt "replica reads the aborted key" None (replica_get sim replica "idle"))

(* A replica attached after 500 committed transactions gets only the
   stream from that point on, and still reads every key's latest committed
   value: older blocks come from storage at its VDL.  It attaches just
   before a replication tick, right after a write to "hot" that is still in
   flight, and reads "hot" at once: an anchor below that write would cache
   the block without it for good, since the stream never carries it.  It
   keeps reading while the writes continue, so blocks it cached early must
   keep up through the stream alone. *)
let test_late_replica_reads_latest () =
  with_cluster (fun cluster sim db ->
      let latest = Hashtbl.create 64 in
      let acked = ref 0 in
      let rng = Rng.create 5 in
      let write ~key value =
        let txn = Database.begin_txn db in
        Database.put db ~txn ~key ~value;
        (* SCNs follow issue order, so the last value issued is the latest. *)
        Hashtbl.replace latest key value;
        Database.commit db ~txn (function Ok () -> incr acked | Error _ -> ())
      in
      let rec writes i n k =
        if i <= n then begin
          write ~key:(Printf.sprintf "late%d" (Rng.int rng 40)) (Printf.sprintf "v%d" i);
          ignore
            (Sim.schedule sim ~delay:(Time_ns.us 700) (fun () -> writes (i + 1) n k)
              : Sim.event_id)
        end
        else k ()
      in
      let replica = ref None in
      let attach () =
        write ~key:"hot" "final";
        check_int "no backlog before any replica" 0 (Database.stream_backlog db);
        let r = Cluster.add_replica cluster in
        replica := Some r;
        let reads = ref 0 in
        Sim.every sim ~interval:(Time_ns.us 100) (fun () ->
            incr reads;
            Replica.get r ~key:(if !reads mod 2 = 0 then "hot" else Printf.sprintf "late%d" (Rng.int rng 40))
              (fun _ -> ());
            !acked < 601);
        writes 501 600 (fun () -> ())
      in
      writes 1 500 (fun () ->
          let tick = (Database.config db).Database.replication_interval in
          let next_tick = (Sim.now sim / tick + 1) * tick in
          ignore (Sim.schedule_at sim ~at:(next_tick - Time_ns.us 30) attach : Sim.event_id));
      settle sim (Time_ns.sec 3);
      check_int "every commit acknowledged" 601 !acked;
      let replica = Option.get !replica in
      Hashtbl.iter
        (fun key value ->
          check_vopt ("latest " ^ key) (Some value) (replica_get sim replica key))
        latest)

let () =
  Alcotest.run "engine"
    [
      ( "writer",
        [
          Alcotest.test_case "read your own writes" `Slow test_read_your_own_writes;
          Alcotest.test_case "read from a commit ack" `Slow test_read_from_commit_ack;
          Alcotest.test_case "reads follow the roster" `Slow test_reads_follow_roster;
          Alcotest.test_case "abort invisible" `Slow test_abort_invisible;
          Alcotest.test_case "delete visible" `Slow test_delete_visible;
          Alcotest.test_case "read-only commit immediate" `Slow
            test_read_only_commit_immediate;
          Alcotest.test_case "writer map released" `Slow test_writer_map_released;
          Alcotest.test_case "snapshot anchoring" `Slow
            test_snapshot_does_not_see_later_commits;
          Alcotest.test_case "cache hit accounting" `Slow test_cache_hit_ratio_counts;
          Alcotest.test_case "boxcar packing metric" `Slow test_mean_batch_size_metric;
          Alcotest.test_case "stale read reply after recovery" `Slow
            test_stale_reply_after_recovery;
        ] );
      ( "boxcar",
        [
          Alcotest.test_case "one batch per roster member" `Slow
            test_boxcar_fans_out_once;
          Alcotest.test_case "roster taken at flush" `Slow
            test_boxcar_roster_at_flush;
          Alcotest.test_case "armed boxcar dropped at crash" `Slow
            test_boxcar_dropped_at_crash;
          Alcotest.test_case "fenced writer recovers and commits" `Slow
            test_boxcar_after_fenced_recovery;
          Alcotest.test_case "fenced read does not pin PGMRPL" `Slow
            test_fenced_read_does_not_pin_pgmrpl;
          Alcotest.test_case "fenced recovery after an idle rival" `Slow
            test_fenced_recovery_after_idle_rival;
          Alcotest.test_case "one version shared by cache and segments" `Slow
            test_version_shared_end_to_end;
        ] );
      ( "replica",
        [
          Alcotest.test_case "sees committed writes" `Slow
            test_replica_sees_committed_writes;
          Alcotest.test_case "blind to uncommitted" `Slow
            test_replica_does_not_see_uncommitted;
          Alcotest.test_case "drops stale streams" `Slow
            test_replica_stale_stream_dropped;
          Alcotest.test_case "stream gap: fresh hand-off" `Slow
            test_replica_stream_gap;
          Alcotest.test_case "feedback floor" `Slow test_replica_feedback_floor;
          Alcotest.test_case "commits ship with their records" `Slow
            test_commits_ship_with_their_records;
          Alcotest.test_case "no replica, no stream backlog" `Slow
            test_no_replica_no_backlog;
          Alcotest.test_case "late replica reads latest values" `Slow
            test_late_replica_reads_latest;
          Alcotest.test_case "no replica, constant stream state" `Slow
            test_no_replica_state_constant;
          Alcotest.test_case "second late replica gets its hand-off" `Slow
            test_second_late_replica;
          Alcotest.test_case "crash gap: cached block" `Slow
            (test_replica_after_crash_gap ~cached:true);
          Alcotest.test_case "crash gap: uncached block" `Slow
            (test_replica_after_crash_gap ~cached:false);
          Alcotest.test_case "replica of an idle writer reads" `Slow
            (test_replica_of_idle_writer ~recovered:false);
          Alcotest.test_case "replica of a recovered idle writer" `Slow
            (test_replica_of_idle_writer ~recovered:true);
        ] );
    ]
