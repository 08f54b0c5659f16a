(* Read-path golden: a seeded 2-PG cluster with two read replicas, a
   16-block writer cache and 512 data blocks, so the writer serves reads
   from full cache hits, from blind-write (partial) blocks and from
   storage, and each replica (its cache holds 128 blocks) both hits and
   misses.  Prints, in simulated-time order, every writer and replica
   [get] result (including a transaction reading its own uncommitted
   writes), every read floor a replica reports and every PGMRPL floor the
   writer sends, then each side's read counters.  test/read_path/dune
   diffs the output against read_path.txt. *)
open Simcore
open Wal
module Database = Aurora_core.Database
module Replica = Aurora_core.Replica
module Protocol = Storage.Protocol
module Cluster = Harness.Cluster

let seed = 11
let n_keys = 300
let steps = 200

(* Writer transactions start every [step_ms]: not a divisor of the 100 ms
   feedback or 200 ms PGMRPL cadence. *)
let step_ms = 7

let () =
  let db_config =
    { Database.default_config with n_blocks = 512; cache_capacity = 16 }
  in
  let cluster =
    (* Every link at inter-AZ latency: a replica's read then lasts long
       enough to see its anchor move, so some floors it reports sit
       below the anchor. *)
    let d = Cluster.default_config in
    Cluster.create
      { d with seed; n_pgs = 2; db_config; intra_az_latency = d.inter_az_latency }
  in
  let sim = Cluster.sim cluster and db = Cluster.db cluster in
  (* Replicas start off the writer's 5 ms stream cadence, so a floor
     report can land while a read issued before the last stream batch is
     still in flight. *)
  Cluster.run_for cluster (Time_ns.us 1300);
  let replicas = [ Cluster.add_replica cluster; Cluster.add_replica cluster ] in
  let out = Buffer.create 65536 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string out (Printf.sprintf "%d " (Sim.now sim));
        Buffer.add_string out s;
        Buffer.add_char out '\n')
      fmt
  in
  Simnet.Net.set_recorder (Cluster.net cluster)
    (Some
       (fun phase ~src ~dst msg ->
         match (phase, msg) with
         | Simnet.Net.Sent, Protocol.Replica_feedback { read_floor; _ } ->
           let anchor =
             List.find (fun r -> Simnet.Addr.equal (Replica.addr r) src) replicas
             |> Replica.vdl_seen
           in
           line "feedback %d floor %d anchor %d" (Simnet.Addr.to_int src)
             (Lsn.to_int read_floor) (Lsn.to_int anchor)
         | Simnet.Net.Sent, Protocol.Pgmrpl_update { pg; floor; _ } ->
           line "pgmrpl pg %d to %d floor %d vdl %d"
             (Storage.Pg_id.to_int pg) (Simnet.Addr.to_int dst)
             (Lsn.to_int floor) (Lsn.to_int (Database.vdl db))
         | _ -> ()));
  let rng = Rng.create seed in
  let key () = Printf.sprintf "k%04d" (Rng.int rng n_keys) in
  let show = function
    | Ok (Some v) -> v
    | Ok None -> "-"
    | Error e -> "error " ^ e
  in
  let get_id = ref 0 in
  let writer_get ?txn k =
    incr get_id;
    let id = !get_id in
    let who = match txn with Some t -> Txn_id.to_int t | None -> 0 in
    Database.get db ?txn ~key:k (fun r ->
        line "w get %d txn %d %s = %s" id who k (show r))
  in
  let replica_get r k =
    incr get_id;
    let id = !get_id in
    Replica.get r ~key:k (fun res ->
        line "r%d get %d %s = %s"
          (Simnet.Addr.to_int (Replica.addr r))
          id k (show res))
  in
  (* Open transactions carried across steps, so reads see uncommitted
     writes of others (invisible) and of their own (visible). *)
  let open_txns = ref [] in
  let last_written = ref (key ()) in
  for i = 1 to steps do
    if Database.is_open db then begin
      let txn = Database.begin_txn db in
      let k1 = key () and k2 = key () in
      last_written := k1;
      Database.put db ~txn ~key:k1 ~value:(Printf.sprintf "v%d" i);
      if Rng.int rng 4 = 0 then Database.delete db ~txn ~key:k2
      else Database.put db ~txn ~key:k2 ~value:(Printf.sprintf "u%d" i);
      writer_get ~txn k1;
      writer_get ~txn k2;
      writer_get k1;
      writer_get (key ());
      (match !open_txns with
      | old :: rest when Rng.int rng 2 = 0 ->
        writer_get ~txn:old (key ());
        if Rng.int rng 3 = 0 then Database.abort db ~txn:old
        else Database.commit db ~txn:old (fun _ -> ());
        open_txns := rest
      | _ -> ());
      if Rng.int rng 3 = 0 then open_txns := !open_txns @ [ txn ]
      else Database.commit db ~txn (fun _ -> ())
    end;
    (* Each replica reads every millisecond, alternating between the
       last key written and one at random. *)
    for ms = 1 to step_ms do
      Cluster.run_for cluster (Time_ns.ms 1);
      List.iter
        (fun r -> replica_get r (if ms mod 2 = 0 then !last_written else key ()))
        replicas
    done
  done;
  Cluster.run_for cluster (Time_ns.sec 1);
  Simnet.Net.set_recorder (Cluster.net cluster) None;
  print_string (Buffer.contents out);
  let m = Database.metrics db in
  Printf.printf "writer gets %d cache_hit_reads %d storage_reads %d\n"
    m.Database.gets m.Database.cache_hit_reads m.Database.storage_reads;
  List.iter
    (fun r ->
      let m = Replica.metrics r in
      Printf.printf "replica %d gets %d cache_hit_reads %d storage_reads %d\n"
        (Simnet.Addr.to_int (Replica.addr r))
        m.Replica.gets m.Replica.cache_hit_reads m.Replica.storage_reads)
    replicas
