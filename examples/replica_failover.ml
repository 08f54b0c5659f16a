(* Read replicas and failover (paper §3.2–3.4).

     dune exec examples/replica_failover.exe

   A read replica attaches to the same storage volume as the writer,
   consumes the physical redo stream (MTR chunks + VDL control records +
   commit notifications), serves snapshot reads anchored at its VDL view,
   and — when the writer dies — is promoted by running the §2.4 recovery
   procedure against the shared volume.  No acknowledged commit is lost,
   because durable state was never on the writer to begin with. *)

open Simcore
module Database = Aurora_core.Database
module Replica = Aurora_core.Replica
module Cluster = Harness.Cluster
module Txn_gen = Workload.Txn_gen

let () =
  let cluster = Cluster.create { Cluster.default_config with seed = 7 } in
  let sim = Cluster.sim cluster in
  let db = Cluster.db cluster in
  let replica = Cluster.add_replica cluster in
  Printf.printf "writer at n%d, replica at n%d (different AZ)\n"
    (Simnet.Addr.to_int (Database.addr db))
    (Simnet.Addr.to_int (Replica.addr replica));

  (* Drive a mixed workload and read from the replica concurrently. *)
  let gen =
    Txn_gen.create ~sim ~rng:(Rng.create 3) ~db
      ~profile:{ Txn_gen.default_profile with write_fraction = 0.8 } ()
  in
  Txn_gen.run_closed_loop gen ~clients:8
    ~think_time:(Distribution.constant (Time_ns.ms 1))
    ~duration:(Time_ns.sec 4);
  let replica_reads = ref 0 in
  Sim.every sim ~interval:(Time_ns.ms 5) (fun () ->
      if Time_ns.compare (Sim.now sim) (Time_ns.sec 4) < 0 then begin
        Replica.get replica ~key:(Printf.sprintf "key-%06d" (Rng.int (Cluster.rng cluster) 100))
          (fun r -> if Result.is_ok r then incr replica_reads);
        true
      end
      else false);
  Sim.run_until sim (Time_ns.sec 5);
  let rm = Replica.metrics replica in
  Printf.printf
    "writer acked %d commits; replica served %d reads, applied %d cached \
     records, stream lag p50=%s p99=%s\n"
    (Txn_gen.acked gen) !replica_reads rm.Replica.records_applied
    (Time_ns.to_string (Histogram.percentile rm.Replica.stream_lag 50.))
    (Time_ns.to_string (Histogram.percentile rm.Replica.stream_lag 99.));
  Printf.printf "replica read anchor (VDL seen): %d, writer VDL: %d\n"
    (Wal.Lsn.to_int (Replica.vdl_seen replica))
    (Wal.Lsn.to_int (Database.vdl db));

  (* Writer dies; replica takes over via crash recovery on the shared
     volume. *)
  print_endline "\n-- writer crashes; promoting the replica --";
  Database.crash db;
  Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.ms 200));
  let promoted = ref None in
  Replica.promote replica ~config:Cluster.default_config.Cluster.db_config
    (fun r -> promoted := Some r);
  Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.sec 30));
  let new_db, outcome =
    match !promoted with
    | Some (Ok (db, o)) -> (db, o)
    | Some (Error e) -> failwith ("promotion failed: " ^ e)
    | None -> failwith "promotion did not finish"
  in
  Printf.printf "promoted in %s; new writer open=%b, volume epoch=%d\n"
    (Time_ns.to_string outcome.Aurora_core.Recovery.duration)
    (Database.is_open new_db)
    (Quorum.Epoch.to_int (Aurora_core.Volume.volume_epoch (Database.volume new_db)));

  (* Audit durability through the failover. *)
  let lost = ref 0 in
  let checked =
    Txn_gen.audit gen
      ~get:(fun ~key cb -> Database.get new_db ~key cb)
      (fun ~key:_ _ -> incr lost)
  in
  Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.sec 10));
  Printf.printf "audited %d keys after failover: %d lost\n" checked !lost;
  if !lost > 0 then exit 1;
  print_endline "\nreplica_failover OK: promotion lost nothing.";
  (* The new writer keeps serving. *)
  let txn = Database.begin_txn new_db in
  Database.put new_db ~txn ~key:"post-failover" ~value:"works";
  let acked = ref false in
  Database.commit new_db ~txn (fun r -> acked := r = Ok ());
  Sim.run_until sim (Time_ns.add (Sim.now sim) (Time_ns.sec 2));
  Printf.printf "post-failover commit acked: %b\n" !acked
