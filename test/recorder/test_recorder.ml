(* Tests for lib/recorder: qcheck event encode/decode round-trips, ring
   bounds and eviction, artifact JSON round-trips, the crash/recover
   fenced-writer event ordering, and a golden fixture pinning the bytes of
   [aurora_cli explain] for a curated vopr scenario. *)

module Event = Recorder.Event
module Rings = Recorder.Rings
module Correlate = Recorder.Correlate
module Artifact = Recorder.Artifact

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- event encode/decode ---- *)

(* Any event the constructors can express — ids and LSNs both in-range and
   -1 ("not applicable"), every message kind and drop cause. *)
let event_gen =
  let open QCheck.Gen in
  let id = frequency [ (5, int_range 0 99); (1, return (-1)) ] in
  let lsn = frequency [ (5, int_range 0 1_000_000); (1, return (-1)) ] in
  let kind = oneofl Event.all_msg_kinds in
  let cause = oneofl Event.all_drop_causes in
  let net ctor =
    let* kind = kind in
    let* peer = int_range 0 99 in
    let* pg = id in
    let* lsn_lo = lsn in
    let* lsn_hi = lsn in
    return (ctor kind peer pg lsn_lo lsn_hi)
  in
  oneof
    [
      net (fun kind peer pg lsn_lo lsn_hi ->
          Event.Send { kind; peer; pg; lsn_lo; lsn_hi });
      net (fun kind peer pg lsn_lo lsn_hi ->
          Event.Receive { kind; peer; pg; lsn_lo; lsn_hi });
      (let* cause = cause in
       net (fun kind peer pg lsn_lo lsn_hi ->
           Event.Drop { kind; peer; pg; lsn_lo; lsn_hi; cause }));
      (let* pg = id in
       let* scl = lsn in
       let* stored = int_range 0 50 in
       return (Event.Scl_advance { pg; scl; stored }));
      (let* pg = id in
       let* scl = lsn in
       let* filled = int_range 0 50 in
       return (Event.Gossip_fill { pg; scl; filled }));
      (let* pg = id in
       let* scl = lsn in
       return (Event.Hydrate_import { pg; scl }));
      map (fun vcl -> Event.Vcl_advance { vcl }) lsn;
      map (fun vdl -> Event.Vdl_advance { vdl }) lsn;
      (let* pg = id in
       let* lsn = lsn in
       return (Event.Lsn_alloc { pg; lsn }));
      (let* pg = id in
       let* lsn_lo = lsn in
       let* lsn_hi = lsn in
       return (Event.Boxcar_flush { pg; lsn_lo; lsn_hi }));
      (let* pg = id in
       let* pgcl = lsn in
       return (Event.Pgcl_advance { pg; pgcl }));
      (let* pg = id in
       let* floor = lsn in
       return (Event.Pgmrpl_advance { pg; floor }));
      (let* pg = id in
       let* volume_epoch = int_range 0 20 in
       let* membership_epoch = int_range 0 20 in
       return (Event.Epoch_change { pg; volume_epoch; membership_epoch }));
      (let* txn = int_range 0 9999 in
       let* scn = lsn in
       return (Event.Commit_submit { txn; scn }));
      (let* txn = int_range 0 9999 in
       let* scn = lsn in
       return (Event.Commit_ack { txn; scn }));
      return Event.Started;
      return Event.Crashed;
      return Event.Destroyed;
      map (fun epoch -> Event.Fenced { epoch }) (int_range 0 20);
      map (fun epoch -> Event.Recovery_start { epoch }) (int_range 0 20);
      (let* vcl = lsn in
       let* vdl = lsn in
       return (Event.Recovery_finish { vcl; vdl }));
      (let* pg = id in
       let* epoch = int_range 0 20 in
       let* phase = oneofl Event.all_membership_phases in
       return (Event.Membership_change { pg; epoch; phase }));
      (let* pg = id in
       let* edge = oneofl Obs.Health.all_edges in
       return (Event.Health_edge { pg; edge }));
    ]

let prop_event_roundtrip =
  QCheck.Test.make ~name:"event to_json/of_json is the identity" ~count:500
    (QCheck.make ~print:Event.describe event_gen)
    (fun ev ->
      match Event.of_json (Event.to_json ev) with
      | Ok ev' -> Event.equal ev ev'
      | Error _ -> false)

(* The artifact reader parses printed JSON, so the trip must also survive
   the text layer (and the "at" field an artifact splices in). *)
let prop_event_roundtrip_via_text =
  QCheck.Test.make ~name:"event survives print-then-parse JSON text"
    ~count:200
    (QCheck.make ~print:Event.describe event_gen)
    (fun ev ->
      let txt = Obs.Json.to_string (Event.to_json ev) in
      match Obs.Json.of_string txt with
      | Error _ -> false
      | Ok j -> (
        match Event.of_json j with
        | Ok ev' -> Event.equal ev ev'
        | Error _ -> false))

let test_event_names () =
  List.iter
    (fun k ->
      check_bool (Event.msg_kind_name k) true
        (Event.msg_kind_of_name (Event.msg_kind_name k) = Some k))
    Event.all_msg_kinds;
  List.iter
    (fun r ->
      check_bool (Event.role_name r) true
        (Event.role_of_name (Event.role_name r) = Some r))
    Event.all_roles;
  List.iter
    (fun c ->
      check_bool (Event.drop_cause_name c) true
        (Event.drop_cause_of_name (Event.drop_cause_name c) = Some c))
    Event.all_drop_causes;
  List.iter
    (fun p ->
      check_bool (Event.membership_phase_name p) true
        (Event.membership_phase_of_name (Event.membership_phase_name p) = Some p))
    Event.all_membership_phases;
  List.iter
    (fun e ->
      check_bool (Obs.Health.edge_name e) true
        (Obs.Health.edge_of_name (Obs.Health.edge_name e) = Some e))
    Obs.Health.all_edges

(* Each writer-moment event with one field missing or not an int decodes
   to an error, never an exception. *)
let test_malformed_writer_events () =
  let open Obs.Json in
  List.iter
    (fun fields ->
      let j = Obj fields in
      match Event.of_json j with
      | Ok ev -> Alcotest.failf "%s decoded as %s" (to_string j) (Event.describe ev)
      | Error _ -> ()
      | exception e ->
        Alcotest.failf "%s raised %s" (to_string j) (Printexc.to_string e))
    [
      [ ("ev", String "lsn_alloc"); ("pg", Int 0) ];
      [ ("ev", String "lsn_alloc"); ("pg", Int 0); ("lsn", String "7") ];
      [ ("ev", String "boxcar_flush"); ("pg", Int 0); ("lsn_lo", Int 3) ];
      [
        ("ev", String "boxcar_flush");
        ("pg", Float 0.5);
        ("lsn_lo", Int 3);
        ("lsn_hi", Int 4);
      ];
      [ ("ev", String "pgcl_advance"); ("pgcl", Int 9) ];
      [ ("ev", String "pgcl_advance"); ("pg", Int 0); ("pgcl", Null) ];
    ]

(* ---- explain targets ---- *)

let test_target_of_string () =
  List.iter
    (fun s ->
      match Artifact.target_of_string s with
      | Ok t -> Alcotest.failf "%S parsed as %s" s (Artifact.target_name t)
      | Error _ -> ())
    [ "pg:-1"; "lsn:-5"; "txn:x"; "pg:"; "foo:1"; "12abc" ];
  List.iter
    (fun (s, want) ->
      match Artifact.target_of_string s with
      | Ok t -> check_bool s true (t = want)
      | Error e -> Alcotest.failf "%S rejected: %s" s e)
    [
      ("400", Artifact.Lsn 400);
      ("lsn:400", Artifact.Lsn 400);
      ("txn:7", Artifact.Txn 7);
      ("pg:0", Artifact.Pg 0);
    ]

(* ---- rings ---- *)

let test_ring_depth_bounds () =
  check_bool "defaults in range" true
    (Rings.default_depth >= Rings.min_depth
    && Rings.default_depth <= Rings.max_depth);
  Alcotest.check_raises "below min"
    (Invalid_argument
       (Printf.sprintf "Recorder.Rings.create: depth %d outside [%d, %d]"
          (Rings.min_depth - 1) Rings.min_depth Rings.max_depth)) (fun () ->
      ignore (Rings.create ~depth:(Rings.min_depth - 1) () : Rings.t));
  Alcotest.check_raises "above max"
    (Invalid_argument
       (Printf.sprintf "Recorder.Rings.create: depth %d outside [%d, %d]"
          (Rings.max_depth + 1) Rings.min_depth Rings.max_depth)) (fun () ->
      ignore (Rings.create ~depth:(Rings.max_depth + 1) () : Rings.t))

let test_ring_eviction () =
  let rings = Rings.create ~depth:Rings.min_depth () in
  Rings.register rings ~node:3 ~role:Event.Storage;
  for i = 1 to Rings.min_depth + 4 do
    Rings.note rings ~node:3 ~at:i (Event.Vcl_advance { vcl = i })
  done;
  let snap = Rings.snapshot rings in
  match snap.Rings.nodes with
  | [ r ] ->
    check_int "node id" 3 r.Rings.node;
    check_bool "role kept" true (r.Rings.role = Event.Storage);
    check_int "capacity bounds retention" Rings.min_depth
      (List.length r.Rings.events);
    check_int "evicted counted" 4 r.Rings.evicted;
    (* Oldest events fell off the front; order is preserved. *)
    (match r.Rings.events with
    | (at0, Event.Vcl_advance { vcl }) :: _ ->
      check_int "oldest retained" 5 at0;
      check_int "payload matches" 5 vcl
    | _ -> Alcotest.fail "unexpected first event");
    (match List.rev r.Rings.events with
    | (at_last, _) :: _ ->
      check_int "newest retained" (Rings.min_depth + 4) at_last
    | [] -> Alcotest.fail "empty ring")
  | rings -> Alcotest.failf "expected one ring, got %d" (List.length rings)

(* Recording is opt-in per cluster: a default cluster has no recorder, and
   fresh rings hold nothing until a node registers or records. *)
let test_ring_disabled_is_noop () =
  check_bool "default config does not record" true
    (Option.is_none
       Harness.Cluster.default_config.Harness.Cluster.recorder_depth);
  let cluster = Harness.Cluster.create Harness.Cluster.default_config in
  Harness.Cluster.run_for cluster (Simcore.Time_ns.ms 50);
  check_bool "bare cluster has no recorder" true
    (Option.is_none (Harness.Cluster.recorder cluster));
  check_int "fresh rings are empty" 0
    (List.length (Rings.snapshot (Rings.create ())).Rings.nodes)

(* ---- artifact round-trip ---- *)

let test_artifact_roundtrip () =
  let rings = Rings.create () in
  Rings.register rings ~node:0 ~role:Event.Writer;
  Rings.register rings ~node:1 ~role:Event.Storage;
  Rings.note rings ~node:0 ~at:10
    (Event.Send
       { kind = Event.Write_batch; peer = 1; pg = 0; lsn_lo = 5; lsn_hi = 9 });
  Rings.note rings ~node:1 ~at:12
    (Event.Receive
       { kind = Event.Write_batch; peer = 0; pg = 0; lsn_lo = 5; lsn_hi = 9 });
  Rings.note rings ~node:1 ~at:13 (Event.Scl_advance { pg = 0; scl = 9; stored = 5 });
  Rings.note rings ~node:0 ~at:20
    (Event.Drop
       {
         kind = Event.Write_batch;
         peer = 1;
         pg = 0;
         lsn_lo = 9;
         lsn_hi = 11;
         cause = Event.Partitioned;
       });
  let net =
    {
      Artifact.sent = 4;
      delivered = 3;
      dropped_down = 0;
      dropped_blocked = 0;
      dropped_partition = 1;
      dropped_random = 0;
      links =
        [
          {
            Artifact.src = 0;
            dst = 1;
            l_sent = 4;
            l_delivered = 3;
            l_down = 0;
            l_blocked = 0;
            l_partition = 1;
            l_random = 0;
          };
        ];
    }
  in
  let a = Artifact.make ~snapshot:(Rings.snapshot rings) ~net () in
  let txt = Artifact.to_string a in
  (match Artifact.of_string txt with
  | Error e -> Alcotest.failf "artifact parse failed: %s" e
  | Ok a' ->
    check_string "byte-stable reprint" txt (Artifact.to_string a');
    check_int "rings survive" 2
      (List.length a'.Artifact.snapshot.Rings.nodes);
    check_bool "net survives" true (a'.Artifact.net = Some net));
  (* The drop's cause is visible in the explain text — the "why a send
     never arrived" satellite. *)
  let explained = Artifact.explain a (Artifact.Lsn 9) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  check_bool "drop cause surfaced" true (contains explained "drop(partitioned)");
  check_bool "per-link stats surfaced" true (contains explained "link n0->n1")

(* ---- crash/recover ordering across the live stack ---- *)

(* A writer crash + recovery must leave the writer's ring telling the §2.4
   story in order: Crashed, then Recovery_start (the epoch bump that
   changes the locks), then Recovery_finish with the recovered VCL/VDL,
   then Started — and the storage fleet must have recorded the new volume
   epoch being installed (the fence that locks out the old writer). *)
let test_crash_recover_ordering () =
  (* Max ring depth: the writer's ring sees every send/receive, and the
     lifecycle events from t=300ms must survive to the end of the run. *)
  let sc =
    Vopr.Scenario.make ~name:"recorder-crash-recover" ~rate:400.
      ~duration_ms:700 ~quiesce_ms:900 ~recorder_depth:Rings.max_depth
      [
        Vopr.Scenario.step (Vopr.Scenario.at_ms 300) Vopr.Scenario.Crash_writer;
        Vopr.Scenario.step (Vopr.Scenario.at_ms 450)
          Vopr.Scenario.Recover_writer;
      ]
  in
  let o = Vopr.Runner.run ~seed:11 ~record_always:true sc in
  check_bool "run is clean" false (Vopr.Runner.failed o);
  let a =
    match o.Vopr.Runner.recorder with
    | Some a -> a
    | None -> Alcotest.fail "no recorder artifact"
  in
  let writer_ring =
    match
      List.find_opt
        (fun (r : Rings.node_ring) -> r.Rings.role = Event.Writer)
        a.Artifact.snapshot.Rings.nodes
    with
    | Some r -> r
    | None -> Alcotest.fail "no writer ring"
  in
  let index p =
    let rec go i = function
      | [] -> None
      | (_, ev) :: rest -> if p ev then Some i else go (i + 1) rest
    in
    go 0 writer_ring.Rings.events
  in
  let must what p =
    match index p with
    | Some i -> i
    | None -> Alcotest.failf "writer ring has no %s event" what
  in
  let crashed = must "Crashed" (fun ev -> ev = Event.Crashed) in
  let rec_start =
    must "Recovery_start" (function Event.Recovery_start _ -> true | _ -> false)
  in
  let rec_finish =
    must "Recovery_finish" (function
      | Event.Recovery_finish _ -> true
      | _ -> false)
  in
  ignore (must "a Started" (fun ev -> ev = Event.Started));
  (* The second Started (post-recovery) must follow Recovery_finish. *)
  let started_after_finish =
    let rec go i seen = function
      | [] -> seen
      | (_, Event.Started) :: rest when i > rec_finish -> go (i + 1) true rest
      | _ :: rest -> go (i + 1) seen rest
    in
    go 0 false writer_ring.Rings.events
  in
  check_bool "Crashed before Recovery_start" true (crashed < rec_start);
  check_bool "Recovery_start before Recovery_finish" true
    (rec_start < rec_finish);
  check_bool "Started follows Recovery_finish" true started_after_finish;
  (* Recovery_finish carries the recovered durability points. *)
  (match List.nth writer_ring.Rings.events rec_finish with
  | _, Event.Recovery_finish { vcl; vdl } ->
    check_bool "recovered VCL positive" true (vcl > 0);
    check_bool "recovered VDL sane" true (vdl >= 0 && vdl <= vcl)
  | _ -> assert false);
  (* The fence: some storage node recorded the bumped volume epoch. *)
  let fence_epoch =
    match List.nth writer_ring.Rings.events rec_start with
    | _, Event.Recovery_start { epoch } -> epoch
    | _ -> assert false
  in
  let storage_saw_fence =
    List.exists
      (fun (r : Rings.node_ring) ->
        r.Rings.role = Event.Storage
        && List.exists
             (fun (_, ev) ->
               match ev with
               | Event.Epoch_change { volume_epoch; _ } ->
                 volume_epoch >= fence_epoch
               | _ -> false)
             r.Rings.events)
      a.Artifact.snapshot.Rings.nodes
  in
  check_bool "storage installed the fencing epoch" true storage_saw_fence

(* ---- membership changes on the writer ring ---- *)

(* Figure 5's two epoch increments, begin then commit, each leave one
   Membership_change on the writer's ring, and [explain pg:N] shows both. *)
let test_membership_change_events () =
  let module Cluster = Harness.Cluster in
  (* Rings deep enough that nothing a short run records is evicted. *)
  let cluster =
    Cluster.create
      { Cluster.default_config with seed = 3; recorder_depth = Some 4096 }
  in
  Cluster.run_for cluster (Simcore.Time_ns.ms 100);
  let pg = Storage.Pg_id.of_int 1 in
  let suspect = (List.hd (Cluster.members_of_pg cluster pg)).Quorum.Membership.id in
  (match Cluster.start_replacement cluster pg ~suspect with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "start_replacement: %s" e);
  Cluster.run_for cluster (Simcore.Time_ns.ms 200);
  (match Cluster.finish_replacement cluster pg ~suspect with
  | Ok () -> ()
  | Error e -> Alcotest.failf "finish_replacement: %s" e);
  Cluster.run_for cluster (Simcore.Time_ns.ms 100);
  let rings = Option.get (Cluster.recorder cluster) in
  let a = Artifact.make ~snapshot:(Rings.snapshot rings) () in
  let changes =
    List.filter_map
      (fun (e : Correlate.entry) ->
        match e.Correlate.event with
        | Event.Membership_change { pg; epoch; phase } ->
          check_bool "noted on the writer ring" true (e.Correlate.role = Event.Writer);
          Some (pg, epoch, phase)
        | _ -> None)
      (Correlate.entries a.Artifact.snapshot)
  in
  (match changes with
  | [ (1, e1, Event.Change_begun); (1, e2, Event.Change_committed) ] ->
    check_bool "each phase increments the membership epoch" true (e2 = e1 + 1)
  | _ ->
    Alcotest.failf "expected begun then committed on pg1, got [%s]"
      (String.concat "; "
         (List.map
            (fun (pg, epoch, phase) ->
              Printf.sprintf "pg%d epoch=%d %s" pg epoch
                (Event.membership_phase_name phase))
            changes)));
  let explained = Artifact.explain a (Artifact.Pg 1) in
  let contains needle =
    let nh = String.length explained and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub explained i nn = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun phase ->
      let needle = "membership_change pg1 epoch=" in
      check_bool ("explain pg:1 shows " ^ phase) true
        (contains needle && contains (" " ^ phase ^ "\n")))
    [ "begun"; "committed" ]

(* ---- one recorder per cluster ---- *)

(* A recording cluster with a replica and an open-loop workload, stepped
   50 ms at a time by the returned [step]; [artifact] images its rings and
   net counters. *)
let recorded_run seed =
  let module Cluster = Harness.Cluster in
  let cluster =
    Cluster.create
      { Cluster.default_config with seed; recorder_depth = Some 256 }
  in
  ignore (Cluster.add_replica cluster : Aurora_core.Replica.t);
  let gen =
    Workload.Txn_gen.create ~sim:(Cluster.sim cluster)
      ~rng:(Simcore.Rng.create (seed + 1)) ~db:(Cluster.db cluster)
      ~profile:Workload.Txn_gen.default_profile ()
  in
  Workload.Txn_gen.run_open_loop gen ~rate_per_sec:1000.
    ~duration:(Simcore.Time_ns.ms 300);
  let step () = Cluster.run_for cluster (Simcore.Time_ns.ms 50) in
  let artifact () =
    let stats = Simnet.Net.stats (Cluster.net cluster) in
    Artifact.to_string
      (Artifact.make
         ~snapshot:(Rings.snapshot (Option.get (Cluster.recorder cluster)))
         ())
    ^ Printf.sprintf "sent %d delivered %d\n" stats.Simnet.Net.sent
        stats.Simnet.Net.delivered
  in
  (step, artifact)

let slices = 10

(* Two recording clusters stepped alternately in one process record
   exactly what each records alone: no ring is shared. *)
let test_clusters_interleaved () =
  let alone seed =
    let step, artifact = recorded_run seed in
    for _ = 1 to slices do step () done;
    artifact ()
  in
  let a_alone = alone 5 and b_alone = alone 6 in
  let step_a, artifact_a = recorded_run 5 and step_b, artifact_b = recorded_run 6 in
  for _ = 1 to slices do
    step_a ();
    step_b ()
  done;
  check_bool "the two runs differ" false (String.equal a_alone b_alone);
  check_string "first cluster's artifact" a_alone (artifact_a ());
  check_string "second cluster's artifact" b_alone (artifact_b ())

(* A vopr run after a recorded run, in the same process, gives the digest
   and artifact a fresh process gives ([fresh_*] are written by
   aurora_cli, see dune).  The earlier cluster records at the smallest
   depth, so a leaked depth would show in the artifact. *)
let test_vopr_after_recorded_run () =
  let module Cluster = Harness.Cluster in
  let cluster =
    Cluster.create
      { Cluster.default_config with seed = 9; recorder_depth = Some Rings.min_depth }
  in
  Cluster.run_for cluster (Simcore.Time_ns.ms 100);
  let sc =
    match Vopr.Curated.find "writer-crash-recovery" with
    | Some sc -> sc
    | None -> Alcotest.fail "curated scenario missing"
  in
  let o = Vopr.Runner.run ~seed:1 ~record_always:true sc in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  check_string "digest" (read "fresh_writer_crash_recovery.digest")
    (Vopr.Runner.digest o ^ "\n");
  match o.Vopr.Runner.recorder with
  | Some a ->
    check_string "artifact" (read "fresh_writer_crash_recovery.artifact")
      (Artifact.to_string a)
  | None -> Alcotest.fail "no recorder artifact"

(* ---- golden explain fixture ---- *)

(* Pins the exact bytes of [aurora_cli explain 400] for the curated
   writer-crash-recovery scenario at seed 1.  Regenerate (after a
   deliberate format change) with:
     dune exec bin/aurora_cli.exe -- explain 400 \
       --scenario writer-crash-recovery --seed 1 \
       > test/recorder/explain_writer_crash_recovery.golden *)
let test_golden_explain () =
  let sc =
    match Vopr.Curated.find "writer-crash-recovery" with
    | Some sc -> sc
    | None -> Alcotest.fail "curated scenario missing"
  in
  let o = Vopr.Runner.run ~seed:1 ~record_always:true sc in
  let a =
    match o.Vopr.Runner.recorder with
    | Some a -> a
    | None -> Alcotest.fail "no recorder artifact"
  in
  let got = Artifact.explain a (Artifact.Lsn 400) in
  let want =
    In_channel.with_open_bin "explain_writer_crash_recovery.golden"
      In_channel.input_all
  in
  check_string "golden explain bytes" want got

(* ---- stage breakdown: replay equals live ---- *)

(* A commit_long-shaped cluster (2 PGs; 4 ops per txn, half of them
   writes, a tenth of the write txns one multi-block MTR; 2,000 txn/s)
   recording into rings deep enough that none wraps.  The stage
   timelines [explain] rebuilds from the rings' snapshot alone equal the
   live ledger's, record for record. *)
let test_replay_equals_live () =
  let cluster =
    Harness.Cluster.create
      {
        Harness.Cluster.default_config with
        seed = 5;
        n_pgs = 2;
        recorder_depth = Some Rings.max_depth;
      }
  in
  let sim = Harness.Cluster.sim cluster in
  let gen =
    Workload.Txn_gen.create ~sim ~rng:(Simcore.Rng.create 6)
      ~db:(Harness.Cluster.db cluster)
      ~profile:
        {
          Workload.Txn_gen.default_profile with
          ops_per_txn = 4;
          write_fraction = 0.5;
          mtr_fraction = 0.1;
        }
      ()
  in
  Workload.Txn_gen.run_open_loop gen ~rate_per_sec:2000.
    ~duration:(Simcore.Time_ns.ms 300);
  Simcore.Sim.run_until sim (Simcore.Time_ns.ms 600);
  let snapshot =
    match Harness.Cluster.recorder cluster with
    | Some rings -> Rings.snapshot rings
    | None -> Alcotest.fail "cluster is not recording"
  in
  List.iter
    (fun (n : Rings.node_ring) ->
      check_int (Printf.sprintf "n%d ring did not wrap" n.Rings.node) 0
        n.Rings.evicted)
    snapshot.Rings.nodes;
  let live =
    Obs.Commit_path.timelines
      (Obs.Ctx.commit_path (Harness.Cluster.obs cluster))
  in
  let committed =
    List.length
      (List.filter
         (fun (_, _, times) ->
           times.(Obs.Commit_path.stage_index Obs.Commit_path.Commit_acked) >= 0)
         live)
  in
  check_bool "hundreds of records, hundreds of commits" true
    (List.length live > 1000 && committed > 300);
  let render (lsn, pg, times) =
    Printf.sprintf "lsn %d pg%d [%s]" lsn pg
      (String.concat " " (Array.to_list (Array.map string_of_int times)))
  in
  let writer =
    Simnet.Addr.to_int (Aurora_core.Database.addr (Harness.Cluster.db cluster))
  in
  match Artifact.stage_timelines (Artifact.make ~snapshot ()) with
  | [ (node, replayed) ] ->
    check_int "the writer's ring" writer node;
    check_int "one replayed timeline per live record" (List.length live)
      (List.length replayed);
    List.iter2
      (fun l r -> check_string "replayed timeline = live timeline" (render l) (render r))
      live replayed
  | rings ->
    Alcotest.failf "expected the writer's ring alone, got %d" (List.length rings)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "recorder"
    [
      ( "event",
        [
          qc prop_event_roundtrip;
          qc prop_event_roundtrip_via_text;
          Alcotest.test_case "name tables invert" `Quick test_event_names;
          Alcotest.test_case "malformed writer events are errors" `Quick
            test_malformed_writer_events;
        ] );
      ( "rings",
        [
          Alcotest.test_case "depth bounds" `Quick test_ring_depth_bounds;
          Alcotest.test_case "eviction" `Quick test_ring_eviction;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_ring_disabled_is_noop;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "round-trip + explain" `Quick test_artifact_roundtrip;
          Alcotest.test_case "target_of_string" `Quick test_target_of_string;
        ] );
      ( "stack",
        [
          Alcotest.test_case "crash/recover fencing order" `Slow
            test_crash_recover_ordering;
          Alcotest.test_case "golden explain" `Slow test_golden_explain;
          Alcotest.test_case "stage replay equals live" `Slow
            test_replay_equals_live;
          Alcotest.test_case "membership change begun/committed" `Slow
            test_membership_change_events;
          Alcotest.test_case "two clusters stepped alternately" `Slow
            test_clusters_interleaved;
          Alcotest.test_case "vopr run after a recorded run" `Slow
            test_vopr_after_recorded_run;
        ] );
    ]
