open Simcore
open Quorum
module Protocol = Storage.Protocol
module Pg_id = Storage.Pg_id
module Database = Aurora_core.Database
module Replica = Aurora_core.Replica
module Volume = Aurora_core.Volume

type layout = V6 | Tiered | V3

type config = {
  seed : int;
  n_pgs : int;
  layout : layout;
  db_config : Database.config;
  storage_config : Storage.Storage_node.config;
  intra_az_latency : Distribution.t;
  inter_az_latency : Distribution.t;
  obs_sample_period : Time_ns.t;
  recorder_depth : int option;
}

let default_config =
  {
    seed = 42;
    n_pgs = 2;
    layout = V6;
    db_config = Database.default_config;
    storage_config = Storage.Storage_node.default_config;
    intra_az_latency = Distribution.lognormal ~median:(Time_ns.us 250) ~sigma:0.35;
    inter_az_latency = Distribution.lognormal ~median:(Time_ns.ms 1) ~sigma:0.35;
    obs_sample_period = Time_ns.ms 50;
    recorder_depth = None;
  }

type node_slot = {
  mutable node : Storage.Storage_node.t;
  mutable member : Membership.member;
}

(* One PG's quorum margins, memoized by [health_sample].  They are a pure
   function of the membership value (its proved rule and roster) and of the
   live member set, so they stay valid while both do. *)
type margins = {
  membership : Membership.t;
  live : Member_id.Set.t;
  write_margin : int;
  read_margin : int;
  az_plus_one : bool;
}

type pg_nodes = {
  mutable slots : node_slot list; (* current + in-flight replacement nodes *)
  mutable next_member_id : int;
  mutable margins : margins option;
}

type t = {
  cfg : config;
  sim : Sim.t;
  rng : Rng.t;
  net : Protocol.t Simnet.Net.t;
  s3 : Storage.S3.t;
  db : Database.t;
  obs : Obs.Ctx.t;
  rings : Recorder.Rings.t option;
  pg_nodes : pg_nodes Pg_id.Tbl.t;
  az_of : Az.t Simnet.Addr.Tbl.t;
  addr_alloc : Simnet.Addr.Allocator.t;
  mutable replica_list : Replica.t list;
}

let sim t = t.sim
let net t = t.net
let db t = t.db
let s3 t = t.s3
let config t = t.cfg
let rng t = t.rng
let obs t = t.obs
let recorder t = t.rings

let layout_members = function
  | V6 -> Layout.aurora_v6 ()
  | Tiered -> Layout.aurora_tiered ()
  | V3 -> Layout.three_copies ()

let layout_scheme = function
  | V6 -> Layout.scheme_4_of_6
  | Tiered -> Layout.scheme_tiered
  | V3 -> Layout.scheme_2_of_3

let register rings addr role =
  match rings with
  | Some r -> Recorder.Rings.register r ~node:(Simnet.Addr.to_int addr) ~role
  | None -> ()

let make_storage_node_raw ~sim ~rng ~net ~s3 ~storage_config ~addr_alloc
    ~az_of ~obs ~rings ~az =
  let addr = Simnet.Addr.Allocator.take addr_alloc in
  Simnet.Addr.Tbl.replace az_of addr az;
  register rings addr Recorder.Event.Storage;
  Storage.Storage_node.create ~sim ~rng:(Rng.split rng) ~net ~addr ~s3
    ~config:storage_config ~obs
    ~obs_labels:[ ("az", Printf.sprintf "az%d" (Az.to_int az + 1)) ]
    ?rings ()

let make_storage_node t ~az =
  make_storage_node_raw ~sim:t.sim ~rng:t.rng ~net:t.net ~s3:t.s3
    ~storage_config:t.cfg.storage_config ~addr_alloc:t.addr_alloc
    ~az_of:t.az_of ~obs:t.obs ~rings:t.rings ~az

(* ---- cluster health probe (feeds Obs.Health each sampler tick) ---- *)

let popcount =
  let rec go acc v = if v = 0 then acc else go (acc + (v land 1)) (v lsr 1) in
  fun v -> go 0 v

(* Fewest additional healthy-member losses that break [q]; -1 when [q] is
   already unsatisfiable on [healthy].  Member counts are <= ~7 even during
   membership transitions, so exhaustive subset enumeration is cheap —
   the same argument the paper makes for quorum-set safety checking. *)
let quorum_margin q healthy =
  if not (Quorum_set.satisfied q healthy) then -1
  else begin
    let arr = Array.of_seq (Member_id.Set.to_seq healthy) in
    let n = Array.length arr in
    let best = ref (n + 1) in
    for mask = 1 to (1 lsl n) - 1 do
      let c = popcount mask in
      if c < !best then begin
        let remaining = ref healthy in
        for i = 0 to n - 1 do
          if mask land (1 lsl i) <> 0 then
            remaining := Member_id.Set.remove arr.(i) !remaining
        done;
        if not (Quorum_set.satisfied q !remaining) then best := c
      end
    done;
    if !best > n then n else !best - 1
  end

(* §2.1's durability target: data survives the loss of one whole AZ plus
   one more node.  True iff, for every AZ of the group's roster and every
   single survivor beyond it, the read quorum is still satisfiable on what
   remains. *)
let az_plus_one_ok read_q members healthy =
  let azs =
    List.sort_uniq Az.compare
      (List.map (fun (m : Membership.member) -> m.az) members)
  in
  List.for_all
    (fun az ->
      let survivors =
        List.fold_left
          (fun acc (m : Membership.member) ->
            if Az.equal m.az az || not (Member_id.Set.mem m.id healthy) then acc
            else Member_id.Set.add m.id acc)
          Member_id.Set.empty members
      in
      (not (Member_id.Set.is_empty survivors))
      && Member_id.Set.for_all
           (fun x ->
             Quorum_set.satisfied read_q (Member_id.Set.remove x survivors))
           survivors)
    azs

(* A transition always builds a new membership value, so physical equality
   is the epoch check. *)
let margins pgn membership ~healthy =
  match pgn.margins with
  | Some m when m.membership == membership && Member_id.Set.equal m.live healthy
    ->
    m
  | _ ->
    let rule = Membership.rule membership in
    let m =
      {
        membership;
        live = healthy;
        write_margin = quorum_margin rule.Quorum_set.Rule.write healthy;
        read_margin = quorum_margin rule.Quorum_set.Rule.read healthy;
        az_plus_one =
          az_plus_one_ok rule.Quorum_set.Rule.read
            (Membership.members membership) healthy;
      }
    in
    pgn.margins <- Some m;
    m

let health_sample t ~at =
  let consistency = Database.consistency t.db in
  let volume = Database.volume t.db in
  let pgs =
    Pg_id.Tbl.fold (fun pg pgn acc -> (pg, pgn) :: acc) t.pg_nodes []
    |> List.sort (fun (a, _) (b, _) -> Pg_id.compare a b)
    |> List.map (fun (pg, pgn) ->
           let g = Volume.find_pg volume pg in
           let healthy =
             List.fold_left
               (fun acc s ->
                 if Storage.Storage_node.is_alive s.node then
                   Member_id.Set.add s.member.Membership.id acc
                 else acc)
               Member_id.Set.empty pgn.slots
           in
           let covers =
             Aurora_core.Consistency.covers consistency ~pg
               ~lsn:(Aurora_core.Consistency.pgcl consistency pg)
           in
           let ack_current =
             Member_id.Set.fold
               (fun id n -> if covers id then n + 1 else n)
               healthy 0
           in
           let m = margins pgn g.Volume.membership ~healthy in
           {
             Obs.Health.pg = Pg_id.to_int pg;
             total = List.length pgn.slots;
             reachable = Member_id.Set.cardinal healthy;
             ack_current;
             write_margin = m.write_margin;
             read_margin = m.read_margin;
             az_plus_one = m.az_plus_one;
             epoch = Epoch.to_int (Membership.epoch g.Volume.membership);
           })
  in
  let vdl_lsn = Database.vdl t.db in
  let vdl = Wal.Lsn.to_int vdl_lsn in
  let vcl = Wal.Lsn.to_int (Database.vcl t.db) in
  let max_lag =
    List.fold_left
      (fun acc r -> max acc (Wal.Lsn.diff vdl_lsn (Replica.vdl_seen r)))
      0 t.replica_list
  in
  {
    Obs.Health.at;
    pgs;
    volume =
      {
        Obs.Health.vdl_vcl_gap = vcl - vdl;
        commit_queue_depth = Database.commit_queue_depth t.db;
        max_replica_lag = max_lag;
      };
  }

let min_write_margin (s : Obs.Health.sample) =
  List.fold_left
    (fun acc (p : Obs.Health.pg_sample) -> min acc p.write_margin)
    max_int s.pgs
  |> fun m -> if m = max_int then 0 else m

let install_observability t =
  let reg = Obs.Ctx.registry t.obs in
  let series = Obs.Ctx.series t.obs in
  let health = Obs.Ctx.health t.obs in
  let on_last f default () =
    match Obs.Health.last health with None -> default | Some s -> f s
  in
  Obs.Registry.gauge_fn reg "health_write_available"
    (on_last
       (fun s -> if Obs.Health.sample_write_available s then 1. else 0.)
       1.);
  Obs.Registry.gauge_fn reg "health_min_write_margin"
    (on_last (fun s -> float_of_int (min_write_margin s)) 0.);
  Obs.Registry.gauge_fn reg "health_az_plus_one"
    (on_last
       (fun s ->
         if List.for_all (fun (p : Obs.Health.pg_sample) -> p.az_plus_one) s.pgs
         then 1.
         else 0.)
       1.);
  Obs.Registry.gauge_fn reg "health_vdl_vcl_gap"
    (on_last (fun s -> float_of_int s.volume.Obs.Health.vdl_vcl_gap) 0.);
  Obs.Registry.gauge_fn reg "health_commit_queue_depth" (fun () ->
      float_of_int (Database.commit_queue_depth t.db));
  Obs.Registry.gauge_fn reg "health_max_replica_lag"
    (on_last (fun s -> float_of_int s.volume.Obs.Health.max_replica_lag) 0.);
  (* Default time-series channels: throughput rates, commit-latency
     percentiles, and the health gauges just registered. *)
  Obs.Series.track_counter series "db_txns_committed";
  Obs.Series.track_counter series "db_records_written";
  Obs.Series.track_histogram series ~pct:50. "db_commit_latency_ns";
  Obs.Series.track_histogram series ~pct:99. "db_commit_latency_ns";
  Obs.Series.track_gauge series "health_write_available";
  Obs.Series.track_gauge series "health_min_write_margin";
  Obs.Series.track_gauge series "health_az_plus_one";
  Obs.Series.track_gauge series "health_vdl_vcl_gap";
  Obs.Series.track_gauge series "health_commit_queue_depth";
  Obs.Series.track_gauge series "health_max_replica_lag";
  Sim.every t.sim ~interval:t.cfg.obs_sample_period (fun () ->
      let at = Sim.now t.sim in
      let s = health_sample t ~at in
      (* Health edges go on the writer's ring, next to the commits and
         membership changes that explain them. *)
      let edges = Obs.Health.observe health ~at s in
      (match t.rings with
      | Some r ->
        List.iter
          (fun (pg, edge) ->
            Recorder.Rings.note r
              ~node:(Simnet.Addr.to_int (Database.addr t.db))
              ~at (Recorder.Event.Health_edge { pg; edge }))
          edges
      | None -> ());
      Obs.Series.sample series ~at;
      true)

let create cfg =
  let sim = Sim.create () in
  let rng = Rng.create cfg.seed in
  let az_of = Simnet.Addr.Tbl.create 64 in
  let obs = Obs.Ctx.create () in
  let net =
    Simnet.Net.create ~sim ~rng:(Rng.split rng)
      ~default_latency:cfg.inter_az_latency ~obs ()
  in
  let s3 =
    Storage.S3.create ~sim
      ~latency:(Distribution.lognormal ~median:(Time_ns.ms 20) ~sigma:0.4)
      ~rng:(Rng.split rng)
  in
  let addr_alloc = Simnet.Addr.Allocator.create () in
  (* Writer lives in AZ1 (index 0). *)
  let db_addr = Simnet.Addr.Allocator.take addr_alloc in
  Simnet.Addr.Tbl.replace az_of db_addr (Az.of_int 0);
  let rings =
    Option.map (fun depth -> Recorder.Rings.create ~depth ()) cfg.recorder_depth
  in
  register rings db_addr Recorder.Event.Writer;
  (* Flight-recorder network hook: translate wire messages into per-node
     send/receive/drop events.  Installed only on a recording cluster, so
     a bare one makes no call per message phase.  Drops land on the
     *source* ring with their cause: that is how [explain] can say why a
     send never arrived. *)
  Option.iter
    (fun rings ->
      Simnet.Net.set_recorder net
        (Some
           (fun phase ~src ~dst msg ->
             let at = Sim.now sim in
             let info = Protocol.describe msg in
             let kind = info.Protocol.kind
             and pg = info.Protocol.pg
             and lsn_lo = info.Protocol.lsn_lo
             and lsn_hi = info.Protocol.lsn_hi in
             match phase with
             | Simnet.Net.Sent ->
               Recorder.Rings.note rings ~node:(Simnet.Addr.to_int src) ~at
                 (Recorder.Event.Send
                    { kind; peer = Simnet.Addr.to_int dst; pg; lsn_lo; lsn_hi })
             | Simnet.Net.Delivered ->
               Recorder.Rings.note rings ~node:(Simnet.Addr.to_int dst) ~at
                 (Recorder.Event.Receive
                    { kind; peer = Simnet.Addr.to_int src; pg; lsn_lo; lsn_hi })
             | Simnet.Net.Dropped cause ->
               let cause =
                 match cause with
                 | Simnet.Net.Down -> Recorder.Event.Down
                 | Simnet.Net.Blocked -> Recorder.Event.Blocked
                 | Simnet.Net.Partitioned -> Recorder.Event.Partitioned
                 | Simnet.Net.Random -> Recorder.Event.Random
               in
               Recorder.Rings.note rings ~node:(Simnet.Addr.to_int src) ~at
                 (Recorder.Event.Drop
                    {
                      kind;
                      peer = Simnet.Addr.to_int dst;
                      pg;
                      lsn_lo;
                      lsn_hi;
                      cause;
                    }))))
    rings;
  (* Latency by AZ distance. *)
  let intra = Some cfg.intra_az_latency and inter = Some cfg.inter_az_latency in
  Simnet.Net.set_latency_fn net (fun a b ->
      match Simnet.Addr.Tbl.find az_of a with
      | exception Not_found -> inter
      | za -> (
        match Simnet.Addr.Tbl.find az_of b with
        | zb when Az.equal za zb -> intra
        | _ | (exception Not_found) -> inter));
  let pg_nodes = Pg_id.Tbl.create cfg.n_pgs in
  (* Build PGs: nodes + segments + membership. *)
  let scheme = layout_scheme cfg.layout in
  let volume_groups =
    List.init cfg.n_pgs (fun i ->
        let pg_id = Pg_id.of_int i in
        let members = layout_members cfg.layout in
        let slots =
          List.map
            (fun (m : Membership.member) ->
              let node =
                make_storage_node_raw ~sim ~rng ~net ~s3
                  ~storage_config:cfg.storage_config ~addr_alloc ~az_of ~obs
                  ~rings ~az:m.az
              in
              let seg =
                Storage.Segment.create ~pg:pg_id ~seg:m.id ~kind:m.kind
              in
              Storage.Storage_node.add_segment node seg;
              Storage.Storage_node.start node;
              { node; member = m })
            members
        in
        Pg_id.Tbl.replace pg_nodes pg_id
          { slots; next_member_id = List.length members; margins = None };
        let membership = Membership.create ~scheme members in
        let addrs =
          List.map
            (fun slot ->
              (slot.member.Membership.id, Storage.Storage_node.addr slot.node))
            slots
        in
        (pg_id, membership, addrs))
  in
  let volume = Volume.create volume_groups in
  let db =
    Database.create ~sim ~rng:(Rng.split rng) ~net ~addr:db_addr ~volume
      ~config:cfg.db_config ~obs ?rings ()
  in
  Database.start db;
  let t =
    { cfg; sim; rng; net; s3; db; obs; rings; pg_nodes; az_of; addr_alloc;
      replica_list = [] }
  in
  install_observability t;
  t

let storage_nodes t =
  Pg_id.Tbl.fold
    (fun _ pgn acc -> List.map (fun s -> s.node) pgn.slots @ acc)
    t.pg_nodes []

let slot_of t pg member =
  match Pg_id.Tbl.find_opt t.pg_nodes pg with
  | None -> None
  | Some pgn ->
    List.find_opt
      (fun s -> Member_id.equal s.member.Membership.id member)
      pgn.slots

let node_of_member t pg member =
  match slot_of t pg member with Some s -> Some s.node | None -> None

let members_of_pg t pg =
  match Pg_id.Tbl.find_opt t.pg_nodes pg with
  | None -> []
  | Some pgn -> List.map (fun s -> s.member) pgn.slots

let add_replica t =
  let addr = Simnet.Addr.Allocator.take t.addr_alloc in
  (* Replicas live in AZ2 by default: failover survives the writer's AZ. *)
  Simnet.Addr.Tbl.replace t.az_of addr (Az.of_int 1);
  register t.rings addr Recorder.Event.Replica;
  let replica =
    Replica.create ~sim:t.sim ~rng:(Rng.split t.rng) ~net:t.net ~addr
      ~writer:t.db ~obs:t.obs ?rings:t.rings ()
  in
  Replica.start replica;
  Database.attach_replica t.db addr;
  t.replica_list <- replica :: t.replica_list;
  (* Per-replica lag timeline (E9's measurement). *)
  Obs.Series.track_histogram (Obs.Ctx.series t.obs)
    ~labels:[ ("node", string_of_int (Simnet.Addr.to_int addr)) ]
    ~pct:99. "replica_stream_lag_ns";
  replica

let replicas t = t.replica_list

(* ---- faults ---- *)

let crash_storage_node t pg member =
  match node_of_member t pg member with
  | Some node -> Storage.Storage_node.crash node
  | None -> ()

let restart_storage_node t pg member =
  match node_of_member t pg member with
  | Some node ->
    Storage.Storage_node.restart node;
    Database.broadcast_membership t.db pg
  | None -> ()

let destroy_storage_node t pg member =
  match node_of_member t pg member with
  | Some node -> Storage.Storage_node.destroy node
  | None -> ()

let fail_az t az =
  Pg_id.Tbl.iter
    (fun _ pgn ->
      List.iter
        (fun s ->
          if Az.equal s.member.Membership.az az then
            Storage.Storage_node.crash s.node)
        pgn.slots)
    t.pg_nodes

let restore_az t az =
  Pg_id.Tbl.iter
    (fun pg pgn ->
      List.iter
        (fun s ->
          if Az.equal s.member.Membership.az az then begin
            Storage.Storage_node.restart s.node;
            Database.broadcast_membership t.db pg
          end)
        pgn.slots)
    t.pg_nodes

let slow_storage_node t pg member factor =
  match node_of_member t pg member with
  | Some node ->
    Simnet.Net.set_node_slowdown t.net (Storage.Storage_node.addr node) factor
  | None -> ()

(* ---- partitions (the one nemesis the node up/down faults can't model:
   everyone stays alive, but message flow between two address sets stops) ---- *)

let addr_set l = List.fold_left (fun s a -> Simnet.Addr.Set.add a s)
    Simnet.Addr.Set.empty l

let partition t side_a side_b =
  Simnet.Net.partition t.net (addr_set side_a) (addr_set side_b)

let heal t side_a side_b =
  Simnet.Net.heal_partition t.net (addr_set side_a) (addr_set side_b)

(* All process addresses the cluster knows about (writer, storage nodes,
   replicas), sorted so set construction is independent of hash order. *)
let known_addrs t =
  Simnet.Addr.Tbl.fold (fun addr _ acc -> addr :: acc) t.az_of []
  |> List.sort Simnet.Addr.compare

let az_split t az =
  List.partition
    (fun addr ->
      match Simnet.Addr.Tbl.find_opt t.az_of addr with
      | Some z -> Az.equal z az
      | None -> false)
    (known_addrs t)

let partition_az t az =
  let inside, outside = az_split t az in
  partition t inside outside

let heal_az t az =
  let inside, outside = az_split t az in
  heal t inside outside

(* ---- membership changes (Figure 5 flow) ---- *)

let start_replacement t pg ~suspect =
  match (Pg_id.Tbl.find_opt t.pg_nodes pg, slot_of t pg suspect) with
  | None, _ | _, None -> Error "unknown protection group or member"
  | Some pgn, Some suspect_slot ->
    let m_id = Member_id.of_int pgn.next_member_id in
    let replacement =
      {
        Membership.id = m_id;
        az = suspect_slot.member.Membership.az;
        kind = suspect_slot.member.Membership.kind;
      }
    in
    let node = make_storage_node t ~az:replacement.Membership.az in
    let seg =
      Storage.Segment.create ~pg ~seg:m_id ~kind:replacement.Membership.kind
    in
    Storage.Storage_node.add_segment node seg;
    Storage.Storage_node.start node;
    (match
       Database.begin_segment_replacement t.db pg ~suspect ~replacement
         ~replacement_addr:(Storage.Storage_node.addr node)
     with
    | Error e -> Error e
    | Ok () ->
      pgn.next_member_id <- pgn.next_member_id + 1;
      pgn.slots <- pgn.slots @ [ { node; member = replacement } ];
      (* Bulk hydration from a healthy peer of the same (or full) kind,
         re-requested incrementally until the newcomer has caught up with
         the group's durable point — gossip alone only patches small holes
         and cannot outrun a hot write stream. *)
      let donor () =
        List.find_opt
          (fun s ->
            (not (Member_id.equal s.member.Membership.id suspect))
            && (not (Member_id.equal s.member.Membership.id m_id))
            && Storage.Storage_node.is_alive s.node
            && (replacement.Membership.kind = Membership.Tail
               || s.member.Membership.kind = Membership.Full))
          pgn.slots
      in
      let rec hydrate_until_caught_up () =
        if Storage.Storage_node.is_alive node then begin
          (match donor () with
          | Some d ->
            Storage.Storage_node.request_hydration node ~pg
              ~from:(Storage.Storage_node.addr d.node)
          | None -> ());
          let target = Aurora_core.Consistency.pgcl (Database.consistency t.db) pg in
          let scl =
            match Storage.Storage_node.segment node pg with
            | Some seg -> Storage.Segment.scl seg
            | None -> Wal.Lsn.none
          in
          if Wal.Lsn.(scl < target) then
            ignore
              (Sim.schedule t.sim ~delay:(Time_ns.ms 50) hydrate_until_caught_up)
        end
      in
      hydrate_until_caught_up ();
      Ok m_id)

let finish_replacement t pg ~suspect =
  match Pg_id.Tbl.find_opt t.pg_nodes pg with
  | None -> Error "unknown protection group"
  | Some pgn -> (
    match Database.commit_segment_replacement t.db pg ~suspect with
    | Error e -> Error e
    | Ok () ->
      pgn.slots <-
        List.filter
          (fun s -> not (Member_id.equal s.member.Membership.id suspect))
          pgn.slots;
      Ok ())

let revert_replacement t pg ~suspect =
  match Pg_id.Tbl.find_opt t.pg_nodes pg with
  | None -> Error "unknown protection group"
  | Some pgn ->
    let g = Volume.find_pg (Database.volume t.db) pg in
    let replacement_of_suspect =
      List.find_opt
        (fun (p : Membership.pending) -> Member_id.equal p.suspect suspect)
        (Membership.pendings g.Volume.membership)
    in
    (match Database.revert_segment_replacement t.db pg ~suspect with
    | Error e -> Error e
    | Ok () ->
      (match replacement_of_suspect with
      | Some pair ->
        pgn.slots <-
          List.filter
            (fun s ->
              if Member_id.equal s.member.Membership.id pair.replacement then begin
                Storage.Storage_node.destroy s.node;
                false
              end
              else true)
            pgn.slots
      | None -> ());
      Ok ())

let replacement_caught_up t pg ~replacement =
  match node_of_member t pg replacement with
  | None -> false
  | Some node -> (
    match Storage.Storage_node.segment node pg with
    | None -> false
    | Some seg ->
      let target = Aurora_core.Consistency.pgcl (Database.consistency t.db) pg in
      Wal.Lsn.(Storage.Segment.scl seg >= target))

let grow_volume t =
  let members = layout_members t.cfg.layout in
  let slots =
    List.map
      (fun (m : Membership.member) ->
        let node = make_storage_node t ~az:m.az in
        (m, node))
      members
  in
  let membership = Membership.create ~scheme:(layout_scheme t.cfg.layout) members in
  let addrs =
    List.map (fun (m, node) -> (m.Membership.id, Storage.Storage_node.addr node)) slots
  in
  let g =
    Volume.grow (Database.volume t.db)
      ~new_blocks_from:
        (Wal.Block_id.of_int t.cfg.db_config.Database.n_blocks)
      membership addrs
  in
  let pg_id = g.Volume.id in
  List.iter
    (fun ((m : Membership.member), node) ->
      Storage.Storage_node.add_segment node
        (Storage.Segment.create ~pg:pg_id ~seg:m.Membership.id ~kind:m.Membership.kind);
      Storage.Storage_node.start node)
    slots;
  Pg_id.Tbl.replace t.pg_nodes pg_id
    {
      slots = List.map (fun (m, node) -> { node; member = m }) slots;
      next_member_id = List.length members;
      margins = None;
    };
  Aurora_core.Consistency.register_pg (Database.consistency t.db) pg_id
    ~write_quorum:(Volume.rule g).Quorum.Quorum_set.Rule.write;
  Database.broadcast_membership t.db pg_id;
  pg_id

let change_scheme_3_of_4 t pg ~drop_az =
  match Pg_id.Tbl.find_opt t.pg_nodes pg with
  | None -> Error "unknown protection group"
  | Some pgn -> (
    let survivors =
      List.filter
        (fun s -> not (Az.equal s.member.Membership.az drop_az))
        pgn.slots
    in
    if List.length survivors <> 4 then
      Error "expected exactly four members outside the lost AZ"
    else begin
      let g = Volume.find_pg (Database.volume t.db) pg in
      match
        Membership.change_scheme g.Volume.membership
          ~scheme:Layout.scheme_3_of_4
          (List.map (fun s -> s.member) survivors)
      with
      | Error _ as e -> e
      | Ok m ->
        g.Volume.membership <- m;
        g.Volume.addr_of <-
          List.fold_left
            (fun acc s ->
              Member_id.Map.add s.member.Membership.id
                (Storage.Storage_node.addr s.node) acc)
            Member_id.Map.empty survivors;
        pgn.slots <- survivors;
        Aurora_core.Consistency.set_write_quorum (Database.consistency t.db) pg
          (Volume.rule g).Quorum.Quorum_set.Rule.write;
        Database.broadcast_membership t.db pg;
        Ok ()
    end)

let run_for t span = Sim.run_until t.sim (Time_ns.add (Sim.now t.sim) span)
