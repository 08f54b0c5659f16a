(* Exclusive wall-time accounting for the traced pass, measured from outside
   the program through hooks it already exposes.

   - A [Sim.set_probe] hook times every event on {!Clock}.  Sim events never
     nest, so each event's time lands in exactly one row.
   - A [Net.set_recorder] hook tags the event delivering a message with the
     message's kind ([Protocol.describe]); the benchmark's arrival callbacks
     tag client events; an event nobody tags is a background timer.
   - The in-program [Perf.Probe] spans (enabled, but not installed on the
     sim) split storage apply out of disk-completion timers and consistency
     advance out of write-ack deliveries: each event's probe time is taken
     out of its row and reported as the probe's own row.

   Rows plus the sim loop plus unattributed time sum to the traced wall
   time; see [Cluster_bench]. *)

module Event = Recorder.Event

(* Handler rows, in output order; every other message kind is "other". *)
let handler_kinds =
  Event.
    [|
      Write_batch;
      Write_ack;
      Read_block;
      Read_reply;
      Gossip_pull;
      Gossip_reply;
      Pgmrpl_update;
      Redo_stream;
      Replica_feedback;
    |]

let slot_other = Array.length handler_kinds
let slot_timer = slot_other + 1
let slot_client = slot_timer + 1
let n_slots = slot_client + 1

let slot_of_kind (kind : Event.msg_kind) =
  let rec find i = if i = slot_other || handler_kinds.(i) = kind then i else find (i + 1) in
  find 0

let handler_names =
  Array.to_list (Array.map Event.msg_kind_name handler_kinds) @ [ "other" ]

(* Client API calls timed around the call itself (not exclusive rows: a
   callback running inside a call belongs to the call). *)
type api = Begin_txn | Put | Put_multi | Get | Commit | Replica_get

let api_index = function
  | Begin_txn -> 0
  | Put -> 1
  | Put_multi -> 2
  | Get -> 3
  | Commit -> 4
  | Replica_get -> 5

let api_names = [ "begin_txn"; "put"; "put_multi"; "get"; "commit"; "replica_get" ]

type t = {
  sim : Simcore.Sim.t;
  wall : int array;  (** Exclusive ns per slot. *)
  calls : int array;  (** Events per slot. *)
  mutable cur : int;
  mutable ev_start : int;
  mutable probe_at_start : int;
  mutable events_wall : int;
  mutable max_pending : int;
  api_wall : int array;
  api_calls : int array;
}

let probe_wall () =
  (Perf.Probe.stat Perf.Probe.Storage_apply).wall_ns
  + (Perf.Probe.stat Perf.Probe.Consistency_advance).wall_ns

let create sim =
  {
    sim;
    wall = Array.make n_slots 0;
    calls = Array.make n_slots 0;
    cur = slot_timer;
    ev_start = 0;
    probe_at_start = 0;
    events_wall = 0;
    max_pending = 0;
    api_wall = Array.make (List.length api_names) 0;
    api_calls = Array.make (List.length api_names) 0;
  }

let on_start t () =
  t.cur <- slot_timer;
  t.probe_at_start <- probe_wall ();
  t.ev_start <- Clock.now_ns ()

let on_stop t () =
  let dt = Clock.now_ns () - t.ev_start in
  let dp = probe_wall () - t.probe_at_start in
  t.wall.(t.cur) <- t.wall.(t.cur) + dt - dp;
  t.calls.(t.cur) <- t.calls.(t.cur) + 1;
  t.events_wall <- t.events_wall + dt;
  let pending = Simcore.Sim.pending t.sim in
  if pending > t.max_pending then t.max_pending <- pending

let install t net =
  Perf.Probe.reset ();
  Perf.Probe.enable ();
  Simcore.Sim.set_probe t.sim
    (Some { Simcore.Sim.on_start = on_start t; on_stop = on_stop t });
  (* Replaces the cluster's flight-recorder hook, which does nothing while
     the recorder is off (it is never on in these workloads). *)
  Simnet.Net.set_recorder net
    (Some
       (fun phase ~src:_ ~dst:_ msg ->
         match phase with
         | Simnet.Net.Delivered ->
           t.cur <- slot_of_kind (Storage.Protocol.describe msg).Storage.Protocol.kind
         | Simnet.Net.Sent | Simnet.Net.Dropped _ -> ()))

let uninstall t net =
  Simcore.Sim.set_probe t.sim None;
  Simnet.Net.set_recorder net None;
  Perf.Probe.disable ()

let client_event t = t.cur <- slot_client

let api t api ns =
  let i = api_index api in
  t.api_wall.(i) <- t.api_wall.(i) + ns;
  t.api_calls.(i) <- t.api_calls.(i) + 1

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The in-program probe rows: mean span per call since [install]. *)
let probe_rows () =
  let per_call sub =
    let s = Perf.Probe.stat sub in
    ratio s.Perf.Probe.wall_ns s.Perf.Probe.calls
  in
  [
    ("storage.apply_ns_per_call", per_call Perf.Probe.Storage_apply);
    ("core.consistency_advance_ns_per_call", per_call Perf.Probe.Consistency_advance);
  ]

(* The traced rows.  [run_wall] is the wall time spent inside [Sim.run_until]
   calls during the window, [window_wall] the whole window. *)
let rows t ~acked ~run_wall ~window_wall =
  let per_commit x = ratio x acked in
  let handler_rows =
    List.concat
      (List.mapi
         (fun i name ->
           [
             (Printf.sprintf "handler.%s.ns_per_call" name, ratio t.wall.(i) t.calls.(i));
             (Printf.sprintf "handler.%s.calls_per_commit" name, per_commit t.calls.(i));
           ])
         handler_names)
  in
  let api_rows =
    List.mapi
      (fun i name ->
        (Printf.sprintf "client.%s_ns" name, ratio t.api_wall.(i) t.api_calls.(i)))
      api_names
  in
  let events = Array.fold_left ( + ) 0 t.calls in
  let loop = run_wall - t.events_wall in
  let unattributed = window_wall - run_wall in
  handler_rows @ api_rows
  @ [
      ("client.ns_per_commit", per_commit t.wall.(slot_client));
      ("timer.ns_per_commit", per_commit t.wall.(slot_timer));
      ("timer.events_per_commit", per_commit t.calls.(slot_timer));
      ("simcore.loop_ns_per_event", ratio loop events);
      ("simcore.max_queue_depth", float_of_int t.max_pending);
      ("trace.unattributed_pct", 100. *. ratio unattributed window_wall);
    ]
  @ probe_rows ()
