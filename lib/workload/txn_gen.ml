open Simcore
module Database = Aurora_core.Database
module String_map = Map.Make (String)

type profile = {
  ops_per_txn : int;
  write_fraction : float;
  key_count : int;
  zipf_theta : float;
  value_size : int;
  mtr_fraction : float;
}

let default_profile =
  {
    ops_per_txn = 4;
    write_fraction = 0.5;
    key_count = 10_000;
    zipf_theta = 0.9;
    value_size = 64;
    mtr_fraction = 0.1;
  }

type acked = { keys_written : (string * string) list; acked_at : Time_ns.t }

(* One audit-trail entry per transaction that wrote.  The trail is never
   keyed by Txn_id: a recovered writer re-derives its transaction floor
   from storage, so the id of a transaction that vanished entirely in a
   crash (nothing durable) can be reused by a post-recovery transaction.
   Each ack marks its own entry, so the dead pre-crash write stays in
   doubt instead of being retroactively acknowledged. *)
type entry = {
  writes : (string * string) list; (* put order = LSN order *)
  mutable requested : bool; (* commit requested *)
  mutable acked_at : Time_ns.t option;
}

type t = {
  sim : Sim.t;
  rng : Rng.t;
  db : Database.t;
  profile : profile;
  zipf : Zipf.t;
  commit_latency : Histogram.t;
  mutable issued : int;
  mutable acked : int;
  mutable failed : int;
  mutable trail : entry list; (* newest issue first *)
  mutable value_counter : int;
}

let create ~sim ~rng ~db ~profile () =
  {
    sim;
    rng;
    db;
    profile;
    zipf = Zipf.create ~n:profile.key_count ~theta:profile.zipf_theta;
    commit_latency = Histogram.create ();
    issued = 0;
    acked = 0;
    failed = 0;
    trail = [];
    value_counter = 0;
  }

let key_of t idx = Printf.sprintf "key-%06d" (idx mod t.profile.key_count)

let fresh_value t =
  t.value_counter <- t.value_counter + 1;
  let tag = Printf.sprintf "v%09d-" t.value_counter in
  let pad = max 0 (t.profile.value_size - String.length tag) in
  tag ^ String.make pad 'x'

let issue_one t ~on_done =
  t.issued <- t.issued + 1;
  match Database.begin_txn t.db with
  | exception Failure msg ->
    t.failed <- t.failed + 1;
    on_done (Error msg)
  | txn ->
    let n = t.profile.ops_per_txn in
    let n_writes =
      int_of_float (Float.round (t.profile.write_fraction *. float_of_int n))
    in
    let as_mtr =
      n_writes > 1 && Rng.bernoulli t.rng t.profile.mtr_fraction
    in
    (* Writes first (buffered, synchronous at the engine), then reads. *)
    let writes =
      List.init n_writes (fun _ ->
          (key_of t (Zipf.sample t.zipf t.rng), fresh_value t))
    in
    if as_mtr then Database.put_multi t.db ~txn writes
    else
      List.iter (fun (key, value) -> Database.put t.db ~txn ~key ~value) writes;
    let entry = { writes; requested = false; acked_at = None } in
    if writes <> [] then t.trail <- entry :: t.trail;
    let reads_pending = ref 0 in
    let try_commit () =
      if (not entry.requested) && !reads_pending = 0 then begin
        entry.requested <- true;
        Database.commit t.db ~txn (fun result ->
            match result with
            | Ok () ->
              t.acked <- t.acked + 1;
              entry.acked_at <- Some (Sim.now t.sim);
              on_done (Ok ())
            | Error e ->
              t.failed <- t.failed + 1;
              on_done (Error e))
      end
    in
    for _ = 1 to n - n_writes do
      incr reads_pending;
      let key = key_of t (Zipf.sample t.zipf t.rng) in
      Database.get t.db ~txn ~key (fun _ ->
          decr reads_pending;
          try_commit ())
    done;
    try_commit ()

let timed_issue t ~on_done =
  let started = Sim.now t.sim in
  issue_one t ~on_done:(fun result ->
      (match result with
      | Ok () -> Histogram.record_span t.commit_latency started (Sim.now t.sim)
      | Error _ -> ());
      on_done result)

let run_open_loop t ~rate_per_sec ~duration =
  if rate_per_sec <= 0. then invalid_arg "Txn_gen.run_open_loop: rate";
  let mean_gap_ns = 1e9 /. rate_per_sec in
  let stop_at = Time_ns.add (Sim.now t.sim) duration in
  let rec arrive () =
    if Time_ns.compare (Sim.now t.sim) stop_at < 0 then begin
      timed_issue t ~on_done:(fun _ -> ());
      let gap = Time_ns.ns (int_of_float (Rng.exponential t.rng ~mean:mean_gap_ns)) in
      ignore (Sim.schedule t.sim ~delay:gap arrive)
    end
  in
  ignore (Sim.schedule t.sim ~delay:Time_ns.zero arrive)

let run_closed_loop t ~clients ~think_time ~duration =
  if clients <= 0 then invalid_arg "Txn_gen.run_closed_loop: clients";
  let stop_at = Time_ns.add (Sim.now t.sim) duration in
  let rec client_loop () =
    if Time_ns.compare (Sim.now t.sim) stop_at < 0 then
      timed_issue t ~on_done:(fun _ ->
          let think = Distribution.sample think_time t.rng in
          ignore (Sim.schedule t.sim ~delay:think client_loop))
  in
  for _ = 1 to clients do
    ignore (Sim.schedule t.sim ~delay:Time_ns.zero client_loop)
  done

let commit_latency t = t.commit_latency
let issued t = t.issued
let acked t = t.acked
let failed t = t.failed

let acked_writes t =
  List.fold_left
    (fun acc e ->
      match e.acked_at with
      | Some acked_at -> { keys_written = e.writes; acked_at } :: acc
      | None -> acc)
    [] t.trail

let unacked_writes t =
  List.concat_map
    (fun e -> if e.requested && Option.is_none e.acked_at then e.writes else [])
    t.trail

let writes_in_issue_order t =
  List.fold_left
    (fun acc e ->
      let acked = Option.is_some e.acked_at in
      List.fold_right (fun (k, v) acc -> (k, v, acked) :: acc) e.writes acc)
    [] t.trail

(* The durability oracle.  MVCC orders versions by LSN, not by ack order,
   so a key's valid values are its last acknowledged write in issue (=
   LSN) order plus every in-doubt write issued after it: a commit whose
   ack was lost in a crash may legitimately have survived. *)
let audit t ~get on_wrong =
  let valid =
    List.fold_left
      (fun valid (key, value, acked) ->
        if acked then String_map.add key [ value ] valid
        else
          match String_map.find_opt key valid with
          | Some vs -> String_map.add key (value :: vs) valid
          | None -> valid)
      String_map.empty (writes_in_issue_order t)
  in
  String_map.iter
    (fun key values ->
      get ~key (fun result ->
          match result with
          | Ok (Some v) when List.exists (String.equal v) values -> ()
          | Ok _ | Error _ -> on_wrong ~key result))
    valid;
  String_map.cardinal valid
