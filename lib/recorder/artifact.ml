(* The repro artifact: a snapshot of every ring plus the network's
   drop-cause and per-link delivery counters, with a byte-stable JSON
   round-trip so vopr can ship it next to a shrunk scenario and the CLI
   can explain from the file alone.

   Net counters are plain-int records (not [Simnet.Net.stats]) so this
   library stays below [lib/simnet]; the harness translates when it
   assembles an artifact. *)

type link = {
  src : int;
  dst : int;
  l_sent : int;
  l_delivered : int;
  l_down : int;
  l_blocked : int;
  l_partition : int;
  l_random : int;
}

type net = {
  sent : int;
  delivered : int;
  dropped_down : int;
  dropped_blocked : int;
  dropped_partition : int;
  dropped_random : int;
  links : link list;
}

type t = { snapshot : Rings.snapshot; net : net option }

let make ~snapshot ?net () = { snapshot; net }

(* ----------------------------------------------------------------- json -- *)

let timed_event_to_json (at, ev) =
  let open Obs.Json in
  match Event.to_json ev with
  | Obj fields -> Obj (("at", Int at) :: fields)
  | j -> j

let node_to_json (n : Rings.node_ring) =
  let open Obs.Json in
  Obj
    [
      ("node", Int n.Rings.node);
      ("role", String (Event.role_name n.Rings.role));
      ("depth", Int n.Rings.depth);
      ("evicted", Int n.Rings.evicted);
      ("events", List (List.map timed_event_to_json n.Rings.events));
    ]

let link_to_json l =
  let open Obs.Json in
  Obj
    [
      ("src", Int l.src);
      ("dst", Int l.dst);
      ("sent", Int l.l_sent);
      ("delivered", Int l.l_delivered);
      ("down", Int l.l_down);
      ("blocked", Int l.l_blocked);
      ("partition", Int l.l_partition);
      ("random", Int l.l_random);
    ]

let net_to_json n =
  let open Obs.Json in
  Obj
    [
      ("sent", Int n.sent);
      ("delivered", Int n.delivered);
      ("dropped_down", Int n.dropped_down);
      ("dropped_blocked", Int n.dropped_blocked);
      ("dropped_partition", Int n.dropped_partition);
      ("dropped_random", Int n.dropped_random);
      ("links", List (List.map link_to_json n.links));
    ]

let to_json t =
  let open Obs.Json in
  let recorder =
    Obj [ ("nodes", List (List.map node_to_json t.snapshot.Rings.nodes)) ]
  in
  match t.net with
  | None -> Obj [ ("recorder", recorder) ]
  | Some n -> Obj [ ("recorder", recorder); ("net", net_to_json n) ]

let to_string t = Obs.Json.to_string ~pretty:true (to_json t) ^ "\n"

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt
let ( let* ) = Result.bind

let int_field fields name =
  match List.assoc_opt name fields with
  | Some (Obs.Json.Int n) -> Ok n
  | _ -> fail "artifact: missing int field %S" name

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let timed_event_of_json j =
  match j with
  | Obs.Json.Obj fields ->
    let* at = int_field fields "at" in
    let* ev = Event.of_json j in
    Ok (at, ev)
  | _ -> fail "artifact: expected an event object"

let node_of_json = function
  | Obs.Json.Obj fields ->
    let* node = int_field fields "node" in
    let* role =
      match List.assoc_opt "role" fields with
      | Some (Obs.Json.String s) -> (
        match Event.role_of_name s with
        | Some r -> Ok r
        | None -> fail "artifact: unknown role %S" s)
      | _ -> fail "artifact: missing node role"
    in
    let* depth = int_field fields "depth" in
    let* evicted = int_field fields "evicted" in
    let* events =
      match List.assoc_opt "events" fields with
      | Some (Obs.Json.List es) -> map_result timed_event_of_json es
      | _ -> fail "artifact: missing node events"
    in
    Ok { Rings.node; role; depth; evicted; events }
  | _ -> fail "artifact: expected a node object"

let link_of_json = function
  | Obs.Json.Obj fields ->
    let* src = int_field fields "src" in
    let* dst = int_field fields "dst" in
    let* l_sent = int_field fields "sent" in
    let* l_delivered = int_field fields "delivered" in
    let* l_down = int_field fields "down" in
    let* l_blocked = int_field fields "blocked" in
    let* l_partition = int_field fields "partition" in
    let* l_random = int_field fields "random" in
    Ok { src; dst; l_sent; l_delivered; l_down; l_blocked; l_partition;
         l_random }
  | _ -> fail "artifact: expected a link object"

let net_of_json = function
  | Obs.Json.Obj fields ->
    let* sent = int_field fields "sent" in
    let* delivered = int_field fields "delivered" in
    let* dropped_down = int_field fields "dropped_down" in
    let* dropped_blocked = int_field fields "dropped_blocked" in
    let* dropped_partition = int_field fields "dropped_partition" in
    let* dropped_random = int_field fields "dropped_random" in
    let* links =
      match List.assoc_opt "links" fields with
      | Some (Obs.Json.List ls) -> map_result link_of_json ls
      | _ -> fail "artifact: missing net links"
    in
    Ok { sent; delivered; dropped_down; dropped_blocked; dropped_partition;
         dropped_random; links }
  | _ -> fail "artifact: expected a net object"

let of_json = function
  | Obs.Json.Obj fields ->
    let* nodes =
      match List.assoc_opt "recorder" fields with
      | Some (Obs.Json.Obj rec_fields) -> (
        match List.assoc_opt "nodes" rec_fields with
        | Some (Obs.Json.List ns) -> map_result node_of_json ns
        | _ -> fail "artifact: missing recorder nodes")
      | _ -> fail "artifact: missing recorder section"
    in
    let* net =
      match List.assoc_opt "net" fields with
      | None -> Ok None
      | Some j ->
        let* n = net_of_json j in
        Ok (Some n)
    in
    Ok { snapshot = { Rings.nodes }; net }
  | _ -> fail "artifact: expected an object"

let of_string s =
  match Obs.Json.of_string s with
  | Error e -> fail "artifact: %s" e
  | Ok j -> of_json j

(* -------------------------------------------------------------- explain -- *)

type target = Lsn of int | Txn of int | Pg of int

let target_name = function
  | Lsn n -> Printf.sprintf "lsn %d" n
  | Txn n -> Printf.sprintf "txn %d" n
  | Pg n -> Printf.sprintf "pg %d" n

let target_of_string s =
  let num what v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> Ok n
    | Some _ | None ->
      fail "%s: expected a non-negative integer, got %S" what v
  in
  let ( let+ ) r f = Result.map f r in
  match String.index_opt s ':' with
  | None ->
    let+ n = num "lsn" s in
    Lsn n
  | Some i -> (
    let v = String.sub s (i + 1) (String.length s - i - 1) in
    match String.sub s 0 i with
    | "lsn" ->
      let+ n = num "lsn" v in
      Lsn n
    | "txn" ->
      let+ n = num "txn" v in
      Txn n
    | "pg" ->
      let+ n = num "pg" v in
      Pg n
    | kind -> fail "unknown target kind %S (lsn:, txn: or pg:)" kind)

let timeline t = function
  | Lsn lsn -> Correlate.timeline_for_lsn t.snapshot ~lsn
  | Txn txn -> Correlate.timeline_for_txn t.snapshot ~txn
  | Pg pg -> Correlate.timeline_for_pg t.snapshot ~pg

(* The (src, dst) pairs a timeline's network events traversed, sorted.
   Receives are recorded on the destination with [peer] = source. *)
let links_involved es =
  let pairs =
    List.filter_map
      (fun (e : Correlate.entry) ->
        match e.Correlate.event with
        | Event.Send { peer; _ } | Event.Drop { peer; _ } ->
          Some (e.Correlate.node, peer)
        | Event.Receive { peer; _ } -> Some (peer, e.Correlate.node)
        | _ -> None)
      es
  in
  List.sort_uniq
    (fun (a1, a2) (b1, b2) ->
      match Int.compare a1 b1 with 0 -> Int.compare a2 b2 | c -> c)
    pairs

let link_line l =
  Printf.sprintf
    "link n%d->n%d: sent=%d delivered=%d dropped(down=%d blocked=%d \
     partition=%d random=%d)"
    l.src l.dst l.l_sent l.l_delivered l.l_down l.l_blocked l.l_partition
    l.l_random

let net_lines net es =
  let involved = links_involved es in
  let relevant =
    List.filter (fun l -> List.mem (l.src, l.dst) involved) net.links
  in
  Printf.sprintf
    "net: sent=%d delivered=%d dropped(down=%d blocked=%d partition=%d \
     random=%d)"
    net.sent net.delivered net.dropped_down net.dropped_blocked
    net.dropped_partition net.dropped_random
  :: List.map link_line relevant

let node_count es =
  List.length
    (List.sort_uniq Int.compare
       (List.map (fun (e : Correlate.entry) -> e.Correlate.node) es))

(* ------------------------------------------------------ stage breakdown -- *)

(* The record an LSN or txn target names: the LSN, or the txn's SCN. *)
let record_of t = function
  | Lsn lsn -> Some (Ok lsn)
  | Txn txn -> (
    match Correlate.commit_scn_of_txn t.snapshot ~txn with
    | Some scn when scn >= 0 -> Some (Ok scn)
    | Some _ | None -> Some (Error "no commit record in the rings"))
  | Pg _ -> None

(* Each ring replayed through the live ledger's code into a throwaway
   registry. *)
let stage_timelines t =
  List.filter_map
    (fun (n : Rings.node_ring) ->
      let ledger = Obs.Commit_path.create ~registry:(Obs.Registry.create ()) () in
      Sink.replay ledger n.Rings.events;
      match Obs.Commit_path.timelines ledger with
      | [] -> None
      | tls -> Some (n.Rings.node, tls))
    t.snapshot.Rings.nodes

(* The first ring that saw the record allocated speaks for it. *)
let stages t lsn =
  List.find_map
    (fun (node, tls) ->
      List.find_map
        (fun (l, pg, times) -> if l = lsn then Some (node, pg, times) else None)
        tls)
    (stage_timelines t)

let breakdown t target =
  Option.map
    (Result.map (fun lsn -> (lsn, stages t lsn)))
    (record_of t target)

let time_ms ns = Printf.sprintf "%d.%03dms" (ns / 1_000_000) (ns mod 1_000_000 / 1_000)

(* A span; a hand-edited artifact can put a stage before the one it
   follows. *)
let span_ms ns =
  Printf.sprintf "%s%d.%03dms"
    (if ns < 0 then "-" else "+")
    (abs ns / 1_000_000)
    (abs ns mod 1_000_000 / 1_000)

let breakdown_lines t target =
  match breakdown t target with
  | None -> []
  | Some (Error why) -> [ Printf.sprintf "stages: %s" why ]
  | Some (Ok (lsn, None)) ->
    [ Printf.sprintf "stages of lsn %d: its allocation is not in the rings" lsn ]
  | Some (Ok (lsn, Some (node, pg, times))) ->
    let prev = ref (-1) in
    Printf.sprintf "stages of lsn %d (n%d pg%d):" lsn node pg
    :: List.mapi
         (fun i at ->
           let name = Obs.Commit_path.(stage_name (stage_of_index i)) in
           if at < 0 then Printf.sprintf "  %-15s not observed" name
           else begin
             let since = if !prev < 0 then "" else "  " ^ span_ms (at - !prev) in
             prev := at;
             Printf.sprintf "  %-15s t=%10s%s" name (time_ms at) since
           end)
         (Array.to_list times)

let breakdown_json t target =
  let open Obs.Json in
  match breakdown t target with
  | None -> []
  | Some (Error why) -> [ ("stages", String why) ]
  | Some (Ok (_, None)) -> [ ("stages", Null) ]
  | Some (Ok (lsn, Some (node, pg, times))) ->
    let stage i at =
      Obj
        [
          ("stage", String Obs.Commit_path.(stage_name (stage_of_index i)));
          ("at", if at < 0 then Null else Int at);
        ]
    in
    [
      ( "stages",
        Obj
          [
            ("lsn", Int lsn);
            ("node", Int node);
            ("pg", Int pg);
            ("times", List (List.mapi stage (Array.to_list times)));
          ] );
    ]

let explain t target =
  let es = timeline t target in
  let header =
    Printf.sprintf "explain %s: %d event(s) across %d node(s)"
      (target_name target) (List.length es) (node_count es)
  in
  let body = if es = [] then [] else [ Correlate.render_text es ] in
  let footer = match t.net with None -> [] | Some n -> net_lines n es in
  String.concat "\n" ((header :: body) @ footer @ breakdown_lines t target)
  ^ "\n"

let explain_json t target =
  let es = timeline t target in
  let open Obs.Json in
  let links =
    match t.net with
    | None -> []
    | Some n ->
      let involved = links_involved es in
      [
        ( "links",
          List
            (List.map link_to_json
               (List.filter (fun l -> List.mem (l.src, l.dst) involved)
                  n.links)) );
      ]
  in
  Obj
    ([
       ("target", String (target_name target));
       ("events", Correlate.to_json es);
     ]
    @ links @ breakdown_json t target)
