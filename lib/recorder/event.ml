(* Typed flight-recorder events.

   Every payload field is a plain [int]: LSNs, PGs, epochs, txn ids and
   node ids are carried as their integer images, with [-1] meaning "not
   applicable".  That keeps this library below [lib/wal] and
   [lib/storage] in the dependency order — the protocol layers translate
   their abstract types at the hook point, and the recorder never needs
   a protocol module to decode what it stored. *)

type role = Writer | Storage | Replica | Unknown

let role_name = function
  | Writer -> "writer"
  | Storage -> "storage"
  | Replica -> "replica"
  | Unknown -> "unknown"

let all_roles = [ Writer; Storage; Replica; Unknown ]
let role_of_name s = List.find_opt (fun r -> role_name r = s) all_roles

type msg_kind =
  | Write_batch
  | Write_ack
  | Write_reject
  | Read_block
  | Read_reply
  | Gossip_pull
  | Gossip_reply
  | Scl_probe
  | Scl_reply
  | Truncate
  | Truncate_ack
  | Epoch_update
  | Epoch_ack
  | Membership_update
  | Hydrate_pull
  | Hydrate_reply
  | Pgmrpl_update
  | Redo_stream
  | Replica_feedback

let msg_kind_name = function
  | Write_batch -> "write_batch"
  | Write_ack -> "write_ack"
  | Write_reject -> "write_reject"
  | Read_block -> "read_block"
  | Read_reply -> "read_reply"
  | Gossip_pull -> "gossip_pull"
  | Gossip_reply -> "gossip_reply"
  | Scl_probe -> "scl_probe"
  | Scl_reply -> "scl_reply"
  | Truncate -> "truncate"
  | Truncate_ack -> "truncate_ack"
  | Epoch_update -> "epoch_update"
  | Epoch_ack -> "epoch_ack"
  | Membership_update -> "membership_update"
  | Hydrate_pull -> "hydrate_pull"
  | Hydrate_reply -> "hydrate_reply"
  | Pgmrpl_update -> "pgmrpl_update"
  | Redo_stream -> "redo_stream"
  | Replica_feedback -> "replica_feedback"

let all_msg_kinds =
  [
    Write_batch;
    Write_ack;
    Write_reject;
    Read_block;
    Read_reply;
    Gossip_pull;
    Gossip_reply;
    Scl_probe;
    Scl_reply;
    Truncate;
    Truncate_ack;
    Epoch_update;
    Epoch_ack;
    Membership_update;
    Hydrate_pull;
    Hydrate_reply;
    Pgmrpl_update;
    Redo_stream;
    Replica_feedback;
  ]

let msg_kind_of_name s =
  List.find_opt (fun k -> msg_kind_name k = s) all_msg_kinds

type drop_cause = Down | Blocked | Partitioned | Random

let drop_cause_name = function
  | Down -> "down"
  | Blocked -> "blocked"
  | Partitioned -> "partitioned"
  | Random -> "random"

let all_drop_causes = [ Down; Blocked; Partitioned; Random ]

let drop_cause_of_name s =
  List.find_opt (fun c -> drop_cause_name c = s) all_drop_causes

type membership_phase = Change_begun | Change_committed | Change_reverted

let membership_phase_name = function
  | Change_begun -> "begun"
  | Change_committed -> "committed"
  | Change_reverted -> "reverted"

let all_membership_phases = [ Change_begun; Change_committed; Change_reverted ]

let membership_phase_of_name s =
  List.find_opt (fun p -> membership_phase_name p = s) all_membership_phases

type t =
  | Send of { kind : msg_kind; peer : int; pg : int; lsn_lo : int; lsn_hi : int }
  | Receive of {
      kind : msg_kind;
      peer : int;
      pg : int;
      lsn_lo : int;
      lsn_hi : int;
    }
  | Drop of {
      kind : msg_kind;
      peer : int;
      pg : int;
      lsn_lo : int;
      lsn_hi : int;
      cause : drop_cause;
    }
  | Scl_advance of { pg : int; scl : int; stored : int }
  | Gossip_fill of { pg : int; scl : int; filled : int }
  | Hydrate_import of { pg : int; scl : int }
  | Lsn_alloc of { pg : int; lsn : int }
  | Boxcar_flush of { pg : int; lsn_lo : int; lsn_hi : int }
  | Pgcl_advance of { pg : int; pgcl : int }
  | Vcl_advance of { vcl : int }
  | Vdl_advance of { vdl : int }
  | Pgmrpl_advance of { pg : int; floor : int }
  | Epoch_change of { pg : int; volume_epoch : int; membership_epoch : int }
  | Commit_submit of { txn : int; scn : int }
  | Commit_ack of { txn : int; scn : int }
  | Started
  | Crashed
  | Destroyed
  | Fenced of { epoch : int }
  | Recovery_start of { epoch : int }
  | Recovery_finish of { vcl : int; vdl : int }
  | Membership_change of { pg : int; epoch : int; phase : membership_phase }
  | Health_edge of { pg : int; edge : Obs.Health.edge }

let equal (a : t) (b : t) = a = b

(* ----------------------------------------------------------------- json -- *)

let net_fields kind peer pg lsn_lo lsn_hi =
  let open Obs.Json in
  [
    ("kind", String (msg_kind_name kind));
    ("peer", Int peer);
    ("pg", Int pg);
    ("lsn_lo", Int lsn_lo);
    ("lsn_hi", Int lsn_hi);
  ]

let to_json t =
  let open Obs.Json in
  let obj tag fields = Obj (("ev", String tag) :: fields) in
  match t with
  | Send { kind; peer; pg; lsn_lo; lsn_hi } ->
    obj "send" (net_fields kind peer pg lsn_lo lsn_hi)
  | Receive { kind; peer; pg; lsn_lo; lsn_hi } ->
    obj "recv" (net_fields kind peer pg lsn_lo lsn_hi)
  | Drop { kind; peer; pg; lsn_lo; lsn_hi; cause } ->
    obj "drop"
      (net_fields kind peer pg lsn_lo lsn_hi
      @ [ ("cause", String (drop_cause_name cause)) ])
  | Scl_advance { pg; scl; stored } ->
    obj "scl_advance" [ ("pg", Int pg); ("scl", Int scl); ("stored", Int stored) ]
  | Gossip_fill { pg; scl; filled } ->
    obj "gossip_fill" [ ("pg", Int pg); ("scl", Int scl); ("filled", Int filled) ]
  | Hydrate_import { pg; scl } ->
    obj "hydrate_import" [ ("pg", Int pg); ("scl", Int scl) ]
  | Lsn_alloc { pg; lsn } -> obj "lsn_alloc" [ ("pg", Int pg); ("lsn", Int lsn) ]
  | Boxcar_flush { pg; lsn_lo; lsn_hi } ->
    obj "boxcar_flush"
      [ ("pg", Int pg); ("lsn_lo", Int lsn_lo); ("lsn_hi", Int lsn_hi) ]
  | Pgcl_advance { pg; pgcl } ->
    obj "pgcl_advance" [ ("pg", Int pg); ("pgcl", Int pgcl) ]
  | Vcl_advance { vcl } -> obj "vcl_advance" [ ("vcl", Int vcl) ]
  | Vdl_advance { vdl } -> obj "vdl_advance" [ ("vdl", Int vdl) ]
  | Pgmrpl_advance { pg; floor } ->
    obj "pgmrpl_advance" [ ("pg", Int pg); ("floor", Int floor) ]
  | Epoch_change { pg; volume_epoch; membership_epoch } ->
    obj "epoch_change"
      [
        ("pg", Int pg);
        ("volume_epoch", Int volume_epoch);
        ("membership_epoch", Int membership_epoch);
      ]
  | Commit_submit { txn; scn } ->
    obj "commit_submit" [ ("txn", Int txn); ("scn", Int scn) ]
  | Commit_ack { txn; scn } ->
    obj "commit_ack" [ ("txn", Int txn); ("scn", Int scn) ]
  | Started -> obj "started" []
  | Crashed -> obj "crashed" []
  | Destroyed -> obj "destroyed" []
  | Fenced { epoch } -> obj "fenced" [ ("epoch", Int epoch) ]
  | Recovery_start { epoch } -> obj "recovery_start" [ ("epoch", Int epoch) ]
  | Recovery_finish { vcl; vdl } ->
    obj "recovery_finish" [ ("vcl", Int vcl); ("vdl", Int vdl) ]
  | Membership_change { pg; epoch; phase } ->
    obj "membership_change"
      [
        ("pg", Int pg);
        ("epoch", Int epoch);
        ("phase", String (membership_phase_name phase));
      ]
  | Health_edge { pg; edge } ->
    obj "health_edge"
      [ ("pg", Int pg); ("edge", String (Obs.Health.edge_name edge)) ]

let of_json j =
  let open Obs.Json in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match j with
  | Obj fields ->
    let int name =
      match List.assoc_opt name fields with
      | Some (Int n) -> Ok n
      | _ -> fail "event: missing int field %S" name
    in
    let str name =
      match List.assoc_opt name fields with
      | Some (String s) -> Ok s
      | _ -> fail "event: missing string field %S" name
    in
    let ( let* ) = Result.bind in
    let net mk =
      let* kind_s = str "kind" in
      let* kind =
        match msg_kind_of_name kind_s with
        | Some k -> Ok k
        | None -> fail "event: unknown msg kind %S" kind_s
      in
      let* peer = int "peer" in
      let* pg = int "pg" in
      let* lsn_lo = int "lsn_lo" in
      let* lsn_hi = int "lsn_hi" in
      mk kind peer pg lsn_lo lsn_hi
    in
    let* tag = str "ev" in
    (match tag with
    | "send" ->
      net (fun kind peer pg lsn_lo lsn_hi ->
          Ok (Send { kind; peer; pg; lsn_lo; lsn_hi }))
    | "recv" ->
      net (fun kind peer pg lsn_lo lsn_hi ->
          Ok (Receive { kind; peer; pg; lsn_lo; lsn_hi }))
    | "drop" ->
      net (fun kind peer pg lsn_lo lsn_hi ->
          let* cause_s = str "cause" in
          match drop_cause_of_name cause_s with
          | Some cause -> Ok (Drop { kind; peer; pg; lsn_lo; lsn_hi; cause })
          | None -> fail "event: unknown drop cause %S" cause_s)
    | "scl_advance" ->
      let* pg = int "pg" in
      let* scl = int "scl" in
      let* stored = int "stored" in
      Ok (Scl_advance { pg; scl; stored })
    | "gossip_fill" ->
      let* pg = int "pg" in
      let* scl = int "scl" in
      let* filled = int "filled" in
      Ok (Gossip_fill { pg; scl; filled })
    | "hydrate_import" ->
      let* pg = int "pg" in
      let* scl = int "scl" in
      Ok (Hydrate_import { pg; scl })
    | "lsn_alloc" ->
      let* pg = int "pg" in
      let* lsn = int "lsn" in
      Ok (Lsn_alloc { pg; lsn })
    | "boxcar_flush" ->
      let* pg = int "pg" in
      let* lsn_lo = int "lsn_lo" in
      let* lsn_hi = int "lsn_hi" in
      Ok (Boxcar_flush { pg; lsn_lo; lsn_hi })
    | "pgcl_advance" ->
      let* pg = int "pg" in
      let* pgcl = int "pgcl" in
      Ok (Pgcl_advance { pg; pgcl })
    | "vcl_advance" ->
      let* vcl = int "vcl" in
      Ok (Vcl_advance { vcl })
    | "vdl_advance" ->
      let* vdl = int "vdl" in
      Ok (Vdl_advance { vdl })
    | "pgmrpl_advance" ->
      let* pg = int "pg" in
      let* floor = int "floor" in
      Ok (Pgmrpl_advance { pg; floor })
    | "epoch_change" ->
      let* pg = int "pg" in
      let* volume_epoch = int "volume_epoch" in
      let* membership_epoch = int "membership_epoch" in
      Ok (Epoch_change { pg; volume_epoch; membership_epoch })
    | "commit_submit" ->
      let* txn = int "txn" in
      let* scn = int "scn" in
      Ok (Commit_submit { txn; scn })
    | "commit_ack" ->
      let* txn = int "txn" in
      let* scn = int "scn" in
      Ok (Commit_ack { txn; scn })
    | "started" -> Ok Started
    | "crashed" -> Ok Crashed
    | "destroyed" -> Ok Destroyed
    | "fenced" ->
      let* epoch = int "epoch" in
      Ok (Fenced { epoch })
    | "recovery_start" ->
      let* epoch = int "epoch" in
      Ok (Recovery_start { epoch })
    | "recovery_finish" ->
      let* vcl = int "vcl" in
      let* vdl = int "vdl" in
      Ok (Recovery_finish { vcl; vdl })
    | "membership_change" -> (
      let* pg = int "pg" in
      let* epoch = int "epoch" in
      let* phase_s = str "phase" in
      match membership_phase_of_name phase_s with
      | Some phase -> Ok (Membership_change { pg; epoch; phase })
      | None -> fail "event: unknown membership phase %S" phase_s)
    | "health_edge" -> (
      let* pg = int "pg" in
      let* edge_s = str "edge" in
      match Obs.Health.edge_of_name edge_s with
      | Some edge -> Ok (Health_edge { pg; edge })
      | None -> fail "event: unknown health edge %S" edge_s)
    | tag -> fail "event: unknown tag %S" tag)
  | _ -> fail "event: expected an object"

(* ----------------------------------------------------------------- text -- *)

let range_suffix pg lsn_lo lsn_hi =
  let pg_s = if pg >= 0 then Printf.sprintf " pg%d" pg else "" in
  let lsn_s =
    if lsn_lo < 0 then ""
    else if lsn_lo = lsn_hi then Printf.sprintf " lsn %d" lsn_lo
    else Printf.sprintf " lsn [%d..%d]" lsn_lo lsn_hi
  in
  pg_s ^ lsn_s

let describe = function
  | Send { kind; peer; pg; lsn_lo; lsn_hi } ->
    Printf.sprintf "send %s ->n%d%s" (msg_kind_name kind) peer
      (range_suffix pg lsn_lo lsn_hi)
  | Receive { kind; peer; pg; lsn_lo; lsn_hi } ->
    Printf.sprintf "recv %s <-n%d%s" (msg_kind_name kind) peer
      (range_suffix pg lsn_lo lsn_hi)
  | Drop { kind; peer; pg; lsn_lo; lsn_hi; cause } ->
    Printf.sprintf "drop(%s) %s ->n%d%s" (drop_cause_name cause)
      (msg_kind_name kind) peer
      (range_suffix pg lsn_lo lsn_hi)
  | Scl_advance { pg; scl; stored } ->
    Printf.sprintf "scl_advance pg%d scl=%d stored=%d" pg scl stored
  | Gossip_fill { pg; scl; filled } ->
    Printf.sprintf "gossip_fill pg%d filled=%d scl=%d" pg filled scl
  | Hydrate_import { pg; scl } ->
    Printf.sprintf "hydrate_import pg%d scl=%d" pg scl
  | Lsn_alloc { pg; lsn } -> "lsn_alloc" ^ range_suffix pg lsn lsn
  | Boxcar_flush { pg; lsn_lo; lsn_hi } ->
    "boxcar_flush" ^ range_suffix pg lsn_lo lsn_hi
  | Pgcl_advance { pg; pgcl } -> Printf.sprintf "pgcl_advance pg%d pgcl=%d" pg pgcl
  | Vcl_advance { vcl } -> Printf.sprintf "vcl_advance vcl=%d" vcl
  | Vdl_advance { vdl } -> Printf.sprintf "vdl_advance vdl=%d" vdl
  | Pgmrpl_advance { pg; floor } ->
    Printf.sprintf "pgmrpl_advance pg%d floor=%d" pg floor
  | Epoch_change { pg; volume_epoch; membership_epoch } ->
    Printf.sprintf "epoch_change pg%d volume_epoch=%d membership_epoch=%d" pg
      volume_epoch membership_epoch
  | Commit_submit { txn; scn } ->
    Printf.sprintf "commit_submit txn=%d scn=%d" txn scn
  | Commit_ack { txn; scn } -> Printf.sprintf "commit_ack txn=%d scn=%d" txn scn
  | Started -> "started"
  | Crashed -> "crashed"
  | Destroyed -> "destroyed"
  | Fenced { epoch } -> Printf.sprintf "fenced epoch=%d" epoch
  | Recovery_start { epoch } -> Printf.sprintf "recovery_start epoch=%d" epoch
  | Recovery_finish { vcl; vdl } ->
    Printf.sprintf "recovery_finish vcl=%d vdl=%d" vcl vdl
  | Membership_change { pg; epoch; phase } ->
    Printf.sprintf "membership_change pg%d epoch=%d %s" pg epoch
      (membership_phase_name phase)
  | Health_edge { pg; edge } ->
    Printf.sprintf "health_edge pg%d %s" pg (Obs.Health.edge_name edge)
