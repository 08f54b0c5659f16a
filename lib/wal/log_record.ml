type op =
  | Put of { key : string; value : string }
  | Delete of { key : string }
  | Commit
  | Abort
  | Noop

type version = { value : string option; txn : Txn_id.t; lsn : Lsn.t }

type t = {
  lsn : Lsn.t;
  prev_volume : Lsn.t;
  prev_segment : Lsn.t;
  prev_block : Lsn.t;
  block : Block_id.t;
  txn : Txn_id.t;
  mtr_id : int;
  mtr_end : bool;
  op : op;
  version : version;
  size_bytes : int;
}

(* LSN + three back-links + block + txn + mtr + flags, roughly what a compact
   on-wire encoding would need. *)
let header_bytes = 48

let op_bytes = function
  | Put { key; value } -> String.length key + String.length value
  | Delete { key } -> String.length key
  | Commit | Abort | Noop -> 0

(* Commit, Abort and Noop records never reach a version chain. *)
let no_version = { value = None; txn = Txn_id.of_int 0; lsn = Lsn.none }

let make ~lsn ~prev_volume ~prev_segment ~prev_block ~block ~txn ~mtr_id
    ~mtr_end ~op =
  let version =
    match op with
    | Put { value; _ } -> { value = Some value; txn; lsn }
    | Delete _ -> { value = None; txn; lsn }
    | Commit | Abort | Noop -> no_version
  in
  {
    lsn;
    prev_volume;
    prev_segment;
    prev_block;
    block;
    txn;
    mtr_id;
    mtr_end;
    op;
    version;
    size_bytes = header_bytes + op_bytes op;
  }

let equal_op a b =
  match (a, b) with
  | Put { key = ka; value = va }, Put { key = kb; value = vb } ->
    String.equal ka kb && String.equal va vb
  | Delete { key = ka }, Delete { key = kb } -> String.equal ka kb
  | Commit, Commit | Abort, Abort | Noop, Noop -> true
  | (Put _ | Delete _ | Commit | Abort | Noop), _ -> false

let equal a b =
  Lsn.equal a.lsn b.lsn
  && Lsn.equal a.prev_volume b.prev_volume
  && Lsn.equal a.prev_segment b.prev_segment
  && Lsn.equal a.prev_block b.prev_block
  && Block_id.equal a.block b.block
  && Txn_id.equal a.txn b.txn
  && Int.equal a.mtr_id b.mtr_id
  && Bool.equal a.mtr_end b.mtr_end
  && equal_op a.op b.op
  && Int.equal a.size_bytes b.size_bytes

(* Records travel in ascending-LSN batches, but scan anyway: the range of
   a gossip or hydrate reply must not depend on the sender's ordering. *)
let rec range_from lo hi = function
  | [] -> Some (lo, hi)
  | r :: rest -> range_from (Lsn.min lo r.lsn) (Lsn.max hi r.lsn) rest

let lsn_range = function
  | [] -> None
  | r :: rest -> range_from r.lsn r.lsn rest

let is_commit t = match t.op with Commit -> true | Put _ | Delete _ | Abort | Noop -> false

let pp_op fmt = function
  | Put { key; value } -> Format.fprintf fmt "put %s=%s" key value
  | Delete { key } -> Format.fprintf fmt "del %s" key
  | Commit -> Format.pp_print_string fmt "commit"
  | Abort -> Format.pp_print_string fmt "abort"
  | Noop -> Format.pp_print_string fmt "noop"

let pp fmt t =
  Format.fprintf fmt "[lsn=%a prev(v=%a,s=%a,b=%a) %a %a mtr=%d%s %a]" Lsn.pp
    t.lsn Lsn.pp t.prev_volume Lsn.pp t.prev_segment Lsn.pp t.prev_block
    Block_id.pp t.block Txn_id.pp t.txn t.mtr_id
    (if t.mtr_end then "*" else "")
    pp_op t.op
