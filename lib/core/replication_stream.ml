open Wal
module Protocol = Storage.Protocol

type replica = {
  addr : Simnet.Addr.t;
  mutable from : Lsn.t; (* the log's last LSN when its stream started *)
  mutable handed_off : bool;
  mutable shipped : Lsn.t; (* the VDL its last message carried *)
  mutable floor : Lsn.t option; (* none reported yet *)
}

(* Replicas newest first; records queue only while one is attached. *)
type t = { mutable replicas : replica list; queue : Log_record.t Queue.t }

let create () = { replicas = []; queue = Queue.create () }
let is addr r = Simnet.Addr.equal r.addr addr

let attach t addr ~from =
  if not (List.exists (is addr) t.replicas) then
    t.replicas <-
      { addr; from; handed_off = false; shipped = Lsn.none; floor = None }
      :: t.replicas

let detach t addr =
  t.replicas <- List.filter (fun r -> not (is addr r)) t.replicas;
  if t.replicas = [] then Queue.clear t.queue

let replicas t = List.map (fun r -> r.addr) t.replicas
let backlog t = Queue.length t.queue
let submit t record = if t.replicas <> [] then Queue.push record t.queue
let drop_backlog t = Queue.clear t.queue
let note_floor t addr f = List.iter (fun r -> if is addr r then r.floor <- Some f) t.replicas

let floor t ~default =
  List.fold_left (fun acc r -> Option.fold ~none:acc ~some:(Lsn.min acc) r.floor) default
    t.replicas

let restart t ~from =
  Queue.clear t.queue;
  List.iter (fun r -> r.from <- from; r.handed_off <- false) t.replicas

let resync t addr ~from =
  List.iter
    (fun r -> if is addr r && r.handed_off then (r.from <- from; r.handed_off <- false))
    t.replicas

(* Pop the queued records VDL covers, in LSN order. *)
let rec drain t ~vdl acc =
  match Queue.peek_opt t.queue with
  | Some (r : Log_record.t) when Lsn.(r.lsn <= vdl) ->
    ignore (Queue.pop t.queue : Log_record.t);
    drain t ~vdl (r :: acc)
  | Some _ | None -> List.rev acc

(* Consecutive records of one MTR form one atomically applied chunk (§3.3). *)
let rec chunks = function
  | [] -> []
  | (r : Log_record.t) :: rest ->
    let rec split acc = function
      | (x : Log_record.t) :: xs when x.mtr_id = r.mtr_id -> split (x :: acc) xs
      | xs -> (List.rev acc, xs)
    in
    let same, others = split [ r ] rest in
    { Protocol.chunk_records = same } :: chunks others

let tick t ~vdl ~volume_epoch ~committed ~send =
  if t.replicas <> [] then begin
    let records = drain t ~vdl [] in
    let chunks = chunks records in
    let commits =
      List.filter_map
        (fun (r : Log_record.t) ->
          match r.op with Log_record.Commit -> Some (r.txn, r.lsn) | _ -> None)
        records
    in
    let send r ~prev commits =
      send r.addr
        (Protocol.Redo_stream { chunks; vdl; commits; volume_epoch; prev });
      r.shipped <- vdl
    in
    List.iter
      (fun r ->
        if r.handed_off then begin
          if chunks <> [] || commits <> [] then send r ~prev:r.shipped commits
        end
        else if Lsn.(vdl >= r.from) && not (Lsn.is_none vdl) then begin
          (* The first message goes out even when empty: it gives an idle
             writer's replica its anchor.  Notices at or below [from] are
             the hand-off's. *)
          r.handed_off <- true;
          send r ~prev:Lsn.none
            (committed r.from @ List.filter (fun (_, scn) -> Lsn.(scn > r.from)) commits)
        end)
      t.replicas
  end
