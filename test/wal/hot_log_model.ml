(* Reference model for [Wal.Hot_log]: the original implementation, one
   [Hashtbl] of every stored record keyed by LSN, with the gapless chain
   found by walking [prev_segment] links down from the SCL on every query.
   Simple enough to trust, too slow to ship; the qcheck model test in
   [test_wal.ml] holds the array-backed [Hot_log] to it, operation by
   operation.

   One deliberate difference: when [annul_range] rebuilds the pending index
   and two surviving records above the new SCL share a [prev_segment], the
   winner here is whichever [Hashtbl.iter] visits last, while [Hot_log]
   picks the higher LSN.  Recovery truncates up to past every received LSN,
   so that case never arises there, and the generator never builds it. *)
open Wal

type truncation = { above : Lsn.t; upto : Lsn.t }

type t = {
  records : (int, Log_record.t) Hashtbl.t; (* keyed by LSN *)
  by_prev : (int, Log_record.t) Hashtbl.t; (* pending, keyed by prev_segment *)
  mutable scl : Lsn.t;
  mutable highest : Lsn.t;
  mutable truncations : truncation list;
  mutable bytes : int;
  mutable dropped_upto : Lsn.t; (* GC floor: records at/below were dropped *)
}

(* The real result type, so the model test compares results directly. *)
type insert_result = Hot_log.insert_result = Accepted | Duplicate | Annulled

let create () =
  {
    records = Hashtbl.create 256;
    by_prev = Hashtbl.create 16;
    scl = Lsn.none;
    highest = Lsn.none;
    truncations = [];
    bytes = 0;
    dropped_upto = Lsn.none;
  }

let create_anchored anchor =
  let t = create () in
  t.scl <- anchor;
  t.highest <- anchor;
  t.dropped_upto <- anchor;
  t

let scl t = t.scl
let highest_received t = t.highest
let dropped_upto t = t.dropped_upto
let contains t lsn = Hashtbl.mem t.records (Lsn.to_int lsn)
let find t lsn = Hashtbl.find_opt t.records (Lsn.to_int lsn)
let record_count t = Hashtbl.length t.records
let bytes_stored t = t.bytes

(* Top-level (not a closure capturing [lsn]): this check runs on every
   insert, i.e. per received record. *)
let rec lsn_annulled lsn = function
  | [] -> false
  | { above; upto } :: rest ->
    (Lsn.(lsn > above) && Lsn.(lsn <= upto)) || lsn_annulled lsn rest

let is_annulled t lsn = lsn_annulled lsn t.truncations

(* Chase the chain forward through pending records starting at the current
   SCL; each pending record whose prev_segment equals the chain tail extends
   the gapless prefix.  Exception-based lookup: [find_opt] would box a
   [Some] per chained record. *)
let rec advance t =
  match Hashtbl.find t.by_prev (Lsn.to_int t.scl) with
  | exception Not_found -> ()
  | r ->
    Hashtbl.remove t.by_prev (Lsn.to_int t.scl);
    t.scl <- r.Log_record.lsn;
    advance t

let insert t (r : Log_record.t) =
  if contains t r.lsn then Duplicate
  else if is_annulled t r.lsn then Annulled
  else if Lsn.(r.lsn <= t.scl) then
    (* Chain position already passed (e.g. re-gossiped after truncation
       rebuild); store for reads but the SCL is unaffected. *)
    begin
      Hashtbl.replace t.records (Lsn.to_int r.lsn) r;
      t.bytes <- t.bytes + r.size_bytes;
      Accepted
    end
  else begin
    Hashtbl.replace t.records (Lsn.to_int r.lsn) r;
    Hashtbl.replace t.by_prev (Lsn.to_int r.prev_segment) r;
    t.bytes <- t.bytes + r.size_bytes;
    if Lsn.(r.lsn > t.highest) then t.highest <- r.lsn;
    advance t;
    Accepted
  end

let pending_count t = Hashtbl.length t.by_prev

let chain_to_list t =
  (* Walk backwards from SCL via prev_segment links, then reverse. *)
  let rec walk lsn acc =
    if Lsn.is_none lsn then acc
    else
      match find t lsn with
      | None -> acc (* anchored segment: chain known-complete below anchor *)
      | Some r -> walk r.Log_record.prev_segment (r :: acc)
  in
  walk t.scl []

let chained_records_above t lsn =
  let rec walk cur acc =
    if Lsn.is_none cur || Lsn.(cur <= lsn) then acc
    else
      match find t cur with
      | None -> acc
      | Some r -> walk r.Log_record.prev_segment (r :: acc)
  in
  walk t.scl []

let drop_below t ~upto =
  let doomed =
    Hashtbl.fold
      (fun lsn_int r acc ->
        if Lsn.(Lsn.of_int lsn_int <= upto) then r :: acc else acc)
      t.records []
  in
  List.iter
    (fun (r : Log_record.t) ->
      Hashtbl.remove t.records (Lsn.to_int r.lsn);
      t.bytes <- t.bytes - r.size_bytes;
      if Lsn.(r.lsn > t.dropped_upto) then t.dropped_upto <- r.lsn)
    doomed;
  List.length doomed

let annul_range t ~above ~upto =
  if Lsn.(upto < above) then invalid_arg "Hot_log.annul_range: upto < above";
  t.truncations <- { above; upto } :: t.truncations;
  let doomed =
    Hashtbl.fold
      (fun lsn_int r acc ->
        let lsn = Lsn.of_int lsn_int in
        if Lsn.(lsn > above) && Lsn.(lsn <= upto) then r :: acc else acc)
      t.records []
  in
  List.iter
    (fun (r : Log_record.t) ->
      Hashtbl.remove t.records (Lsn.to_int r.lsn);
      t.bytes <- t.bytes - r.size_bytes)
    doomed;
  (* Rebuild the pending index and re-anchor the chain: if chained records
     were annulled, the new tail is the predecessor of the oldest annulled
     chained record (an actual record LSN, which keeps segment chains
     linkable after recovery). *)
  Hashtbl.reset t.by_prev;
  if Lsn.(t.scl > above) then begin
    let new_tail =
      List.fold_left
        (fun acc (r : Log_record.t) ->
          if Lsn.(r.lsn <= t.scl) then
            match acc with
            | Some (best : Log_record.t) when Lsn.(best.lsn <= r.lsn) -> acc
            | _ -> Some r
          else acc)
        None doomed
    in
    match new_tail with
    | Some oldest_chained -> t.scl <- oldest_chained.prev_segment
    | None -> t.scl <- above
  end;
  t.highest <- t.scl;
  Hashtbl.iter
    (fun lsn_int r ->
      let lsn = Lsn.of_int lsn_int in
      if Lsn.(lsn > t.scl) then begin
        Hashtbl.replace t.by_prev (Lsn.to_int r.Log_record.prev_segment) r;
        if Lsn.(lsn > t.highest) then t.highest <- lsn
      end)
    t.records;
  advance t;
  List.length doomed
