type truncation = { above : Lsn.t; upto : Lsn.t }

(* Keyed by [Lsn.to_int]: LSNs are dense, so the int is its own hash. *)
module By_lsn = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash l = l
end)

(* Stored records live in exactly one of two places:

   - the chain slice [chain.(head) .. chain.(tail - 1)], LSN-ascending:
     exactly the records a walk down [prev_segment] links from the SCL
     reaches, stopping at the first link that is not stored (or at
     {!Lsn.none});
   - [loose], by LSN: every other stored record, i.e. pending records above
     the SCL and strays below it (re-gossiped after a drop, or stored below
     an anchor).

   [by_prev] indexes pending records by [prev_segment], as received; a
   record dropped while pending stays there, so the SCL can still advance
   through it (the walk then restarts above it).  It never holds the key
   [scl] between calls: [advance] consumes it.  Slots outside the slice
   hold [vacant], so the array keeps no dropped record alive.

   The LSN space gives each LSN at most one record (the writer never
   reuses one; annulled ranges are rejected for good), which is what lets
   [advance] move the stored record of a chained LSN into the slice. *)
type t = {
  mutable chain : Log_record.t array;
  mutable head : int;
  mutable tail : int;
  loose : Log_record.t By_lsn.t;
  by_prev : Log_record.t By_lsn.t;
  mutable scl : Lsn.t;
  mutable highest : Lsn.t;
  mutable truncations : truncation list;
  mutable bytes : int;
  mutable dropped_upto : Lsn.t; (* GC floor: records at/below were dropped *)
}

(* All three results are constant constructors: [insert] runs for every
   record a storage node receives, and an [Accepted of Lsn.t] payload would
   allocate a block per accepted record just to carry what [scl] already
   exposes. *)
type insert_result = Accepted | Duplicate | Annulled

let vacant =
  Log_record.make ~lsn:Lsn.none ~prev_volume:Lsn.none ~prev_segment:Lsn.none
    ~prev_block:Lsn.none ~block:(Block_id.of_int 0) ~txn:(Txn_id.of_int 0)
    ~mtr_id:0 ~mtr_end:false ~op:Log_record.Noop

let create () =
  {
    chain = Array.make 64 vacant;
    head = 0;
    tail = 0;
    loose = By_lsn.create 16;
    by_prev = By_lsn.create 16;
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
let chained t = t.tail - t.head
let record_count t = chained t + By_lsn.length t.loose
let pending_count t = By_lsn.length t.by_prev
let bytes_stored t = t.bytes

(* First slice index whose LSN is strictly above [lsn] ([tail] if none). *)
let first_above t lsn =
  let lo = ref t.head and hi = ref t.tail in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Lsn.(t.chain.(mid).Log_record.lsn <= lsn) then lo := mid + 1 else hi := mid
  done;
  !lo

let in_chain t lsn =
  chained t > 0
  && Lsn.(lsn <= t.scl)
  &&
  let i = first_above t lsn in
  i > t.head && Lsn.equal t.chain.(i - 1).Log_record.lsn lsn

let contains t lsn =
  in_chain t lsn
  || (By_lsn.length t.loose > 0 && By_lsn.mem t.loose (Lsn.to_int lsn))

(* Top-level (not a closure capturing [lsn]): this check runs on every
   insert, i.e. per received record. *)
let rec lsn_annulled lsn = function
  | [] -> false
  | { above; upto } :: rest ->
    (Lsn.(lsn > above) && Lsn.(lsn <= upto)) || lsn_annulled lsn rest

let is_annulled t lsn = lsn_annulled lsn t.truncations

let clear_chain t =
  Array.fill t.chain t.head (chained t) vacant;
  t.head <- 0;
  t.tail <- 0

(* Make room for one more slot at [tail]: slide the slice down when at
   least half the array is dropped slots, otherwise double. *)
let make_room t =
  let n = chained t in
  let cap = Array.length t.chain in
  if 2 * n <= cap then begin
    Array.blit t.chain t.head t.chain 0 n;
    Array.fill t.chain n (t.tail - n) vacant
  end
  else begin
    let grown = Array.make (2 * cap) vacant in
    Array.blit t.chain t.head grown 0 n;
    t.chain <- grown
  end;
  t.head <- 0;
  t.tail <- n

let push t r =
  if t.tail = Array.length t.chain then make_room t;
  t.chain.(t.tail) <- r;
  t.tail <- t.tail + 1

(* Put [below] (ascending, all below the slice) in front of the slice. *)
let prepend t below =
  let k = List.length below in
  let n = chained t in
  if t.head < k then begin
    let fresh = Array.make (max (Array.length t.chain) (2 * (n + k))) vacant in
    Array.blit t.chain t.head fresh k n;
    t.chain <- fresh;
    t.head <- k;
    t.tail <- k + n
  end;
  List.iteri (fun i r -> t.chain.(t.head - k + i) <- r) below;
  t.head <- t.head - k

(* The link a walk down from the SCL stopped at: the record that would
   extend the slice downwards. *)
let front_link t =
  if chained t = 0 then t.scl else t.chain.(t.head).Log_record.prev_segment

(* Move the loose records the walk now reaches below [r] into [acc]
   (ascending). *)
let rec pull_below t (r : Log_record.t) acc =
  let prev = r.prev_segment in
  if Lsn.is_none prev then acc
  else
    match By_lsn.find t.loose (Lsn.to_int prev) with
    | exception Not_found -> acc
    | below ->
      By_lsn.remove t.loose (Lsn.to_int prev);
      pull_below t below (below :: acc)

(* Chase the chain forward through pending records starting at the current
   SCL; each pending record whose prev_segment equals the chain tail extends
   the gapless prefix.  Its stored copy joins the slice; if it was dropped
   while pending, nothing below it is reachable any more, so the slice's
   records turn loose.
   Exception-based lookup: [find_opt] would box a [Some] per chained
   record. *)
let rec advance t =
  match By_lsn.find t.by_prev (Lsn.to_int t.scl) with
  | exception Not_found -> ()
  | r ->
    By_lsn.remove t.by_prev (Lsn.to_int t.scl);
    t.scl <- r.Log_record.lsn;
    let key = Lsn.to_int r.lsn in
    (match By_lsn.find t.loose key with
    | stored ->
      By_lsn.remove t.loose key;
      push t stored
    | exception Not_found ->
      for i = t.head to t.tail - 1 do
        let r = t.chain.(i) in
        By_lsn.replace t.loose (Lsn.to_int r.Log_record.lsn) r
      done;
      clear_chain t);
    advance t

let insert t (r : Log_record.t) =
  if contains t r.lsn then Duplicate
  else if is_annulled t r.lsn then Annulled
  else begin
    t.bytes <- t.bytes + r.size_bytes;
    if Lsn.(r.lsn <= t.scl) then begin
      (* Chain position already passed (e.g. re-gossiped after a drop): store
         for reads; the SCL is unaffected, but the record may be the missing
         link below the slice. *)
      if Lsn.equal r.lsn (front_link t) then prepend t (pull_below t r [ r ])
      else By_lsn.replace t.loose (Lsn.to_int r.lsn) r
    end
    else begin
      if Lsn.(r.lsn > t.highest) then t.highest <- r.lsn;
      (* In order: the record links to the SCL, so it tops the slice with
         no hashing at all. *)
      if Lsn.equal r.prev_segment t.scl then begin
        push t r;
        t.scl <- r.lsn
      end
      else begin
        By_lsn.replace t.loose (Lsn.to_int r.lsn) r;
        By_lsn.replace t.by_prev (Lsn.to_int r.prev_segment) r
      end;
      if By_lsn.length t.by_prev > 0 then advance t
    end;
    Accepted
  end

(* Slots [i, stop) of the slice, in chain order. *)
let to_list t i stop =
  let rec build j acc = if j < i then acc else build (j - 1) (t.chain.(j) :: acc) in
  build (stop - 1) []

let chain_to_list t = to_list t t.head t.tail

let chained_records_above ?limit t lsn =
  let first = first_above t lsn in
  match limit with
  | Some n when n < t.tail - first -> to_list t first (first + n)
  | Some _ | None -> to_list t first t.tail

let iter_chained_above t lsn f =
  let first = first_above t lsn in
  for i = first to t.tail - 1 do
    f t.chain.(i)
  done;
  t.tail - first

let drop_below t ~upto =
  let dropped = ref 0 in
  let drop (r : Log_record.t) =
    t.bytes <- t.bytes - r.size_bytes;
    if Lsn.(r.lsn > t.dropped_upto) then t.dropped_upto <- r.lsn;
    incr dropped
  in
  while t.head < t.tail && Lsn.(t.chain.(t.head).Log_record.lsn <= upto) do
    drop t.chain.(t.head);
    t.chain.(t.head) <- vacant;
    t.head <- t.head + 1
  done;
  if t.head = t.tail then begin
    t.head <- 0;
    t.tail <- 0
  end;
  if By_lsn.length t.loose > 0 then
    By_lsn.filter_map_inplace
      (fun _ (r : Log_record.t) ->
        if Lsn.(r.lsn <= upto) then begin
          drop r;
          None
        end
        else Some r)
      t.loose;
  !dropped

(* Recovery-only, so it rebuilds the whole split from the surviving
   records. *)
let annul_range t ~above ~upto =
  if Lsn.(upto < above) then invalid_arg "Hot_log.annul_range: upto < above";
  t.truncations <- { above; upto } :: t.truncations;
  let stored =
    By_lsn.fold (fun _ r acc -> r :: acc) t.loose (chain_to_list t)
  in
  let doomed, kept =
    List.partition
      (fun (r : Log_record.t) -> Lsn.(r.lsn > above) && Lsn.(r.lsn <= upto))
      stored
  in
  List.iter (fun (r : Log_record.t) -> t.bytes <- t.bytes - r.size_bytes) doomed;
  clear_chain t;
  By_lsn.reset t.loose;
  By_lsn.reset t.by_prev;
  (* Re-anchor the chain: if chained records were annulled, the new tail is
     the predecessor of the oldest annulled chained record (an actual
     record LSN, which keeps segment chains linkable after recovery). *)
  if Lsn.(t.scl > above) then begin
    let oldest_chained =
      List.fold_left
        (fun acc (r : Log_record.t) ->
          if Lsn.(r.lsn <= t.scl) then
            match acc with
            | Some (best : Log_record.t) when Lsn.(best.lsn <= r.lsn) -> acc
            | _ -> Some r
          else acc)
        None doomed
    in
    match oldest_chained with
    | Some r -> t.scl <- r.prev_segment
    | None -> t.scl <- above
  end;
  t.highest <- t.scl;
  (* Ascending, so if two survivors above the SCL share a [prev_segment]
     the higher LSN is the pending one.  Recovery truncates past every
     received LSN, which leaves no such pair. *)
  List.iter
    (fun (r : Log_record.t) ->
      By_lsn.replace t.loose (Lsn.to_int r.lsn) r;
      if Lsn.(r.lsn > t.scl) then begin
        By_lsn.replace t.by_prev (Lsn.to_int r.prev_segment) r;
        if Lsn.(r.lsn > t.highest) then t.highest <- r.lsn
      end)
    (List.sort (fun (a : Log_record.t) b -> Lsn.compare a.lsn b.lsn) kept);
  (match By_lsn.find t.loose (Lsn.to_int t.scl) with
  | exception Not_found -> ()
  | top ->
    By_lsn.remove t.loose (Lsn.to_int t.scl);
    prepend t (pull_below t top [ top ]));
  advance t;
  List.length doomed
