type stage =
  | Lsn_allocated
  | Boxcar_flushed
  | Node_acked
  | Pgcl_advanced
  | Vcl_advanced
  | Vdl_advanced
  | Commit_acked

let stages =
  [
    Lsn_allocated; Boxcar_flushed; Node_acked; Pgcl_advanced; Vcl_advanced;
    Vdl_advanced; Commit_acked;
  ]

let n_stages = List.length stages

let stage_index = function
  | Lsn_allocated -> 0
  | Boxcar_flushed -> 1
  | Node_acked -> 2
  | Pgcl_advanced -> 3
  | Vcl_advanced -> 4
  | Vdl_advanced -> 5
  | Commit_acked -> 6

let stage_of_index i = List.nth stages i

let stage_name = function
  | Lsn_allocated -> "lsn_allocated"
  | Boxcar_flushed -> "boxcar_flushed"
  | Node_acked -> "node_acked"
  | Pgcl_advanced -> "pgcl_advanced"
  | Vcl_advanced -> "vcl_advanced"
  | Vdl_advanced -> "vdl_advanced"
  | Commit_acked -> "commit_acked"

let n = n_stages
let i_flushed = stage_index Boxcar_flushed
let i_acked = stage_index Node_acked
let i_pgcl = stage_index Pgcl_advanced
let i_vcl = stage_index Vcl_advanced
let i_vdl = stage_index Vdl_advanced
let i_commit = stage_index Commit_acked

(* Each allocated record owns [stride] ints of [slots]: its [n] stage
   times (-1 = not yet observed), its LSN, its PG, and the sequence number
   of the next record of the same PG (-1: none yet).  Records are numbered
   by allocation order ("seq"); record [s] lives at entry [s land mask]. *)
let f_lsn = n
let f_pg = n + 1
let f_next = n + 2
let stride = n + 3

type t = {
  registry : Registry.t;
  capacity : int;
  hists : Simcore.Histogram.t option array; (* (from * n + to) -> histogram *)
  mutable slots : int array;
  mutable mask : int; (* entries - 1; entries is a power of two *)
  mutable lo : int; (* oldest live record *)
  mutable next : int; (* next record to allocate *)
  mutable vcl_at : int; (* oldest record VCL does not cover yet *)
  mutable vdl_at : int; (* oldest record VDL does not cover yet *)
  mutable acks : int array; (* by pg: oldest record without an ack, or -1 *)
  mutable pgcls : int array; (* by pg: oldest record PGCL does not cover *)
  mutable tails : int array; (* by pg: newest record *)
}

let create ?(capacity = 16384) ~registry () =
  if capacity <= 0 then invalid_arg "Obs.Commit_path.create: capacity";
  let rec entries e = if e >= 64 || e >= capacity then e else entries (2 * e) in
  let entries = entries 1 in
  {
    registry;
    capacity;
    hists = Array.make (n * n) None;
    slots = Array.make (entries * stride) (-1);
    mask = entries - 1;
    lo = 0;
    next = 0;
    vcl_at = 0;
    vdl_at = 0;
    acks = Array.make 8 (-1);
    pgcls = Array.make 8 (-1);
    tails = Array.make 8 (-1);
  }

let stage_label a b = stage_name a ^ "\xe2\x86\x92" ^ stage_name b

let hist_for t ~from ~upto =
  let idx = (from * n) + upto in
  match t.hists.(idx) with
  | Some h -> h
  | None ->
    let label = stage_label (stage_of_index from) (stage_of_index upto) in
    let h =
      Registry.histogram t.registry ~labels:[ ("stage", label) ] "commit_stage_ns"
    in
    t.hists.(idx) <- Some h;
    h

let record_pair t ~from ~upto span =
  Simcore.Histogram.record (hist_for t ~from ~upto) span

let base t s = (s land t.mask) * stride
let lsn_of t s = t.slots.(base t s + f_lsn)

(* The first mark per (record, stage) wins.  It records the span from the
   nearest earlier observed stage, plus the marquee pair
   vcl_advanced→commit_acked when that nearest stage is VDL's. *)
let mark t s idx ~at =
  let b = base t s in
  let slots = t.slots in
  if slots.(b + idx) < 0 then begin
    slots.(b + idx) <- at;
    let p = ref (idx - 1) in
    while !p >= 0 && slots.(b + !p) < 0 do decr p done;
    let p = !p in
    if p >= 0 then record_pair t ~from:p ~upto:idx (at - slots.(b + p));
    if idx = i_commit && p <> i_vcl && slots.(b + i_vcl) >= 0 then
      record_pair t ~from:i_vcl ~upto:idx (at - slots.(b + i_vcl))
  end

(* The oldest live record at or above [lsn] ([t.next] if none).  LSNs rise
   with seq and are dense except where a fenced writer recovered without a
   crash, so the guess from the newest record almost always hits; a binary
   search covers the rest. *)
let lower_bound t lsn =
  if t.next = t.lo || lsn > lsn_of t (t.next - 1) then t.next
  else begin
    let last = t.next - 1 in
    let s = last - (lsn_of t last - lsn) in
    if s >= t.lo && lsn_of t s = lsn then s
    else begin
      let lo = ref t.lo and hi = ref last in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if lsn_of t mid < lsn then lo := mid + 1 else hi := mid
      done;
      !lo
    end
  end

(* The live record holding [lsn], or -1. *)
let find t lsn =
  let s = lower_bound t lsn in
  if s < t.next && lsn_of t s = lsn then s else -1

(* Drop the oldest record; cursors standing on it step past it. *)
let evict t =
  let s = t.lo in
  let b = base t s in
  let pg = t.slots.(b + f_pg) and next = t.slots.(b + f_next) in
  if t.acks.(pg) = s then t.acks.(pg) <- next;
  if t.pgcls.(pg) = s then t.pgcls.(pg) <- next;
  if t.vcl_at = s then t.vcl_at <- s + 1;
  if t.vdl_at = s then t.vdl_at <- s + 1;
  t.lo <- s + 1

let grow t =
  let entries = 2 * (t.mask + 1) in
  let old = t.slots and old_mask = t.mask in
  t.slots <- Array.make (entries * stride) (-1);
  t.mask <- entries - 1;
  for s = t.lo to t.next - 1 do
    Array.blit old ((s land old_mask) * stride) t.slots (base t s) stride
  done

let grow_pgs t pg =
  let len = max (pg + 1) (2 * Array.length t.acks) in
  let extend a =
    let a' = Array.make len (-1) in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  t.acks <- extend t.acks;
  t.pgcls <- extend t.pgcls;
  t.tails <- extend t.tails

let allocated t ~at ~lsn ~pg =
  if t.next - t.lo = t.capacity then evict t
  else if t.next - t.lo > t.mask then grow t;
  if pg >= Array.length t.acks then grow_pgs t pg;
  let s = t.next in
  let b = base t s in
  Array.fill t.slots b stride (-1);
  t.slots.(b) <- at;
  t.slots.(b + f_lsn) <- lsn;
  t.slots.(b + f_pg) <- pg;
  t.next <- s + 1;
  if t.tails.(pg) >= t.lo then t.slots.(base t t.tails.(pg) + f_next) <- s;
  t.tails.(pg) <- s;
  if t.acks.(pg) < 0 then t.acks.(pg) <- s;
  if t.pgcls.(pg) < 0 then t.pgcls.(pg) <- s

(* Mark [idx] on [pg]'s records from [cursor]'s up to LSN [upto], moving
   the cursor past them. *)
let advance_cursor t cursor ~at ~pg ~upto idx =
  if pg >= 0 && pg < Array.length cursor then begin
    let continue = ref true in
    while !continue do
      let s = cursor.(pg) in
      if s >= 0 && lsn_of t s <= upto then begin
        mark t s idx ~at;
        cursor.(pg) <- t.slots.(base t s + f_next)
      end
      else continue := false
    done
  end

let flushed t ~at ~pg ~lsn_lo ~lsn_hi =
  let s = ref (lower_bound t lsn_lo) in
  while !s < t.next && lsn_of t !s <= lsn_hi && t.slots.(base t !s + f_pg) <> pg do
    incr s
  done;
  let s = ref (if !s < t.next then !s else -1) in
  while !s >= 0 && lsn_of t !s <= lsn_hi do
    mark t !s i_flushed ~at;
    s := t.slots.(base t !s + f_next)
  done

let acked t ~at ~pg ~scl = advance_cursor t t.acks ~at ~pg ~upto:scl i_acked

let pgcl_advanced t ~at ~pg ~pgcl =
  advance_cursor t t.pgcls ~at ~pg ~upto:pgcl i_pgcl

let vcl_advanced t ~at ~vcl ~durable =
  while t.vcl_at < t.next && lsn_of t t.vcl_at <= vcl do
    let s = t.vcl_at in
    Simcore.Histogram.record_span durable t.slots.(base t s) at;
    mark t s i_vcl ~at;
    t.vcl_at <- s + 1
  done

let vdl_advanced t ~at ~vdl =
  while t.vdl_at < t.next && lsn_of t t.vdl_at <= vdl do
    mark t t.vdl_at i_vdl ~at;
    t.vdl_at <- t.vdl_at + 1
  done

let commit_acked t ~at ~lsn =
  let s = find t lsn in
  if s >= 0 then mark t s i_commit ~at

let clear t =
  t.lo <- t.next;
  t.vcl_at <- t.next;
  t.vdl_at <- t.next;
  Array.fill t.acks 0 (Array.length t.acks) (-1);
  Array.fill t.pgcls 0 (Array.length t.pgcls) (-1)

let timelines t =
  List.init (t.next - t.lo) (fun i ->
      let s = t.lo + i in
      let b = base t s in
      (t.slots.(b + f_lsn), t.slots.(b + f_pg), Array.sub t.slots b n))
