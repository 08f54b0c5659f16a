(* Host-speed calibration.

   The benchmark runs on shared hosts whose speed drifts by tens of percent
   over seconds to minutes (a busy neighbour on the same core or memory
   bus), with no steal time to show for it.  Wall time alone then measures
   the neighbours as much as the program.  So every measured phase is cut
   into short slices, and between slices the benchmark times a fixed kernel
   of its own.  The kernel's time over its time on a quiet reference host
   is the host's slowdown; each slice's wall time divided by the slowdown
   around it is the time the slice would have taken on the reference host.

   The kernel has three parts, for the kinds of work the simulator's time
   goes to: branchy integer code on a table that fits in L2, a streaming
   write over 2 MB (the way the minor heap is filled), and a dependent
   pointer chase over 8 MB.  Each part slows down with a busy host by its
   own amount, and the simulator by about their mean, so the slowdown is
   the mean of the three parts' ratios.  The kernel allocates nothing on the
   OCaml heap, so it moves neither the program's GC nor [top_heap_words].
   It is the benchmark's own code: a change to the program cannot speed it
   up. *)

module A1 = Bigarray.Array1

let slots = 4096
let table = Array.make slots 0
let heap = Array.make slots 0
let stream_len = 1 lsl 18
let chase_len = 1 lsl 20
let chase_steps = 3_000
let big n = A1.create Bigarray.int Bigarray.c_layout n

let stream =
  let a = big stream_len in
  A1.fill a 0;
  a

(* One cycle through every slot (Sattolo's shuffle), from a fixed LCG. *)
let chase =
  let a = big chase_len in
  for i = 0 to chase_len - 1 do
    A1.unsafe_set a i i
  done;
  let st = ref 12345 in
  for i = chase_len - 1 downto 1 do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    let j = !st mod i in
    let t = A1.unsafe_get a i in
    A1.unsafe_set a i (A1.unsafe_get a j);
    A1.unsafe_set a j t
  done;
  a

let rec sift a i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let t = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- t;
      sift a c n
    end
  end

(* Open-addressing inserts, then a partial heap sort of the table. *)
let branchy () =
  Array.fill table 0 slots 0;
  let x = ref 1 and probes = ref 0 in
  for i = 1 to 1500 do
    x := ((!x * 0x5DEECE66D) + i) land 0x3fffffffffff;
    let k = (!x lsr 7) lor 1 in
    let h = ref (k land (slots - 1)) in
    while table.(!h) <> 0 && table.(!h) <> k do
      incr probes;
      h := (!h + 1) land (slots - 1)
    done;
    table.(!h) <- k
  done;
  Array.blit table 0 heap 0 slots;
  for i = (slots / 2) - 1 downto 0 do
    sift heap i slots
  done;
  for n = slots - 1 downto slots - 1000 do
    let t = heap.(0) in
    heap.(0) <- heap.(n);
    heap.(n) <- t;
    sift heap 0 n
  done;
  !probes + heap.(slots / 2)

let streaming () =
  let s = ref 0 in
  for i = 0 to stream_len - 1 do
    A1.unsafe_set stream i (i + !s);
    s := !s lxor i
  done;
  !s

let pointer_chase () =
  let p = ref 0 in
  for _ = 1 to chase_steps do
    p := A1.unsafe_get chase !p
  done;
  !p

(* Each part with its time on the reference host: the fastest tenth of
   samples on a 2-vCPU Xeon VM, the host the bounds were measured on. *)
let parts = [| (branchy, 430_000.); (streaming, 210_000.); (pointer_chase, 30_000.) |]

(* The fastest of three runs, so a preemption inside one run does not
   count as a slow host. *)
let best_of_3 f =
  let best = ref max_int in
  for _ = 1 to 3 do
    let t0 = Clock.now_ns () in
    ignore (Sys.opaque_identity (f ()) : int);
    let dt = Clock.now_ns () - t0 in
    if dt < !best then best := dt
  done;
  float_of_int !best

(* The host's slowdown now: 1.0 at the reference host's speed. *)
let sample () =
  Array.fold_left (fun acc (f, ref_ns) -> acc +. (best_of_3 f /. ref_ns)) 0. parts
  /. float_of_int (Array.length parts)

(* A meter accumulates timed slices, each as measured and rescaled. *)
type t = {
  mutable before : float;  (** Slowdown sampled just before the next slice. *)
  mutable wall_ns : int;  (** Σ slice wall time, as measured. *)
  mutable ref_ns : float;  (** Σ slice wall time ÷ slowdown. *)
  mutable slowdowns : float list;  (** Every sample taken. *)
}

let create () =
  let s = sample () in
  { before = s; wall_ns = 0; ref_ns = 0.; slowdowns = [ s ] }

(* Run [f] as one slice: time it, then sample the slowdown.  The slice is
   rescaled by the mean of the samples on either side of it.  Sampling is
   outside every slice. *)
let time m f =
  let t0 = Clock.now_ns () in
  let r = f () in
  let dt = Clock.now_ns () - t0 in
  let s = sample () in
  m.wall_ns <- m.wall_ns + dt;
  m.ref_ns <- m.ref_ns +. (float_of_int dt *. 2. /. (m.before +. s));
  m.before <- s;
  m.slowdowns <- s :: m.slowdowns;
  r

let median_slowdown meters =
  let a = Array.of_list (List.concat_map (fun m -> m.slowdowns) meters) in
  Array.sort Float.compare a;
  a.(Array.length a / 2)
