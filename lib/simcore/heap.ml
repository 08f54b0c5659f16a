(* Array-backed binary min-heap: classic sift-up / sift-down. *)

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < t.size && t.cmp t.data.(l) t.data.(i) < 0 then l else i in
  let s = if r < t.size && t.cmp t.data.(r) t.data.(s) < 0 then r else s in
  if s <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(s);
    t.data.(s) <- tmp;
    sift_down t s
  end

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some t.data.(0)

let pop_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_exn: empty heap"
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    top
  end

let pop t = if t.size = 0 then None else Some (pop_exn t)

let clear t =
  t.data <- [||];
  t.size <- 0

let to_list t =
  let rec take i acc = if i < 0 then acc else take (i - 1) (t.data.(i) :: acc) in
  take (t.size - 1) []
