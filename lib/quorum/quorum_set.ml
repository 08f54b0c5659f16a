type t =
  | Atom of { threshold : int; members : Member_id.Set.t }
  | All of t list
  | Any of t list

let k_of k members =
  if k < 0 then invalid_arg "Quorum_set.k_of: negative threshold";
  let set = Member_id.set_of_list members in
  if Member_id.Set.cardinal set <> List.length members then
    invalid_arg "Quorum_set.k_of: duplicate members";
  if k > Member_id.Set.cardinal set then
    invalid_arg "Quorum_set.k_of: threshold exceeds member count";
  Atom { threshold = k; members = set }

let rec equal a b =
  match (a, b) with
  | Atom { threshold = ka; members = ma }, Atom { threshold = kb; members = mb }
    ->
    Int.equal ka kb && Member_id.Set.equal ma mb
  | All xs, All ys | Any xs, Any ys -> List.equal equal xs ys
  | (Atom _ | All _ | Any _), _ -> false

let all ts = All ts
let any ts = Any ts

let rec members = function
  | Atom { members = m; _ } -> m
  | All ts | Any ts ->
    List.fold_left
      (fun acc t -> Member_id.Set.union acc (members t))
      Member_id.Set.empty ts

(* An atom stops testing members once [threshold] of them have passed. *)
let rec satisfied_by t pass =
  match t with
  | Atom { threshold; members } ->
    threshold <= 0
    ||
    let passed = ref 0 in
    Member_id.Set.exists
      (fun m ->
        if pass m then incr passed;
        !passed >= threshold)
      members
  | All ts -> List.for_all (fun t -> satisfied_by t pass) ts
  | Any ts -> List.exists (fun t -> satisfied_by t pass) ts

let satisfied t responsive =
  satisfied_by t (fun m -> Member_id.Set.mem m responsive)

let popcount =
  let rec go acc v = if v = 0 then acc else go (acc + (v land 1)) (v lsr 1) in
  fun v -> go 0 v

(* Removal sets are enumerated as bitmasks over [live]; one no smaller than
   the best break found so far is skipped without building its survivor
   set. *)
let margin t live =
  if not (satisfied t live) then -1
  else begin
    let arr = Array.of_seq (Member_id.Set.to_seq live) in
    let n = Array.length arr in
    let best = ref (n + 1) in
    for mask = 1 to (1 lsl n) - 1 do
      let c = popcount mask in
      if c < !best then begin
        let remaining = ref live in
        for i = 0 to n - 1 do
          if mask land (1 lsl i) <> 0 then
            remaining := Member_id.Set.remove arr.(i) !remaining
        done;
        if not (satisfied t !remaining) then best := c
      end
    done;
    if !best > n then n else !best - 1
  end

(* Enumerate all subsets of a member universe as bitmasks. *)
let universe_array set = Array.of_list (Member_id.Set.elements set)

let subset_of_mask arr mask =
  let s = ref Member_id.Set.empty in
  Array.iteri (fun i m -> if mask land (1 lsl i) <> 0 then s := Member_id.Set.add m !s) arr;
  !s

let for_all_subsets universe f =
  let arr = universe_array universe in
  let n = Array.length arr in
  if n > 22 then invalid_arg "Quorum_set: universe too large for enumeration";
  let ok = ref true in
  let mask = ref 0 in
  let limit = 1 lsl n in
  while !ok && !mask < limit do
    if not (f (subset_of_mask arr !mask)) then ok := false;
    incr mask
  done;
  !ok

let min_cardinality t =
  let universe = members t in
  let best = ref (Member_id.Set.cardinal universe + 1) in
  ignore
    (for_all_subsets universe (fun s ->
         if satisfied t s then begin
           let c = Member_id.Set.cardinal s in
           if c < !best then best := c
         end;
         true));
  if !best > Member_id.Set.cardinal universe then max_int else !best

(* Monotone-formula overlap: read and write quorums always intersect iff no
   subset S satisfies [read] while its complement satisfies [write]. *)
let overlaps ~read ~write =
  let universe = Member_id.Set.union (members read) (members write) in
  for_all_subsets universe (fun s ->
      not (satisfied read s && satisfied write (Member_id.Set.diff universe s)))

let self_overlapping t =
  let universe = members t in
  for_all_subsets universe (fun s ->
      not (satisfied t s && satisfied t (Member_id.Set.diff universe s)))

let rec pp fmt = function
  | Atom { threshold; members } ->
    Format.fprintf fmt "%d/%d of %a" threshold
      (Member_id.Set.cardinal members)
      Member_id.pp_set members
  | All ts ->
    Format.fprintf fmt "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " AND ")
         pp)
      ts
  | Any ts ->
    Format.fprintf fmt "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " OR ")
         pp)
      ts

module Rule = struct
  type quorum = t

  type t = { read : quorum; write : quorum }

  let make ~read ~write =
    if not (overlaps ~read ~write) then
      Error "read and write quorums do not always overlap (rule 1 of §2.1)"
    else if not (self_overlapping write) then
      Error "two write quorums can be disjoint (rule 2 of §2.1)"
    else Ok { read; write }

  let make_exn ~read ~write =
    match make ~read ~write with
    | Ok t -> t
    | Error msg -> invalid_arg ("Quorum_set.Rule.make_exn: " ^ msg)

  let members t = Member_id.Set.union (members t.read) (members t.write)

  let pp fmt t =
    Format.fprintf fmt "read: %a; write: %a" pp t.read pp t.write
end
