open Membership

let mk id az kind =
  { id = Member_id.of_int id; az = Az.of_int az; kind }

let aurora_v6 ?(first_id = 0) () =
  [
    mk first_id 0 Full;
    mk (first_id + 1) 0 Full;
    mk (first_id + 2) 1 Full;
    mk (first_id + 3) 1 Full;
    mk (first_id + 4) 2 Full;
    mk (first_id + 5) 2 Full;
  ]

let aurora_tiered ?(first_id = 0) () =
  [
    mk first_id 0 Full;
    mk (first_id + 1) 0 Tail;
    mk (first_id + 2) 1 Full;
    mk (first_id + 3) 1 Tail;
    mk (first_id + 4) 2 Full;
    mk (first_id + 5) 2 Tail;
  ]

let three_copies ?(first_id = 0) () =
  [ mk first_id 0 Full; mk (first_id + 1) 1 Full; mk (first_id + 2) 2 Full ]

let four_copies_two_az ?(first_id = 0) () =
  [
    mk first_id 0 Full;
    mk (first_id + 1) 0 Full;
    mk (first_id + 2) 1 Full;
    mk (first_id + 3) 1 Full;
  ]

let scheme_4_of_6 = Plain { write_threshold = 4; read_threshold = 3 }
let scheme_2_of_3 = Plain { write_threshold = 2; read_threshold = 2 }
let scheme_3_of_4 = Plain { write_threshold = 3; read_threshold = 2 }
let scheme_tiered = Tiered { mixed_write = 4; mixed_read = 3 }

type t = V6 | Tiered | V3

let membership = function
  | V6 -> create ~scheme:scheme_4_of_6 (aurora_v6 ())
  | Tiered -> create ~scheme:scheme_tiered (aurora_tiered ())
  | V3 -> create ~scheme:scheme_2_of_3 (three_copies ())

let members_in_az roster az =
  List.fold_left
    (fun acc (m : member) ->
      if Az.equal m.az az then Member_id.Set.add m.id acc else acc)
    Member_id.Set.empty roster
