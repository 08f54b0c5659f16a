(* Fixture: rules match the paths the compiler resolved, so a module
   alias, a local open or an alias of Wal.Lsn hides nothing. *)
module H = Hashtbl
let keys tbl = H.fold (fun k _ acc -> k :: acc) tbl []
let roll () = Random.(int 6)
module L = Wal.Lsn
let bump l = L.to_int l + 1
