(* Sim-state purity fixtures: [naked] and [table] are unannotated top-level
   mutables (the two expected findings); [blessed] and [blessed_table] carry
   [@@sim_global]; [fresh] is a function, so its table is per call. *)

let naked = ref 0
let table : (int, int) Hashtbl.t = Hashtbl.create 8
let blessed = ref 0 [@@sim_global]
let blessed_table : (int, int) Hashtbl.t = Hashtbl.create 8 [@@sim_global]
let fresh () : (int, int) Hashtbl.t = Hashtbl.create 8
let bump k = Hashtbl.replace table k (k + 1)
let peek () = !naked + !blessed + Hashtbl.length blessed_table
