(* Sim-state purity fixture outside the annotation's home: the annotated
   [stray] global (line 4) is itself the finding. *)

let stray = ref 0 [@@sim_global]
let peek () = !stray
