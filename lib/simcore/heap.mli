(** Imperative binary min-heap keyed by a user-supplied comparison.

    Used as the simulator's event queue and anywhere a priority queue is
    needed.  Amortized O(log n) push/pop.  Not thread-safe (the simulator is
    single-threaded by design). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered so that the minimum element under
    [cmp] is popped first. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

val pop_exn : 'a t -> 'a
(** Option-free {!pop}.
    @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Snapshot of current contents in unspecified order. *)
