(** Polymorphic binary min-heap with an explicit comparator. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (smallest first). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val copy : 'a t -> 'a t
(** An independent heap holding the same elements (shared, not copied). *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Elements in unspecified order (heap is not modified). *)
