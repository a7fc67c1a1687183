(** Binary search over arrays sorted in ascending order. *)

val index : ('a -> 'a -> int) -> 'a array -> 'a -> int
(** [index compare a x]: the index of [x] in [a], which is ascending
    under [compare] and has no duplicates; [-1] when [x] is absent. *)
