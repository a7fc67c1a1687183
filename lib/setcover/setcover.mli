(** SET COVER: the combinatorial substrate of the paper's lower bounds
    (Theorem 5.1(2) and Proposition 6.4 are proved by reductions from it).
    Universe elements are integers; sets are named. *)

type t = {
  universe : int list;
  sets : (string * int list) list;
}

val make : universe:int list -> sets:(string * int list) list -> t
(** Normalises (sorts, dedups) and drops out-of-universe elements. *)

val is_cover : t -> string list -> bool
(** Do the named sets jointly cover the universe? *)

val exact_min_cover : t -> string list option
(** A minimum-cardinality cover, by branch-and-bound ([None] if even all
    sets together do not cover). Exponential in general. *)

val exists_cover_of_size : t -> int -> bool
(** Is there a cover using at most [k] sets? (The NP-complete decision
    version.) *)

val random :
  ?seed:int -> n_elements:int -> n_sets:int -> density:float -> unit -> t
(** Random instance: each set contains each element independently with the
    given probability; every element is ensured to be in at least one set. *)
