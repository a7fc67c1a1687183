(** Tuples of constants. Attributes are 1-based positions, as in the paper
    ("an attribute [A] of a k-ary relation name [R] is a number [i] such that
    [1 <= i <= k]"). *)

type t = private Value.t array
(** Read a tuple's values in place with [(t :> Value.t array)]; a tuple
    is never mutated. *)

val of_list : Value.t list -> t

val unsafe_of_array : Value.t array -> t
(** The array itself, no copy: the caller hands it over and never
    mutates it again. *)

val to_list : t -> Value.t list
val arity : t -> int

val get : t -> int -> Value.t
(** [get t a] is the value at 1-based attribute [a].
    @raise Invalid_argument if out of range. *)

val append : t -> t -> t
(** Concatenation (arities add up) — what {!Relation.product} builds its
    tuples with, without round-tripping through lists. *)

val proj : int list -> t -> t
(** [proj [a1; ...; ak] t] is the tuple of the [a1]-th, ..., [ak]-th
    components (1-based), i.e. the paper's [pi_{A1,...,Ak}(t)]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
