(** A relation: a finite set of tuples, all of the same arity.

    The empty relation carries its arity so that projections and products of
    empty relations remain well-typed.

    A relation is built once, in bulk: its tuples are kept in one array,
    ascending by {!Tuple.compare} and without duplicates, so membership is
    a binary search and the set operations are merges. The bulk
    constructors ({!of_list}, {!of_array}, {!build}) sort and de-duplicate
    their input once; {!add} and {!remove} copy the array and suit only a
    few changes. *)

type t

val empty : arity:int -> t
val arity : t -> int
val is_empty : t -> bool
val cardinal : t -> int

val add : Tuple.t -> t -> t
(** One more tuple, in time linear in the relation's size.
    @raise Invalid_argument on arity mismatch. *)

val mem : Tuple.t -> t -> bool
val remove : Tuple.t -> t -> t

val of_list : arity:int -> Tuple.t list -> t
(** The bulk constructor: duplicates collapse into one tuple, and every
    tuple's arity is checked.
    @raise Invalid_argument on the first tuple whose arity is not
    [arity]. *)

val of_array : arity:int -> Tuple.t array -> t
(** {!of_list} over an array, which is left as it is. *)

val of_value_lists : arity:int -> Value.t list list -> t
val to_list : t -> Tuple.t list

val tuples : t -> Tuple.t array
(** The relation's own array, ascending and without duplicates. It is
    shared, not copied: callers must not mutate it. *)

(** {2 Building a relation from a stream of tuples} *)

type builder
(** A relation under construction, for producers that find their tuples
    one at a time with duplicates (a join's projected bindings). *)

val builder : arity:int -> builder

val push : builder -> Tuple.t -> unit
(** Amortised constant time. A builder of 65536 tuples or more drops its
    duplicates before it grows, so it holds at most twice the distinct
    tuples pushed, or 131072.
    @raise Invalid_argument on arity mismatch. *)

val build : builder -> t
(** The relation of the tuples pushed so far, sorted and de-duplicated
    once. The builder stays usable. *)

val union : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

val filter : (Tuple.t -> bool) -> t -> t
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tuple.t -> unit) -> t -> unit
val exists : (Tuple.t -> bool) -> t -> bool
val for_all : (Tuple.t -> bool) -> t -> bool

val project : int list -> t -> t
(** [project [a1; ...; ak] r]: the paper's [pi_{A1,...,Ak}(r)] (1-based,
    duplicates removed — set semantics). *)

val column : int -> t -> Value_set.t
(** [column a r]: the set of values in attribute [a]. *)

val select : (int * Cmp_op.t * Value.t) list -> t -> t
(** [select conds r]: tuples satisfying every [attr op const] condition. *)

val values : t -> Value_set.t
(** All constants occurring in the relation. *)

val product : t -> t -> t
(** Cartesian product (arities add up). *)

val pp : Format.formatter -> t -> unit
