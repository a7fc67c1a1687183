(** Intervals over {!Value.t}, used to reason about conjunctions of
    comparison conditions on a single attribute.

    A conjunction of conditions [x op1 c1, ..., x opn cn] on one attribute
    denotes an interval (possibly a point, possibly empty). Intervals support
    meet (conjunction), emptiness, membership, and inclusion — exactly the
    operations needed by condition-implication tests in concept subsumption
    and CQ containment. *)

type bound =
  | Unbounded
  | Open of Value.t   (** strict bound, excluded *)
  | Closed of Value.t (** inclusive bound *)

type t = private {
  lo : bound;
  hi : bound;
}

val top : t
(** The whole domain. *)

val make : bound -> bound -> t

val of_condition : Cmp_op.t -> Value.t -> t
(** The interval denoted by [x op c]. *)

val meet : t -> t -> t

val is_empty : t -> bool
(** Emptiness in our realisation of [Const]: an open-open interval whose
    endpoints admit no value in between (per {!Value.between}) is empty. *)

val is_point : t -> Value.t option
(** [Some c] when the interval denotes exactly [{c}]. *)

val mem : Value.t -> t -> bool

val subset : t -> t -> bool
(** [subset i j] holds iff every value of [i] belongs to [j]. Exact: empty
    intervals are subsets of everything; bound comparison otherwise, with
    density gaps accounted for via {!Value.between}. *)

val sample : t -> Value.t option
(** Some value inside the interval, if the interval is non-empty. *)

val to_conditions : t -> (Cmp_op.t * Value.t) list
(** A minimal list of conditions denoting the interval ([[]] for {!top}).
    A point interval becomes a single [=] condition. *)
