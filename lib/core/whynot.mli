(** Why-not instances (Definition 5.1): a quintuple [(S, I, q, Ans, a)] with
    [Ans = q(I)] and [a ∉ q(I)]. The answer set is part of the input — it
    is assumed to have been computed a priori — so the constructor either
    takes it or evaluates the query once. *)

open Whynot_relational

type t = private {
  instance : Instance.t;
  query : Cq.t;
  answers : Relation.t;
  missing : Tuple.t;
}

val legality : Schema.t -> Instance.t -> (unit, Whynot_error.t) result
(** [Ok ()] when the instance is legal for the schema ({!Schema.satisfies}),
    otherwise the [`Schema_violation] that {!make} reports. *)

val make :
  ?schema:Schema.t ->
  ?answers:Relation.t ->
  instance:Instance.t ->
  query:Cq.t ->
  missing:Value.t list ->
  unit ->
  (t, Whynot_error.t) result
(** Checks that the query is safe, the missing tuple has the query's arity
    and is not among the answers ([`Invalid_whynot]), and (when a schema is
    supplied) that the instance satisfies it ([`Schema_violation]).
    [answers] defaults to [q(I)]. *)

val of_answers :
  instance:Instance.t ->
  query:Cq.t ->
  arity:int ->
  answers:Relation.t ->
  is_answer:bool ->
  missing:Tuple.t ->
  (t, Whynot_error.t) result
(** {!make} without a schema for a query already known to be safe and
    of arity [arity], whose answers [answers] hold [missing] exactly when
    [is_answer] (which must agree with [Relation.mem missing answers]
    whenever [missing] has arity [arity]): the arity and membership
    checks of {!make}, in its order and with its errors. For a caller
    that keeps [Ans] with a faster membership, as an engine keeps its
    encoding. *)

val make_exn :
  ?schema:Schema.t ->
  ?answers:Relation.t ->
  instance:Instance.t ->
  query:Cq.t ->
  missing:Value.t list ->
  unit ->
  t
(** {!make} for fixed data known to be legal — the workloads and the
    property generators build their questions with it. Raises
    [Invalid_argument] on [Error]; everything else should use {!make} or
    the {!Whynot.Engine} facade. *)

val arity : t -> int
(** The arity [m] of the query — one explanation concept per position. *)

val missing_values : t -> Value.t list
(** The components [a_1, ..., a_m] of the missing tuple. *)

val constant_pool : ?handle:Whynot_concept.Subsume_memo.inst -> t -> Value_set.t
(** [K = adom(I) ∪ {a_1, ..., a_m}] (Proposition 5.1). With a handle
    (over the question's instance) [adom(I)] is the handle's, computed
    once per handle; without one it is recomputed on every call. *)

val pp : Format.formatter -> t -> unit
(** One-line [a ∉ q(I)] summary for diagnostics. *)
