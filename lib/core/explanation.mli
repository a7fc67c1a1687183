(** Explanations and most-general explanations (Definitions 3.2, 3.3).

    An explanation for [a ∉ q(I)] w.r.t. an S-ontology [O] is a tuple of
    concepts [(C_1, ..., C_m)] such that every [a_i ∈ ext(C_i, I)] and the
    product of the extensions misses every answer tuple. *)

open Whynot_relational

type 'c t = 'c list
(** One concept per position of the missing tuple. *)

val covers_missing : 'c Ontology.t -> Whynot.t -> 'c t -> bool
(** First condition: [a_i ∈ ext(C_i, I)] for every [i]. *)

val kills : 'c Ontology.t -> 'c t -> Tuple.t -> bool
(** Whether the answer tuple lies {e outside} the product of extensions,
    i.e. some component of the tuple escapes the corresponding concept. *)

val disjoint_from_answers : 'c Ontology.t -> Whynot.t -> 'c t -> bool
(** Second condition: the product of extensions misses every answer. *)

val is_explanation : 'c Ontology.t -> Whynot.t -> 'c t -> bool
(** Both conditions: {!covers_missing} and {!disjoint_from_answers}. *)

(** {1 Frontiers}

    Algorithm 2, CHECK-MGE over [O_I] and Algorithm 1's upgrade loop all
    ask the same question many times: is the explanation [e], with
    position [j] replaced by [c], still an explanation? A frontier
    answers it without re-testing all [|Ans| × arity] memberships.

    A frontier holds an explanation [(C_1, ..., C_m)] and, for every answer
    [t], which positions exclude it ([t_j ∉ ext(C_j)]). Its invariant is
    the sets [D_j]: the [j]-th components of the answers that position
    [j] {e alone} excludes. Every answer is excluded somewhere, because
    the tuple is an explanation.

    {!Frontier.accepts} is exact, with no assumption on [c] (it need not
    lie above [C_j]). Replacing [C_j] leaves every answer excluded at
    another position excluded. The remaining answers are those excluded
    only at [j], whose components at [j] make up [D_j]. So the modified
    tuple is an explanation iff [a_j ∈ ext(c)] and [ext(c) ∩ D_j = ∅].
    That is one extension fetch ([o.mem c], applied once) and [1 + |D_j|]
    set lookups, instead of [|Ans| × arity] membership tests. The frontier
    keeps one such partially applied predicate per position ({!mem}). *)

module Frontier : sig
  type 'c t
  (** Mutable: {!replace} updates it in place. *)

  val make : ('c -> Value.t -> bool) -> Whynot.t -> 'c list -> 'c t option
  (** [make mem wn e]: a frontier over the tuple, or [None] exactly when
      it is not an explanation ({!is_explanation}) for the ontology whose
      [Ontology.mem] is [mem] — the only part of an ontology a frontier
      reads. Costs one extension fetch per position and
      [arity × (1 + |Ans|)] set lookups. *)

  val concepts : 'c t -> 'c list
  (** The current explanation. *)

  val concept : 'c t -> int -> 'c
  (** Its concept at 0-based position [j]. *)

  val mem : 'c t -> int -> Value.t -> bool
  (** [mem f j v] iff [v] is in the extension of the concept at
      position [j]: a set lookup on the extension the frontier fetched
      when that concept arrived. *)

  val only : 'c t -> int -> Value_set.t
  (** [D_j]: the [j]-th components of the answers excluded at position
      [j] and nowhere else. *)

  val accepts : 'c t -> int -> 'c -> bool
  (** [accepts f j c] iff the current explanation with [c] at position [j]
      is an explanation: [a_j ∈ ext(c)] and no [v ∈ D_j] is in [ext(c)].
      One extension fetch, then [1 + |D_j|] set lookups. *)

  val replace : 'c t -> int -> 'c -> unit
  (** [replace f j c] puts [c] at position [j]: it fetches [ext(c)] once,
      re-tests column [j] of the exclusion flags ([|Ans|] set lookups)
      and recomputes every [D_k] without allocating per answer. Call it
      only when [accepts f j c] holds.
      @raise Invalid_argument, leaving [f] unchanged, when some answer
      would be excluded nowhere. *)
end

val less_general : 'c Ontology.t -> 'c t -> 'c t -> bool
(** [less_general o e e'] iff [e ≤_O e']: componentwise subsumption. *)

val strictly_less_general : 'c Ontology.t -> 'c t -> 'c t -> bool
(** [e <_O e']: [e ≤_O e'] and not [e' ≤_O e]. *)

val equivalent : 'c Ontology.t -> 'c t -> 'c t -> bool
(** [e ≤_O e'] and [e' ≤_O e] — the equivalence classes modulo which
    {!Exhaustive.all_mges} keeps one representative. *)

val pp : 'c Ontology.t -> Format.formatter -> 'c t -> unit
(** Print as [(C_1, ..., C_m)] using the ontology's concept printer. *)
