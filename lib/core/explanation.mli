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

    A frontier holds an explanation [(C_1, ..., C_m)] and, for every
    position [j], which answers [t] it covers ([t_j ∈ ext(C_j)]); the
    other positions exclude [t]. Its invariant is
    the sets [D_j]: the [j]-th components of the answers that position
    [j] {e alone} excludes. Every answer is excluded somewhere, because
    the tuple is an explanation.

    {!Frontier.accepts} is exact, with no assumption on [c] (it need not
    lie above [C_j]). Replacing [C_j] leaves every answer excluded at
    another position excluded. The remaining answers are those excluded
    only at [j], whose components at [j] make up [D_j]. So the modified
    tuple is an explanation iff [a_j ∈ ext(c)] and [ext(c) ∩ D_j = ∅].
    That is one membership predicate ([member c], applied once) and
    [1 + |D_j|] tests, instead of [|Ans| × arity].

    {2 Ids}

    A frontier works on integer ids, not values. Id [i < |adom|] is
    [(Subsume_memo.adom_array h).(i)] of the handle [h] the answers were
    encoded with, so a membership test on a selection-free lub is one
    mask inclusion against [(Subsume_memo.posmasks h).(i)], with no
    hashing. The answers' values outside the active domain (head
    constants of the query) take the next ids, and the missing values
    outside both the ones after. Without a handle every value is
    outside. {!encode} turns [Ans] into ids once: an engine keeps the
    encoding beside its cached [Ans]; a caller without one encodes per
    call ([|Ans| × arity] lookups). {!ids} adds one question's missing
    tuple ([arity] lookups). A value is looked up by binary search in
    the sorted active domain ({!Whynot_concept.Subsume_memo.adom_index}),
    which reads fewer cold cache lines than a hash lookup, and hashed
    only when it lies outside.

    {2 Layout}

    The encoding holds, per position [j], the distinct ids of column [j]
    with, for each, the answers holding it there (compressed postings),
    and one flat array of each answer's index among those ids at every
    position. A frontier keeps
    one [|Ans|]-bit set [covered_j] per position: the answers whose
    component [j] is in the extension of [C_j]. The tuple is an
    explanation iff [⋀_k covered_k = ∅], and the answers excluded at
    [j] alone are [¬covered_j ∧ ⋀_{k≠j} covered_k], both computed a
    word at a time; [D_j] maps them back to column [j]'s ids.

    Per call: {!make} costs [arity] predicate builds and one predicate
    call per distinct id of each column; {!accepts} one predicate build
    and [1 + |D_j|] calls; {!replace} one build, one call per distinct
    id of column [j], and the recomputation of every [D_j] over
    [arity × ⌈|Ans| / 63⌉] words. *)

module Frontier : sig
  type answers
  (** [Ans] as ids, laid out per position. *)

  val encode : ?handle:Whynot_concept.Subsume_memo.inst -> Relation.t -> answers
  (** [encode ~handle ans]: ids [0 .. |adom|-1] are the handle's active
      domain (computed on first use), then [ans]'s values outside it.
      The encoding records [handle] and [ans], which {!ids} checks. *)

  type ids
  (** One question's ids: its answers' and its missing tuple's. *)

  val of_missing : answers -> Tuple.t -> ids
  (** The ids of a missing tuple over an encoding: each value's id in
      [answers] (a binary search in the active domain), the values
      outside it numbered after them, first seen first. *)

  val is_answer : ids -> bool
  (** Whether the missing tuple is one of the encoded answers:
      [Relation.mem missing ans] from its ids and the answers of its
      shortest posting list, compared as ids, with no value comparison.
      [false] when the tuple's arity is not the answers'. *)

  val ids :
    ?answers:answers -> ?handle:Whynot_concept.Subsume_memo.inst ->
    Whynot.t -> ids
  (** The question's ids over [answers], which must encode its [Ans]
      through the same [handle] (or none, as it was encoded); without
      [answers], its [Ans] encoded through [handle].
      @raise Invalid_argument when [answers] was encoded over another
      handle, or from answers other than the question's. *)

  val check : ids -> handle:Whynot_concept.Subsume_memo.inst -> Whynot.t -> unit
  (** [check q ~handle wn] returns when [q] are [wn]'s ids over an
      encoding made through [handle]: the same handle, the same answers
      and the same missing tuple (each tested with [==] first).
      @raise Invalid_argument otherwise. *)

  val size : ids -> int
  (** The number of ids: every id is below it. *)

  val id : ids -> Value.t -> int option
  (** A value's id; [None] for a value that is neither in the active
      domain (with a handle) nor in [Ans] nor missing. *)

  val value : ids -> int -> Value.t
  (** The value of an id. *)

  val missing_id : ids -> int -> int
  (** The id of [a_j], [j] 0-based. *)

  val through : ids -> ('c -> Value.t -> bool) -> 'c -> int -> bool
  (** A membership over values (an [Ontology.mem]) as one over ids,
      through {!value}. *)

  val ext_mem : ids -> Whynot_concept.Semantics.ext -> int -> bool
  (** The membership of an extension over ids, built once: a bit set
      over the ids of its members (one merge walk against the active
      domain). *)

  type 'c t
  (** Mutable: {!replace} updates it in place. *)

  val make : ids -> ('c -> int -> bool) -> 'c list -> 'c t option
  (** [make q member e]: a frontier over the tuple, or [None] exactly when
      it is not an explanation ({!is_explanation}) for an ontology whose
      membership, over [q]'s ids, is [member] — the only part of an
      ontology a frontier reads. *)

  val of_array : ids -> ('c -> int -> bool) -> 'c array -> 'c t option
  (** {!make} on the tuple as an array, which the frontier takes over:
      {!replace} writes into it. *)

  val concepts : 'c t -> 'c list
  (** The current explanation. *)

  val concept : 'c t -> int -> 'c
  (** Its concept at 0-based position [j]. *)

  val mem : 'c t -> int -> int -> bool
  (** [mem f j i] iff the value of id [i] is in the extension of the
      concept at position [j]: the predicate the frontier built when that
      concept arrived. *)

  val only : 'c t -> int -> int list
  (** [D_j]: the ids of the [j]-th components of the answers excluded at
      position [j] and nowhere else, each once, ascending. *)

  val accepts : 'c t -> int -> 'c -> bool
  (** [accepts f j c] iff the current explanation with [c] at position [j]
      is an explanation: [a_j ∈ ext(c)] and no member of [D_j] is in
      [ext(c)]. *)

  val replace : 'c t -> int -> 'c -> unit
  (** [replace f j c] puts [c] at position [j]: it recomputes
      [covered_j] and every [D_j]. Call it only
      when [accepts f j c] holds.
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
