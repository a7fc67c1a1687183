(** Why explanations — the dual problem the paper poses as future work
    (§7): explain why a tuple [a ∈ q(I)] {e is} an answer, at the ontology
    level.

    We adapt Definition 3.2 dually: a tuple of concepts [(C_1, ..., C_m)]
    is a {b why explanation} for [a ∈ q(I)] w.r.t. [O] if

    - [a_i ∈ ext(C_i, I)] for every [i], and
    - [ext(C_1, I) × ... × ext(C_m, I) ⊆ q(I)]: {e every} tuple of the
      product is an answer.

    A most-general why explanation generalises the single witness [a] to
    the broadest concept rectangle inside the answer set — e.g. "(Amsterdam,
    Rome) is an answer because {e every} pair of a city with an outgoing
    Berlin connection and a city reachable from Berlin is". The nominal
    tuple [({a_1}, ..., {a_m})] is always a why explanation, and the same
    incremental strategy as Algorithm 2 computes a most-general one w.r.t.
    [O_I] in polynomial time (selection-free). *)

open Whynot_relational

type t = private {
  instance : Instance.t;
  query : Cq.t;
  answers : Relation.t;
  witness : Tuple.t;
}

val make :
  ?answers:Relation.t ->
  instance:Instance.t ->
  query:Cq.t ->
  witness:Value.t list ->
  unit ->
  (t, Whynot_error.t) result
(** Requires [witness ∈ q(I)] — the mirror image of {!Whynot.make};
    failures are [`Invalid_whynot]. *)

val is_why_explanation : 'c Ontology.t -> t -> 'c Explanation.t -> bool
(** The dual conditions: every [a_i ∈ ext(C_i)] and the product of the
    extensions stays {e inside} the answer set. *)

val one_mge :
  ?variant:Incremental.variant ->
  t ->
  Whynot_concept.Ls.t Explanation.t
(** A most-general why explanation w.r.t. [O_I], by the incremental
    strategy: grow each position's support set through the active domain,
    keeping the product inside the answer set. *)

val check_mge :
  ?variant:Incremental.variant ->
  t ->
  Whynot_concept.Ls.t Explanation.t ->
  bool
(** Is the candidate a why explanation admitting no strict
    single-position upgrade within the fragment? *)
