(** Strong explanations (§6): [E = (C_1, ..., C_m)] is a strong explanation
    for [a ∉ q(I)] w.r.t. [O] if for {e every} instance [I'] consistent
    with [O], the product [ext(C_1, I') × ... × ext(C_m, I')] misses
    [q(I')]. A strong explanation is instance-independent evidence — the
    paper suggests it points at errors in the constraints or the query.

    For ontologies derived from a schema, strength is an (un)satisfiability
    question: the query body conjoined with the concept constraints on the
    head components must have no satisfying instance among those that
    satisfy the schema. We decide it with the same canonical-instantiation
    + bounded-chase machinery as {!Whynot_concept.Subsume_schema}: finding
    a witness instance refutes strength (sound); exhausting the canonical
    candidates establishes it for the constraint classes where the search
    is complete (no constraints, views, FDs) and is reported as [Unknown]
    otherwise. *)

type verdict =
  | Strong
  | Not_strong
  | Unknown

val pp_verdict : Format.formatter -> verdict -> unit

val decide_wrt_schema :
  Whynot_relational.Schema.t ->
  Whynot.t ->
  Whynot_concept.Ls.t Explanation.t ->
  verdict
(** Is the explanation strong: does it exclude the missing tuple on
    {e every} instance satisfying the schema, not just this one?
    Inherits the three-valued behaviour (and the fixed chase bound) of
    the underlying [⊑_S] machinery, hence [Unknown]. *)

val is_explanation_but_not_strong :
  Whynot_relational.Schema.t ->
  Whynot.t ->
  Whynot_concept.Ls.t Explanation.t ->
  bool
(** Convenience for tests: an ordinary explanation whose strength is
    refuted by a concrete witness instance. *)
