(** Short explanations (§6).

    Finding a most-general explanation of minimal total length is NP-hard
    (Proposition 6.1), and even shortening a given explanation to a
    minimised equivalent is NP-hard (Proposition 6.3). The tractable
    compromise is irredundancy: {!Whynot_concept.Irredundant} combined with
    the incremental algorithm yields an irredundant most-general
    explanation in polynomial time (Proposition 6.2).

    This module provides the exact (exponential) optima for small inputs,
    for use in tests and benchmarks against the polynomial pipeline. *)

val length : Whynot_concept.Ls.t Explanation.t -> int
(** Total {!Whynot_concept.Ls.size} of the components. *)

val irredundant_mge :
  ?variant:Incremental.variant ->
  Whynot.t ->
  Whynot_concept.Ls.t Explanation.t
(** The polynomial pipeline: incremental search, then per-concept
    irredundancy minimisation. Most general w.r.t. [O_I] and irredundant. *)

val shortest_mge_selection_free :
  Whynot.t -> (Whynot_concept.Ls.t Explanation.t option, Whynot_error.t) result
(** Exact: enumerate the finite selection-free restriction [O_I[K]],
    compute all MGEs, and return one of minimal length over every member
    of every MGE equivalence class ([Ok None] when there is none): per
    position, the shortest concept of [O_I[K]] equivalent to the
    representative's. Exponential in the number of schema positions —
    small inputs only. *)

val minimise_concept_exact :
  Whynot_relational.Instance.t ->
  Whynot_concept.Ls.t ->
  Whynot_concept.Ls.t
(** Exact minimisation of a single selection-free concept: the shortest
    selection-free concept equivalent to it over [I] (exponential search
    over sub-conjunctions and equivalent rewritings; small inputs only).
    Every minimised concept is irredundant but not conversely — see the
    discussion before Proposition 6.3. *)
