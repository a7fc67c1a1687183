(** Short explanations (§6).

    Finding a most-general explanation of minimal total length is NP-hard
    (Proposition 6.1), and even shortening a given explanation to a
    minimised equivalent is NP-hard (Proposition 6.3). The tractable
    compromise is irredundancy: {!Whynot_concept.Irredundant} combined with
    the incremental algorithm yields an irredundant most-general
    explanation in polynomial time (Proposition 6.2).

    This module also provides the exact optima over the selection-free
    concepts, read off {!Ontology.instance_classes} (tests and benchmarks
    hold the polynomial pipeline against them): polynomial in the number
    of extension classes, which can still be exponential in positions. *)

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
(** Exact: one of minimal length among every member of every MGE
    equivalence class over [O_I[K]] ([Ok None] when there is none). Since
    {!Ontology.of_instance_finite} lists each extension class by its
    shortest member and equivalence is componentwise, this is the
    shortest of {!Exhaustive.all_mges} over it (the first on ties). *)

val minimise_concept_exact :
  Whynot_relational.Instance.t ->
  Whynot_concept.Ls.t ->
  Whynot_concept.Ls.t
(** Exact minimisation of a single concept: the shortest selection-free
    concept equivalent to it over [I] — [top] for an infinite extension,
    else the representative of its extension among
    {!Ontology.instance_classes} over the nominals of that extension
    (only they can occur in an equivalent concept); the concept itself
    when no selection-free concept has its extension. Every minimised
    concept is irredundant but not conversely — see the discussion
    before Proposition 6.3. *)
