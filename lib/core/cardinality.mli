(** Cardinality-based preference (§6): the degree of generality of an
    explanation is [|ext(C_1, I)| + ... + |ext(C_m, I)|], and an explanation
    is [>card]-maximal when no explanation has a strictly higher degree.
    Computing a [>card]-maximal explanation is NP-hard (Proposition 6.4,
    by an L-reduction from SET COVER), and not even constant-factor
    approximable in PTIME; we provide an exact branch-and-bound for finite
    ontologies and the natural greedy heuristic, which the benchmarks
    compare. *)

val degree : 'c Ontology.t -> Whynot.t -> 'c Explanation.t -> int option
(** [None] when some extension is infinite (a concept like [top] in a
    derived ontology); finite ontologies always yield [Some]. The degree
    counts extension members among the why-not instance's constant pool. *)

val maximal :
  'c Ontology.t -> Whynot.t -> ('c Explanation.t option, Whynot_error.t) result
(** An exact [>card]-maximal explanation: a branch-and-bound over
    {!Exhaustive.plan_of}'s candidates and kill-sets, with each
    position's candidates by decreasing degree and a cut on the degree
    the positions left can still add (exponential in general). [Ok None]
    when no explanation exists; [`Infinite_ontology] when the ontology
    is infinite. *)

val greedy :
  'c Ontology.t -> Whynot.t -> ('c Explanation.t option, Whynot_error.t) result
(** Greedy heuristic: pick per position the candidate with the largest
    extension that keeps the partial tuple completable. This is the first
    element of {!Exhaustive.explanations_seq} over the ontology whose
    concepts are stably sorted by decreasing degree. Exponential in the
    worst case like any backtracking search, but usually quick; no
    approximation guarantee exists unless P=NP. *)

val ranked :
  'c Ontology.t ->
  Whynot.t ->
  (('c Explanation.t * int) list, Whynot_error.t) result
(** Every most-general explanation paired with its degree of generality,
    sorted by decreasing degree — the bridge between the two preference
    orders of §6: the ⊑-maximal explanations, ranked by cardinality. *)
