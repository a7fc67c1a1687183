(** Algorithm 1 (Exhaustive Search) and the decision problems of §5.1, for
    finite S-ontologies.

    - {!all_mges}: all most-general explanations (Theorem 5.2): EXPTIME in
      general, PTIME for fixed query arity.
    - {!exists_explanation}: EXISTENCE-OF-EXPLANATION (Theorem 5.1(2),
      NP-complete) — decided by stopping at the first explanation the
      search yields, without materialising the whole product.
    - {!check_mge}: CHECK-MGE (Theorem 5.1(1), PTIME): an explanation is
      most general iff no single position can be strictly generalised while
      remaining an explanation (single-position upgrades suffice because
      componentwise products are monotone).
    - {!one_mge}: any one most-general explanation, by greedily climbing
      the subsumption order from the first explanation found.

    All searches run over one plan and one enumerator. The plan holds,
    per position, the candidate concepts (those whose extension contains
    the missing value) and their kill-sets (the answers whose component
    lies outside the concept's extension), computed once. Explanations
    are exactly the tuples of candidates whose kill-sets cover every
    answer. The enumerator walks the candidate product lazily in product
    order, carrying the kill-set union of the prefix, and cuts a branch as
    soon as the positions left cannot kill every answer still alive. The
    cut drops no explanation and reorders none, so every function returns
    what the literal algorithm returns. Counter [mge.exhaustive.tuples]
    counts the tuples that reach the last position after the cut.

    Every operation returns [(_, Whynot_error.t) result] and fails with
    [`Infinite_ontology] when the ontology does not enumerate its
    concepts; none raises. *)

val all_mges :
  'c Ontology.t -> Whynot.t -> ('c Explanation.t list, Whynot_error.t) result
(** Algorithm 1: every candidate per-position tuple whose extensions
    cover the missing tuple and miss the answers, without the non-maximal
    ones. Returns all MGEs modulo equivalence (the paper keeps equivalent
    copies; we keep one representative of each equivalence class, the
    first in reverse product order). Before the search, a candidate is
    dropped when another candidate at its position lies strictly above it
    and kills at least the same answers; this never changes the list. *)

val all_mges_unpruned :
  'c Ontology.t -> Whynot.t -> ('c Explanation.t list, Whynot_error.t) result
(** The same list, without the dominated-candidate preprocessing — the
    baseline for the D3 ablation benchmark. *)

val exists_explanation :
  'c Ontology.t -> Whynot.t -> (bool, Whynot_error.t) result
(** EXISTENCE-OF-EXPLANATION: is there {e any} explanation w.r.t. this
    ontology? The search stops at the first explanation, so a positive
    answer can be much cheaper than {!all_mges}. *)

val one_mge :
  'c Ontology.t -> Whynot.t -> ('c Explanation.t option, Whynot_error.t) result
(** One most-general explanation, or [Ok None] when none exists: the
    first explanation in product order, generalised as by {!generalise}. *)

val check_mge :
  'c Ontology.t -> Whynot.t -> 'c Explanation.t -> (bool, Whynot_error.t) result
(** CHECK-MGE: is the candidate an explanation that admits no strict
    single-position upgrade? Also the post-hoc verifier for the output
    of Algorithm 2 in the differential property tests. One
    {!Explanation.Frontier} per call: each strict upgrade at position
    [j] costs one extension fetch and [1 + |D_j|] set lookups. *)

val generalise :
  'c Ontology.t ->
  Whynot.t ->
  'c Explanation.t ->
  ('c Explanation.t, Whynot_error.t) result
(** Climb: repeatedly upgrade single positions to strictly more general
    concepts while remaining an explanation; the result is most general.
    Upgrades are tried in position order, then in concept order, over
    one {!Explanation.Frontier} for the whole climb, as in {!check_mge};
    each accepted one fetches the new extension once and makes [|Ans|]
    set lookups.
    [`Not_an_explanation] when the input is not an explanation. *)

(** {1 Lazy enumeration}

    Streaming variants that never materialise the candidate product: useful
    when only the first few (most-general) explanations are wanted. The
    per-element test for most-generality is local (an explanation is an MGE
    iff no single position admits a strict upgrade — see {!check_mge}), so
    the stream needs no global comparison; {!mges_seq} additionally
    deduplicates equivalent explanations, keeping the representatives seen
    so far in memory. *)

val explanations_seq :
  'c Ontology.t -> Whynot.t -> ('c Explanation.t Seq.t, Whynot_error.t) result
(** Every explanation, in product order. *)

val mges_seq :
  'c Ontology.t -> Whynot.t -> ('c Explanation.t Seq.t, Whynot_error.t) result
(** Every most-general explanation, one representative per equivalence
    class. Forcing the whole sequence yields the same set as
    {!all_mges}. *)

(** {1 The search plan}

    What every search above walks, exposed for {!Cardinality.maximal}'s
    branch-and-bound, which visits the same candidates under its own
    degree bound. *)

type answers
(** A set of the question's answers, by index. *)

type 'c plan

val plan_of : 'c Ontology.t -> Whynot.t -> ('c plan, Whynot_error.t) result
(** The plan, without the dominated-candidate preprocessing. One
    extension fetch per concept and position ([o.mem c], applied once)
    and [|Ans|] set lookups per candidate. *)

val candidates : 'c plan -> ('c * answers) array array
(** Per position, the concepts whose extension contains the missing
    value, in the ontology's order, each with its kill-set: the answers
    whose component at the position lies outside its extension. *)

val nothing : 'c plan -> answers
(** The empty kill-set. *)

val union : answers -> answers -> answers

val completable : 'c plan -> int -> answers -> bool
(** [completable p j killed]: the candidates at positions [j], [j+1], ...
    can still kill every answer outside [killed]. At [j] = the arity,
    [killed] holds every answer, i.e. the tuple is an explanation. *)
