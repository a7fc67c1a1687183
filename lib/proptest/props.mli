(** The differential-property registry.

    Each property pairs a generator from {!Gen} with a boolean check that
    cross-validates an optimised implementation against an independent
    oracle from {!Oracle} (or against a second implementation of the same
    function). The registry is consumed by the [proptest_runner]
    executable and by the [test_prop] alcotest suite; both run every
    property from an explicit seed, so failures are reproducible by
    [(name, seed, count)] alone — exactly what {!Corpus} persists.

    The oracle pairs (one property each unless noted):

    - Incremental (Alg. 2) vs Exhaustive (Alg. 1) MGE computation over the
      materialised ontology [O_I[K]], plus [check_mge] cross-validation.
    - [Exhaustive] vs the literal Algorithm 1 ([Oracle.literal_all_mges])
      over [O_I[K]]'s extension classes, the syntactic [O_I[K]] and masked
      restrictions of both: the exact list.
    - [O_I[K]] as extension classes ([Ontology.instance_classes]) vs the
      syntactic [Oracle.syntactic_instance_finite]: the same extensions,
      shortest representatives, and the same MGEs class for class.
    - Incremental with selections: explanation-hood, [check_mge], and
      dominance over the trivial nominal explanation.
    - Selection-free Incremental on position masks vs
      [Oracle.lub_one_mge_with_trace]/[lub_check_mge] (support sets,
      column-scan lubs, whole-tuple re-tests): concepts, attempt trace
      and CHECK-MGE verdicts.
    - [Explanation.Frontier] vs [Explanation.is_explanation]: building,
      [accepts] and [replace] against the full explanation test and a
      frontier built afresh.
    - [Subsume_schema.decide] vs extension inclusion on random legal
      instances (soundness) and vs completeness per Table-1 class.
    - [Subsume_schema.decide] vs the syntactic characterisation of
      selection-free, no-constraints subsumption (exact equivalence).
    - [Lub.lub] vs brute-force enumeration of all selection-free upper
      bounds (leastness).
    - [Lub.lub_sigma] vs single-condition upper bounds and vs [Lub.lub].
    - Position-mask [Lub.lub], [covers] and [shorten] vs
      [Oracle.scan_lub], [Oracle.scan_extension] and
      [Irredundant.minimise].
    - DL-Lite [Reasoner] saturation vs random finite models (soundness).
    - DL-Lite [Reasoner] saturation vs the [Canonical] model
      (completeness).
    - OBDA [Induced.extension] vs a direct positive chase of the retrieved
      assertions.
    - [Irredundant] vs exhaustive subset search over conjuncts.
    - [Containment.cq_in_cq] vs the canonical-database homomorphism test
      (comparison-free fragment), and soundness on sampled instances with
      comparisons.
    - The {!Whynot_concept.Subsume_memo} layer vs the cache-free deciders:
      [⊑_I] over memoised extensions vs [Subsume_inst.naive_subsumes]
      (including the replay on one warm handle and the cached extension),
      and cached [⊑_S] vs the uncached [Subsume_schema.decide] oracle.
    - Text [Parser] vs {!Surface} printer: concept, document and value
      round-trips.
    - [Why.one_mge]/[check_mge] vs [Oracle.why_one_mge]/[why_check_mge]
      (probe values rebuilt and the whole product re-tested per
      attempt). *)

type t = {
  name : string;  (** e.g. ["lub/least-vs-enumeration"] *)
  default_count : int;  (** generations per run when the caller has no
                            opinion — tuned so the whole registry stays
                            fast enough for [dune runtest] *)
  make : count:int -> QCheck2.Test.t;
}

val all : t list

val names : string list

val find : string -> t option

val default_seed : int
(** The seed both the test-suite and the runner default to ([20250806]).
    Override with [PROPTEST_SEED] (suite) or [--seed] (runner). *)

val run : ?count:int -> seed:int -> t -> (unit, string) result
(** Run the property with the given seed; [Error] carries the printed
    counterexample (after shrinking) or the raised exception. *)
