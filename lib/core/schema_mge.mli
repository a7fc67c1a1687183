(** COMPUTE-ONE-MGE and CHECK-MGE with respect to [O_S] (§5.3,
    Propositions 5.3 and 5.4): materialise the finite restriction
    [O_S[K]] with [K = adom(I) ∪ {a}] and run the exhaustive machinery.

    The [fragment] selects the concept space: [`Minimal] is the PTIME case
    of Proposition 5.3 ([L_S^min] with fixed query arity); [`Selection_free]
    is the EXPTIME case. Schema-level subsumption is delegated to
    {!Whynot_concept.Subsume_schema}, so for constraint classes where that
    decider is incomplete (mixtures), "most general" is relative to the
    derivable subsumptions. *)

type fragment =
  [ `Minimal
  | `Selection_free
  ]

val ontology :
  ?handle:Whynot_concept.Subsume_memo.inst ->
  fragment ->
  Whynot_relational.Schema.t ->
  Whynot.t ->
  Whynot_concept.Ls.t Ontology.t
(** The materialised [O_S[K]] for this why-not instance. With an
    instance [handle] over the question's instance (the CLI passes its
    engine's [Engine.instance_handle]), [K] is built from the handle's
    cached active domain and extensions are read through its memo. *)

val one_mge :
  fragment ->
  Whynot_relational.Schema.t ->
  Whynot.t ->
  (Whynot_concept.Ls.t Explanation.t option, Whynot_error.t) result
(** An explanation always exists (the nominal tuple), so this returns
    [Ok (Some _)] unless the fragment excludes the needed nominals — it
    never does, since nominals are in every fragment. [`Infinite_ontology]
    as for {!all_mges}. *)

val all_mges :
  fragment ->
  Whynot_relational.Schema.t ->
  Whynot.t ->
  (Whynot_concept.Ls.t Explanation.t list, Whynot_error.t) result
(** All MGEs w.r.t. [O_S] restricted to the fragment, by Algorithm 1
    over the materialised finite ontology. [`Infinite_ontology] if the
    fragment is infinite over this schema and constant pool. *)
