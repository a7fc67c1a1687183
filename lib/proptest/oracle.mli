(** Brute-force reference implementations ("oracles") for differential
    testing.

    Every function here recomputes, by a deliberately naive route, a result
    that some optimised module of the main libraries also computes. The
    property-based harness ({!Props}) generates random inputs and checks
    that the two routes agree; a disagreement is a bug in one of the two.
    None of these functions share code with the implementation they check
    beyond the basic data structures. *)

open Whynot_relational

val pp_value : Format.formatter -> Value.t -> unit
(** The [Format]-based [Value.pp]: integers by [pp_print_int], reals by
    [%g], strings by [%S]. Differential oracle for {!Value.pp}
    ([value/to-string-equals-format]). *)

val format_value : Value.t -> string
(** [Format.asprintf "%a" pp_value]: the [Format]-based
    [Value.to_string]. Differential oracle for {!Value.to_string}
    ([value/to-string-equals-format]). *)

val json_to_string : Whynot.Json.t -> string
(** The wire encoder as it was before it wrote digits and escapes
    straight into its buffer: integers by [string_of_int], control
    characters by [Printf "\\u%04x"], a fresh buffer per string.
    Differential oracle for {!Whynot.Json.to_string}
    ([wire/encode-equals-reference]). *)

val naive_eval : Cq.t -> Instance.t -> Relation.t
(** The pre-planner [Cq.eval], verbatim: backtracking join in textual atom
    order with association-list bindings and a full relation scan per atom.
    Differential oracle for the indexed/planned kernel
    ([eval/planned-equals-naive]). *)

val naive_holds : Cq.t -> Instance.t -> bool
(** Boolean evaluation against {!naive_eval}'s semantics, short-circuiting
    on the first satisfying binding (after excluding heads with variables
    no atom binds, which project every binding away). *)

val naive_eval_assignments : Cq.t -> Instance.t -> (string * Value.t) list list
(** The pre-planner [Cq.eval_assignments], verbatim. *)

val scan_extension :
  Whynot_concept.Ls.t -> Instance.t -> Whynot_concept.Semantics.ext
(** The pre-index [Semantics.extension]: each conjunct answered by a
    full-relation [Relation.select] scan and a column fold. Differential
    oracle for the [Eval_index]-backed version
    ([ext/indexed-equals-scan]). *)

val selection_free_no_constraints_subsumes :
  Whynot_concept.Ls.t -> Whynot_concept.Ls.t -> bool
(** [C1 ⊑_S C2] for selection-free concepts over a schema with no integrity
    constraints, decided syntactically: subsumption holds iff [C1] is
    unsatisfiable (two distinct nominals) or every conjunct of [C2] occurs
    among the conjuncts of [C1]. This is a complete characterisation for
    the constraint-free, selection-free fragment (one-element witness
    instances realise every failure). Both arguments must be
    selection-free. *)

val hom_contained : Cq.t -> Cq.t -> bool
(** [hom_contained q1 q2]: does [q1 ⊆ q2] hold over every instance, decided
    by the classical canonical-database test — freeze [q1] and search for a
    homomorphism from [q2] into the frozen instance mapping head to head.
    Both queries must be safe, comparison-free, and of the same arity.
    @raise Invalid_argument when a query carries comparisons. *)

val positive_chase :
  Whynot_dllite.Tbox.t -> Whynot_dllite.Interp.t -> Whynot_dllite.Interp.t
(** Close an interpretation under the {e positive} axioms of the TBox:
    memberships propagate along concept inclusions, existential
    requirements are satisfied by one global witness element per role
    direction, and role inclusions copy edges. Negative axioms are ignored.
    Terminates because the domain grows by at most two witnesses per atomic
    role. The result is a model of the positive part of the TBox extending
    the input. *)

val interp_individuals : Whynot_dllite.Interp.t -> Value_set.t
(** Every constant occurring in the interpretation (concept members and
    role-edge endpoints). *)

val chase_certain_extension :
  Whynot_obda.Spec.t -> Instance.t -> Whynot_dllite.Dl.basic -> Value_set.t
(** The certain extension [ext_OB(B, I)] computed by materialising a model:
    retrieve the assertions through the mappings, chase them under the
    positive TBox axioms ({!positive_chase}), and read off which {e named}
    individuals (those occurring in the retrieved assertions) ended up in
    the extension of [B]. Differential oracle for
    {!Whynot_obda.Induced.extension}, which instead forward-chains the
    saturated subsumption closure per constant. *)

val minimal_equivalent_conjunct_count :
  Instance.t -> Whynot_concept.Ls.t -> int
(** The size of the smallest subset of the concept's conjuncts whose meet
    has the same extension over the instance — found by exhaustive subset
    search. Differential oracle for {!Whynot_concept.Irredundant.minimise}.
    @raise Invalid_argument when the concept has more than 12 conjuncts. *)

val selection_free_upper_bounds :
  Instance.t -> nominals:Value_set.t -> Value_set.t ->
  Whynot_concept.Ls.t list
(** All selection-free concepts (enumerated over the instance's positions
    with nominals from [nominals]) whose extension contains the given
    constant set — the candidate space against which
    {!Whynot_concept.Lub.lub} must be least. Exponential; small instances
    only. *)

val single_condition_upper_bounds :
  Instance.t -> Value_set.t -> Whynot_concept.Ls.t list
(** All atomic concepts [pi_A(sigma_{B op c}(R))] with at most one selection
    condition ([c] ranging over the active domain), plus the selection-free
    atomic concepts, whose extension contains the given constant set. Every
    member is an upper bound that {!Whynot_concept.Lub.lub_sigma} must lie
    below. *)

val syntactic_instance_finite :
  Instance.t -> Value_set.t -> Whynot_concept.Ls.t Whynot_core.Ontology.t
(** The syntactic [O_I[K]]: {!Whynot_concept.Count.enumerate_selection_free}
    over [O_I] (2^positions × (|K| + 1) concepts, equivalent ones
    included). Differential oracle for
    [Ontology.instance_classes] ([ontology/classes-same-mges]), and the
    ontology on which [exhaustive/equals-literal] still exercises
    [Exhaustive]'s equivalence pass. *)

val literal_explanations :
  'c Whynot_core.Ontology.t ->
  Whynot_core.Whynot.t ->
  'c Whynot_core.Explanation.t list
(** Every explanation w.r.t. a finite ontology, in product order: the
    full product of the per-position concepts covering the missing value,
    filtered by [Explanation.is_explanation]. Differential oracle for
    [Exhaustive.explanations_seq] ([exhaustive/equals-literal]).
    @raise Invalid_argument when the ontology is infinite. *)

val literal_all_mges :
  'c Whynot_core.Ontology.t ->
  Whynot_core.Whynot.t ->
  'c Whynot_core.Explanation.t list
(** The literal Algorithm 1: {!literal_explanations} reversed, without the
    strictly-less-general tuples, keeping the first representative of each
    equivalence class. Differential oracle for [Exhaustive.all_mges] and
    [Exhaustive.all_mges_unpruned], which must return this exact list. *)

val scan_lub : Instance.t -> Value_set.t -> Whynot_concept.Ls.t
(** The selection-free lub of Lemma 5.1 by column scans: the nominal of a
    singleton, meet every projection whose column holds the whole set.
    Differential oracle for the position-mask {!Whynot_concept.Lub.lub}
    ([lub/mask-equals-lub]). @raise Invalid_argument on the empty set. *)

val lub_one_mge_with_trace :
  ?order:[ `Ascending | `Descending ] ->
  ?shorten:bool ->
  Whynot_core.Whynot.t ->
  Whynot_concept.Ls.t Whynot_core.Explanation.t * (int * Value.t * bool) list
(** Selection-free Algorithm 2 as it ran on support sets: per attempt the
    support grows by one constant, its {!scan_lub} is recomputed, and the
    whole tuple is re-tested by Definition 3.2 on {!scan_extension}s;
    then the [top] pass and (by default) the
    [Irredundant.minimise] shortening. Returns the explanation and the
    trace of [(position, constant, accepted)] attempts. Differential
    oracle for the position-mask [Incremental.one_mge] and
    [one_mge_with_trace] ([mge/mask-search-equals-lub-search]). *)

val lub_check_mge :
  ?lub:(Instance.t -> Value_set.t -> Whynot_concept.Ls.t) ->
  Whynot_core.Whynot.t -> Whynot_concept.Ls.t Whynot_core.Explanation.t -> bool
(** CHECK-MGE over [lub] (default {!scan_lub}, selection-free; pass
    {!dfs_lub_sigma} for full [L_S]) and whole-tuple re-tests: the tuple
    is an explanation and no position can absorb a further active-domain
    constant, or become [top], while remaining one. *)

(** [Explanation.Frontier] over values, as it ran before ids: answers
    as value arrays with one bool flag per position, [D_j] as value sets.
    Differential oracle for the id frontier
    ([explanation/id-frontier-equals-value-frontier]). *)
module Value_frontier : sig
  type 'c t

  val make :
    ('c -> Value.t -> bool) -> Whynot_core.Whynot.t -> 'c list -> 'c t option
  (** [None] exactly when the tuple is no explanation for the membership. *)

  val mem : 'c t -> int -> Value.t -> bool
  val only : 'c t -> int -> Value_set.t
  val accepts : 'c t -> int -> 'c -> bool

  val replace : 'c t -> int -> 'c -> unit
  (** @raise Invalid_argument, leaving the frontier unchanged, when some
      answer would be excluded nowhere. *)
end

val dfs_selection_candidates :
  ?prune:bool ->
  Instance.t -> rel:string -> attr:int -> Value_set.t ->
  Whynot_concept.Ls.conjunct list
(** The atomic concepts [pi_attr(sigma(rel))] containing the set, by the
    interval DFS [Lub] ran before witness boxes: per attribute, no
    condition or a closed interval with witness-value endpoints, each
    partial selection re-selected from the whole relation. One conjunct
    per extension, with the subset-minimal extensions only unless
    [prune] is [false] (the D2 ablation); each is written as the least
    closed bounding box of a subset-minimal tuple set selecting that
    extension, so the pruned list can be compared conjunct for conjunct.
    Differential oracle for [Lub.atomic_selection_candidates]
    ([lub/sigma-boxes-equal-dfs]). Exponential in the arity. *)

val dfs_lub_sigma :
  ?prune:bool -> Instance.t -> Value_set.t -> Whynot_concept.Ls.t
(** Lemma 5.2's lub from {!dfs_selection_candidates} at every position,
    plus the nominal of a singleton; unmemoised. Differential oracle for
    [Lub.lub_sigma] ([lub/sigma-boxes-equal-dfs]) and the with-selections
    lub of {!why_one_mge} and {!why_check_mge}.
    @raise Invalid_argument on the empty set. *)

val why_one_mge :
  Whynot_core.Incremental.variant ->
  Whynot_core.Why.t ->
  Whynot_concept.Ls.t Whynot_core.Explanation.t
(** [Why.one_mge] with every attempt re-testing the whole tuple's product
    over probe values rebuilt from the instance, over {!scan_ontology}
    and {!scan_lub} (selection-free) or {!dfs_lub_sigma} (with
    selections). Differential oracle for
    [Why.one_mge] ([why/one-mge-equals-literal]). *)

val why_check_mge :
  Whynot_core.Incremental.variant ->
  Whynot_core.Why.t ->
  Whynot_concept.Ls.t Whynot_core.Explanation.t ->
  bool
(** [Why.check_mge] by the same whole-tuple re-tests. *)

val concept_of_string :
  Whynot_text.Parser.document ->
  string ->
  (Whynot_concept.Ls.t, Whynot_error.t) result
(** [Parser.concept_of_string] as it was before the staged
    [Parser.concept_reader]: the relation list (declared relations, then
    each undeclared view with attributes [a1..aN]) rebuilt on every call
    and attribute names resolved by list search. Reference for
    [text/concept-reader-equals-oracle], errors included. *)
