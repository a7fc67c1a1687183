(** S-ontologies (Definition 3.1): a set of concepts [C], a pre-order [⊑]
    on them, and a polynomial-time extension function [ext].

    The algorithms of §5 only interrogate an ontology through membership
    queries [c ∈ ext(C, I)] for the {e fixed} instance of the why-not
    question, so an ontology value here is "prepared" against one instance.
    Finite ontologies additionally enumerate their concepts (needed by the
    exhaustive algorithm); derived ontologies like [O_I] are infinite and
    leave [concepts = None]. *)

open Whynot_relational

type 'c t = {
  name : string;
  concepts : 'c list option;
    (** [Some cs] iff the ontology is finite/enumerable. *)
  subsumes : 'c -> 'c -> bool;  (** [subsumes c1 c2] iff [c1 ⊑ c2]. *)
  mem : 'c -> Value.t -> bool;
    (** [mem c v] iff [v ∈ ext(c, I)] for the prepared instance. [mem c]
        may do its per-concept work (fetching the extension) once, so a
        caller that tests many values against one concept applies it
        partially and reuses the predicate. *)
  equal : 'c -> 'c -> bool;
  pp : Format.formatter -> 'c -> unit;
}

val consistency_violations :
  'c t -> Value.t list -> (('c * 'c) list, Whynot_error.t) result
(** For a finite ontology: pairs [C1 ⊑ C2] whose extensions (restricted to
    the probe constants) violate [ext(C1) ⊆ ext(C2)] — the instance is
    consistent with the ontology iff this is empty on the active domain
    (Definition 3.1). [Error (`Infinite_ontology _)] on infinite
    ontologies. *)

(** {1 Constructors} *)

val of_extensions :
  name:string ->
  subsumptions:(string * string) list ->
  extensions:(string * Value_set.t) list ->
  string t
(** A hand ontology à la Figure 3: named concepts with explicitly listed,
    instance-independent extensions; [subsumptions] are direct edges whose
    reflexive-transitive closure is [⊑]. *)

val of_obda : Whynot_obda.Induced.t -> Whynot_dllite.Dl.basic t
(** The ontology [O_B] induced by an OBDA specification (Definition 4.4),
    prepared for the instance used in {!Whynot_obda.Induced.prepare}. *)

val of_instance :
  ?handle:Whynot_concept.Subsume_memo.inst -> Instance.t -> Whynot_concept.Ls.t t
(** [O_I] (Definition 4.8): infinite; subsumption is [⊑_I]. Memoisation
    goes through [handle] when given (it must wrap [inst]); otherwise the
    ontology creates and owns a fresh handle. *)

val of_schema :
  ?schema_handle:Whynot_concept.Subsume_memo.schema ->
  ?handle:Whynot_concept.Subsume_memo.inst ->
  Schema.t -> Instance.t -> Whynot_concept.Ls.t t
(** [O_S] (Definition 4.8): infinite; subsumption is [⊑_S], decided by
    {!Whynot_concept.Subsume_schema} (sound for all constraint classes,
    complete for the pure ones — see that module). *)

val instance_classes :
  Whynot_concept.Subsume_memo.inst ->
  Value_set.t ->
  (Whynot_concept.Ls.t * Whynot_concept.Semantics.ext) list
(** The extension classes of [O_I[K]] over the handle's instance, [K] the
    pool: one per distinct extension, with that extension, represented by
    its member of least {!Whynot_concept.Ls.size} (fewest conjuncts, a
    nominal first on ties: [{v}] beats a column equal to [{v}]). [top]
    comes first, alone with [All]; then, breadth-first by conjunct count,
    the pool nominals and projections, then each new representative met
    with every projection. Polynomial in classes × positions; the number
    of classes can still be exponential. *)

val of_instance_finite :
  ?handle:Whynot_concept.Subsume_memo.inst ->
  Instance.t -> Value_set.t -> Whynot_concept.Ls.t t
(** [O_I[K]] (§5.2): [O_I] restricted to selection-free concepts with
    nominals from the given pool. [⊑_I] is extension inclusion
    (Proposition 4.1) and MGEs are defined modulo equivalence, so it
    lists the representatives of {!instance_classes}. *)

val of_schema_finite :
  ?minimal_only:bool ->
  ?schema_handle:Whynot_concept.Subsume_memo.schema ->
  ?handle:Whynot_concept.Subsume_memo.inst ->
  Schema.t -> Instance.t -> Value_set.t -> Whynot_concept.Ls.t t
(** The finite restriction of [O_S[K]] (§5.3): selection-free concepts, or
    only [L_S^min] concepts when [minimal_only] is set (the PTIME case of
    Proposition 5.3). *)
