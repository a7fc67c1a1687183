(** Containment of conjunctive queries and unions thereof, over all
    instances, in the presence of comparisons to constants.

    Without comparisons this is the classical canonical-database (frozen
    query) test. With comparisons we enumerate canonical instantiations of
    the left query over a finite set of representative values — one
    representative region per "order type" of the variables with respect to
    the constants mentioned in either query, with enough distinct
    representatives per region to realise every equality pattern. Both
    directions of the equivalence are proved by the standard
    order-isomorphism argument; the procedure is exponential in the number
    of variables of the left query, which matches the ΠP2 upper bounds of
    Table 1.

    All queries must be safe ({!Cq.is_safe}). *)

val cq_in_ucq : Cq.t -> Ucq.t -> bool
(** [cq_in_ucq q u]: does [q(I) ⊆ u(I)] hold for every instance [I]? *)

val cq_in_cq : Cq.t -> Cq.t -> bool

val ucq_in_ucq : Ucq.t -> Ucq.t -> bool

val canonical_instantiations : ?merges:bool -> Cq.t
  -> extra_constants:Value_set.t -> (Instance.t * Tuple.t) list
(** The canonical instances used by the containment test (exposed for the
    test-suite and for {!Whynot_concept}): all instantiations of the query's
    variables by representative values consistent with its comparisons,
    paired with the corresponding head tuple. [extra_constants] join the
    query's own constants when carving regions.

    By default two variables falling in the same open region keep distinct
    representatives — enough for plain containment, where merged
    instantiations are homomorphic images of the distinct one. Callers that
    post-filter the instantiations by a property not closed under those
    merges (FD-satisfaction, notably) must pass [~merges:true], which also
    enumerates every within-region equality pattern. *)
