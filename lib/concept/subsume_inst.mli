(** Concept subsumption with respect to an instance, [C1 ⊑_I C2]
    (§4.2): extension inclusion on the given instance. Decidable in
    polynomial time (Proposition 4.1). *)

open Whynot_relational

val subsumes : Instance.t -> Ls.t -> Ls.t -> bool
(** [subsumes inst c1 c2] iff [[[c1]]^I ⊆ [[c2]]^I]. Answered through the
    {!Subsume_memo} layer, through a fresh handle per call: callers that
    ask many questions of one instance should keep a
    {!Subsume_memo.inst} handle themselves. *)

val naive_subsumes : Instance.t -> Ls.t -> Ls.t -> bool
(** The direct, cache-free decision — recomputes both extensions on every
    call. Semantically identical to {!subsumes}; kept as the independent
    oracle for the [memo/subsume-inst-cached-vs-naive] differential
    property. *)

val strictly_subsumed : Instance.t -> Ls.t -> Ls.t -> bool
(** [strictly_subsumed inst c1 c2] iff [c1 ⊑_I c2] and not [c2 ⊑_I c1]. *)

val equivalent : Instance.t -> Ls.t -> Ls.t -> bool
(** Mutual [⊑_I] subsumption. *)
