(** Concept subsumption with respect to a schema, [C1 ⊑_S C2] (§4.2):
    extension inclusion over {e every} instance satisfying the schema's
    integrity constraints. The complexity landscape is Table 1 of the paper;
    this module implements one decision procedure per constraint class:

    - {b no constraints}: conjunct-wise containment of the translated
      queries over dense orders — complete.
    - {b UCQ / nested UCQ views (only)}: unfold both sides over the views,
      then CQ-in-UCQ containment — complete (the paper's ΠP2 / coNEXPTIME
      upper-bound strategy).
    - {b FDs (only)}: containment restricted to FD-satisfying canonical
      instantiations — complete (FDs are closed under sub-instances, so
      every counter-example shrinks to an FD-satisfying canonical one).
    - {b INDs (only), selection-free concepts}: reachability in the
      positional graph of the INDs — the paper's PTIME fragment. With
      selections the paper leaves the problem open; we answer [Subsumed]
      when a sound rule applies, then attempt a bounded chase-based
      counter-model, and return [Unknown] when both fail.
    - {b mixtures (views + FDs + INDs)}: sound derivation rules
      (view-unfolded containment, IND reachability) for [Subsumed], and a
      bounded counter-model search (canonical instantiation + IND chase +
      view completion + constraint check) for [Not_subsumed]; [Unknown]
      otherwise. Table 1 marks IND+FD implication undecidable, so a
      complete procedure cannot exist.

    [Subsumed] and [Not_subsumed] verdicts are always sound. *)

open Whynot_relational

type verdict =
  | Subsumed
  | Not_subsumed
  | Unknown

val pp_verdict : Format.formatter -> verdict -> unit

type constraint_class =
  | No_constraints
  | Views_only
  | Fds_only
  | Inds_only
  | Mixed

val classify : Schema.t -> constraint_class
(** Which Table-1 row applies: determined purely by which kinds of
    constraints (FDs, INDs, views) the schema carries. *)

val decide : ?translate:(Ls.t -> Ucq.t) -> Schema.t -> Ls.t -> Ls.t -> verdict
(** The counter-model chase runs at most 4 rounds of IND repair (a
    fixed bound, shared with {!chase_to_legal_instance}).

    [translate] supplies the concept-to-UCQ translation (default
    {!To_query.ucq} on the given schema); {!Subsume_memo} passes a
    memoised translation here so repeated decisions over the same schema
    unfold each concept only once. A custom [translate] must agree with
    [To_query.ucq schema] — it is a cache hook, not a semantic knob.

    This entry point is deliberately uncached (each call re-decides from
    scratch) so it can serve as the oracle for the differential tests;
    use {!Subsume_memo.decide} on hot paths. *)

val subsumes : Schema.t -> Ls.t -> Ls.t -> bool
(** [decide = Subsumed]. For the complete classes this decides ⊑_S; in
    general it under-approximates it. *)

val refutes : Schema.t -> Ls.t -> Ls.t -> bool
(** [decide = Not_subsumed]. *)

val chase_to_legal_instance : Schema.t -> Instance.t -> Instance.t option
(** The counter-model construction kernel, exposed for reuse (e.g. strong
    explanations): keep the data relations of the given instance, repair
    IND violations by inserting tuples with fresh values (at most 4
    rounds), materialise the views, and return the completed
    instance iff it satisfies every constraint of the schema. *)
