(** Algorithm 2 (Incremental Search): COMPUTE-ONE-MGE w.r.t. the derived
    ontology [O_I] (§5.2).

    Starting from the trivial explanation of nominals, the algorithm tries,
    position by position, to absorb each active-domain constant into the
    position's support set, replacing the concept with the [lub] of the
    enlarged set and keeping the change iff the tuple remains an
    explanation.

    With the selection-free [lub] (Lemma 5.1) this runs in polynomial time
    and returns a most-general explanation over selection-free [L_S]
    (Theorem 5.3); with [lubσ] (Lemma 5.2) it returns a most-general
    explanation over full [L_S] in exponential time — polynomial for
    bounded schema arity (Theorem 5.4).

    One refinement beyond the paper's pseudo-code: after the main loop we
    additionally try to replace each concept by [top] (whose extension is
    the whole infinite domain): [top] is strictly more general than any
    finite-extension concept even when that concept already covers the whole
    active domain, and it is not reachable by adding active-domain
    constants alone.

    Cost per attempt. The constants offered are the handle's active
    domain ({!Whynot_concept.Subsume_memo.adom}), computed once per
    handle. The run keeps its current explanation in an
    {!Explanation.Frontier} over integer ids, where id [i] is the [i]-th
    active-domain constant: the skip test (is [b] already in the
    position's extension?) calls the frontier's predicate for that
    position on [b]'s id, and an attempt at position [j] is accepted iff
    the new concept holds [a_j] and none of [D_j], the ids of the
    answers' components only [j] excludes ([1 + |D_j|] tests, not
    [|Ans| × arity]). The answers are encoded as ids once per call, or
    not at all when the caller passes the question's ids over the
    encoding it keeps ([ids], as an engine does per query). A deadline
    on the handle is read on the first attempt and then every 64th.

    Selection-free runs never build a concept while they search. By
    Lemma 5.1 a lub is a set of positions
    ({!Whynot_concept.Lub.mask}), so an attempt intersects the
    support's mask with [b]'s position mask, and a membership test on an
    id is one mask inclusion, with no hashing: no lub is memoised
    ([memo.lub.calls] stays 0) and no extension fetched
    ([memo.ext.calls] stays 0 on {!one_mge}). The masks become concepts
    once, at the end, and the shortening drops bits as
    {!Whynot_concept.Irredundant.minimise} drops conjuncts.
    {!check_mge} fetches the extension of each input concept once: it
    becomes a set of ids (the concept's membership) and the mask of its
    support. Every candidate, grown mask or [top], is tested on masks.
    With selections, each attempt fetches the memoised [lub_sigma] of
    the enlarged support set and its extension. The attempt schedule,
    and so every MGE, is the one the full re-test gives. *)

open Whynot_relational

type variant =
  | Selection_free   (** Lemma 5.1 lubs; Theorem 5.3 *)
  | With_selections  (** Lemma 5.2 lubs; Theorem 5.4 *)

val one_mge :
  ?handle:Whynot_concept.Subsume_memo.inst ->
  ?ids:Explanation.Frontier.ids ->
  ?variant:variant ->
  ?shorten:bool ->
  ?order:[ `Ascending | `Descending ] ->
  Whynot.t ->
  Whynot_concept.Ls.t Explanation.t
(** A most-general explanation for the why-not instance w.r.t. [O_I] (one
    always exists: the nominal tuple explains). [shorten] (default true)
    post-processes each concept with {!Whynot_concept.Irredundant} — a
    polynomial step that, combined with this algorithm, yields an
    irredundant most-general explanation (Proposition 6.2 discussion).
    The whole run, shortening included, memoises through [handle], which
    must wrap the question's instance; without one the run creates its
    own, so a handle-less call starts cold and creates exactly one.
    [ids], when given, must be the question's ids over an encoding of
    its answers made through [handle]
    ([Explanation.Frontier.ids ~answers ~handle], as an engine keeps
    them); without it the run encodes the answers.
    @raise Invalid_argument when [ids] fail {!Explanation.Frontier.check}
    against the run's handle (the one created without [handle]) and the
    question. *)

val one_mge_with_trace :
  ?variant:variant ->
  ?order:[ `Ascending | `Descending ] ->
  Whynot.t ->
  Whynot_concept.Ls.t Explanation.t * (int * Value.t * bool) list
(** Like {!one_mge} but also returns the trace of attempted constant
    absorptions [(position, constant, accepted)]. [order] is the D4
    ablation knob: the order in which active-domain constants are offered
    (different orders can reach different — equally most-general —
    explanations at different costs). *)

val check_mge :
  ?handle:Whynot_concept.Subsume_memo.inst ->
  ?ids:Explanation.Frontier.ids ->
  ?variant:variant ->
  Whynot.t ->
  Whynot_concept.Ls.t Explanation.t ->
  bool
(** CHECK-MGE W.R.T. [O_I] (Definition 5.7, Proposition 5.2): the tuple is
    an explanation and no single position can absorb a further constant
    (or be replaced by [top]) while remaining one. [handle] and
    [ids] as in {!one_mge}. *)

val trivial_explanation : Whynot.t -> Whynot_concept.Ls.t Explanation.t
(** The tuple of nominals [({a_1}, ..., {a_m})] — always an explanation
    w.r.t. [O_I] (§5.2). *)

val mask_absorb_accepts :
  Whynot_concept.Subsume_memo.inst ->
  Explanation.Frontier.ids ->
  'c Explanation.Frontier.t ->
  int ->
  Bits.t ->
  int ->
  bool
(** [mask_absorb_accepts h q f j m i]: the test a selection-free absorb
    attempt makes, at position [j] of [f], on a support of mask [m] and
    the [i]-th active-domain constant [b]. It holds iff
    [Explanation.Frontier.accepts f j c] for a concept [c] with the
    extension of [Lub.render h (Bits.inter m (posmask b))], for any mask
    [m] of the handle's width ([h] and [q] those [f] was made over).
    Exposed for tests. *)
