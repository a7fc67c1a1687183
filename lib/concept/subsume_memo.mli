(** The memoised subsumption and extension layer.

    The MGE algorithms (Algorithms 1 and 2), the irredundancy minimiser
    and the lub computations re-decide subsumption and re-evaluate concept
    extensions for heavily overlapping concept pairs; the Table-1 deciders
    behind [⊑_S] are the most expensive calls in the system. This module
    memoises concept extensions, which decide [⊑_I] by inclusion
    (Proposition 4.1), and puts a memo table in front of
    {!Subsume_schema} ([⊑_S]) so each (left, right, constraint-class)
    verdict is decided once per run, keyed on the concepts themselves
    (by {!Ls.hash} and {!Ls.equal}).

    Caches live in {e handles}. A handle is a plain value owned by whoever
    creates it, with no registry behind it: an engine keeps one handle per
    worker slot for its whole life, and an entry point called without a
    handle creates one per call and threads it through the run. Handles
    therefore have exactly the lifetime of their owner, and two owners
    never share cache state or a deadline. Concept identity belongs to
    the handle too: it keeps one representative value per concept it has
    produced (see {!canonical}), and that table dies with it. Handles are
    not thread-safe: each belongs to one domain at a time.

    All cache traffic is counted through {!Whynot_obs.Obs}
    ([subsume.schema.calls]/[subsume.schema.hits], [memo.ext.*],
    [memo.translate.*], [memo.lub.*], the last counting {!Lub.lub_sigma}
    only); the benchmark harness records the
    counters into [BENCH_whynot.json], and [whynot_cli --stats] prints
    them. *)

open Whynot_relational

(** {1 Instance-level caching ([⊑_I], extensions, lubs)} *)

type inst
(** A memo handle for one instance. *)

val inst : Instance.t -> inst
(** A fresh, empty handle for this instance (counted by
    [memo.handles.instance]). It owns one {!Eval_index.t} over the
    instance, which every cache miss reads through. *)

val instance : inst -> Instance.t
(** The instance the handle was built from. *)

val index : inst -> Eval_index.t
(** The handle's own index over its instance; callers that evaluate
    queries against the same instance reuse it instead of building
    another. *)

val canonical : inst -> Ls.t -> Ls.t
(** The handle's stored value {!Ls.equal} to [c]; [c] itself, now
    stored, when there is none. {!memo_lub} and {!Lub.lub} return values
    through it, so warm lookups on them end at physical equality; map
    concepts built elsewhere (parsed from text, say) through it too. *)

val extension : inst -> Ls.t -> Semantics.ext
(** [[C]]^I, memoised per concept with a shared per-conjunct cache (the
    irredundancy minimiser probes many conjunct subsets of one concept). *)

val conjunct_ext : inst -> Ls.conjunct -> Semantics.ext
(** The extension of a single atomic conjunct, memoised structurally —
    the unit the irredundancy minimiser and [lub_sigma] recombine. *)

val subsumes : inst -> Ls.t -> Ls.t -> bool
(** [C1 ⊑_I C2]: {!Semantics.ext_subset} of the two memoised
    {!extension}s. No verdict is stored. *)

val positions : inst -> (string * int) array
(** All (relation, attribute) positions of the instance, computed once,
    in the order {!Ls} sorts the selection-free projections: bit [k] of
    a position mask (below) stands for [pi_attr(rel)] with
    [(rel, attr) = (positions h).(k)]. *)

val adom : inst -> Value_set.t
(** [adom(I)], computed on first use and kept: the constants every
    Algorithm 2 search and CHECK-MGE offer, and the base of the
    question's constant pool. Creating a handle does not compute it. *)

(** {2 Selection-free lubs as position masks}

    By Lemma 5.1 a selection-free lub is a set of positions: the
    projections whose column holds every constant of the set (plus the
    nominal when the set is a singleton). The handle keeps, computed on
    first use and never when it is created, each active-domain
    constant's {e position mask}: the positions whose column holds it.
    {!Lub} builds, tests, renders and shortens lubs from these masks. *)

val adom_array : inst -> Value.t array
(** {!adom} in ascending order, indexed like {!posmasks}. *)

val posmasks : inst -> Bits.t array
(** The position masks of the active domain: [(posmasks h).(i)] belongs
    to [(adom_array h).(i)]. *)

val posmask : inst -> Value.t -> Bits.t
(** A constant's position mask (a hash lookup); empty outside the active
    domain. *)

val memo_lub : inst -> tag:int -> Value_set.t -> (unit -> Ls.t) -> Ls.t
(** Compute-through cache for {!Lub.lub_sigma} results keyed on
    [(tag, elements X)]; [tag] separates the pruned and unpruned variants
    that share a handle. A computed lub is stored as its {!canonical}
    representative. Only these calls count as [memo.lub.*]: selection-free
    lubs come from the masks above and are not memoised. *)

(** {1 Schema-level caching ([⊑_S])} *)

type schema
(** A memo handle for one schema. *)

val schema : Schema.t -> schema
(** A fresh, empty handle for this schema (counted by
    [memo.handles.schema]); classifies the schema once. *)

val schema_of : schema -> Schema.t
(** The schema the handle was built from. *)

val constraint_class : schema -> Subsume_schema.constraint_class
(** The Table-1 class, classified once per handle; every cached verdict
    of the handle was decided under this class. *)

val translate : schema -> Ls.t -> Ucq.t
(** Memoised {!To_query.ucq} (per concept); also passed into
    {!Subsume_schema.decide} as its [translate] hook on cache misses. *)

val decide :
  ?chase_depth:int -> schema -> Ls.t -> Ls.t -> Subsume_schema.verdict
(** Memoised {!Subsume_schema.decide}. [chase_depth] only influences the
    first decision of a pair; callers that need a different depth for an
    already-cached pair must use the uncached decider directly. *)

val schema_subsumes : ?chase_depth:int -> schema -> Ls.t -> Ls.t -> bool
(** [decide = Subsumed]. *)

(** {1 Cooperative deadlines}

    A handle may carry an absolute deadline ([Whynot_obs.Obs.now_s]
    seconds). Every memoised entry point checks it before touching a
    cache and raises {!Deadline_exceeded} once the clock passes it, so
    the MGE algorithms — whose expensive work all funnels through these
    entry points — unwind within one candidate evaluation.
    [Whynot.Engine] sets deadlines on its per-worker handles around an
    operation and converts the exception into a [`Timeout] result; direct
    callers of this module normally never see the
    exception because handles start with no deadline. *)

exception Deadline_exceeded

val check_deadline : inst -> unit
(** The entry points' check, for loops that run without calling them:
    @raise Deadline_exceeded once the handle's deadline has passed. *)

val set_inst_deadline : inst -> float option -> unit
(** [Some t]: raise from this handle's entry points once
    [Whynot_obs.Obs.now_s () > t]; [None] clears. *)

val set_schema_deadline : schema -> float option -> unit
