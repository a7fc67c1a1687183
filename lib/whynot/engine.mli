(** The unified explanation engine.

    An engine bundles everything one explanation session needs — the
    instance, the optional schema, the memo handles, and a pool of worker
    domains — behind a facade whose every operation returns
    [(_, Whynot_error.t) result]. Create one per (schema, instance) pair,
    ask it why-not questions, and {!close} it when done:

    {[
      let* engine = Engine.create ~domains:4 ~instance () in
      let* wn = Engine.question engine ~query ~missing () in
      let* mge = Engine.one_mge engine wn in
      ...
      let* () = Engine.close engine
    ]}

    With [domains = n] the engine runs Algorithm 1 over [n] domains (the
    calling domain participates, so [n = 1] is exactly the sequential
    code path); every search returns the {e same} result as its
    sequential counterpart regardless of [n] — parallelism changes only
    the wall-clock, never the answer. Algorithm 2 is one ordered fold and
    runs sequentially at every [n].

    The engine owns one memo handle per worker slot, created with it:
    slot 0 serves the calling domain and every sequential operation,
    slots 1.. only Algorithm 1's worker domains. Each slot stays warm
    across operations, and no other engine ever sees the handles or the
    deadline set on them.

    Engines are not themselves thread-safe: issue operations from one
    domain at a time. *)

open Whynot_relational

type t

val create :
  ?schema:Schema.t ->
  ?domains:int ->
  instance:Instance.t ->
  unit ->
  (t, Whynot_error.t) result
(** [domains] defaults to [1]; [`Invalid_config] when [domains < 1].
    Supplying a schema enables {!all_mges_schema} and makes {!question}
    check the instance against it (once per engine). An illegal instance
    is accepted here; {!question} reports it. *)

val domains : t -> int
val schema : t -> Schema.t option
val instance : t -> Instance.t
val is_closed : t -> bool

val set_deadline : t -> float option -> unit
(** [set_deadline e (Some t)]: operations on [e] are cancelled
    cooperatively once the wall clock ({!Whynot_obs.Obs.now_s}) passes the
    absolute time [t], returning [`Timeout] instead of a result — the
    cancellation points are the memoised subsumption/extension/lub entry
    points every search funnels through, on every worker slot's handle,
    so parallel runs unwind on all domains within one
    candidate evaluation. Verdicts computed before the trip stay cached
    (the engine is left warm and fully usable). [None] clears the
    deadline. The serving layer installs a deadline per request. The
    deadline lives on this engine's own handles: other engines, even over
    the same instance value, never observe it. *)

val question :
  ?answers:Relation.t ->
  t ->
  query:Cq.t ->
  missing:Value.t list ->
  unit ->
  (Whynot_core.Whynot.t, Whynot_error.t) result
(** Build a why-not question over the engine's instance (and schema):
    [`Invalid_whynot] on an unsafe query, an arity mismatch, or a missing
    tuple that is in fact an answer; [`Schema_violation] when the engine
    has a schema the instance violates. The result equals
    [Whynot.make ?schema ?answers ~instance ~query ~missing ()].

    Following Definition 5.1, the engine computes the two inputs of a
    why-not instance once instead of per question: legality of the
    instance is checked on the first [question] (not in {!create}) and the
    verdict, [Ok] or [`Schema_violation], is returned by every later one;
    [Ans = q(I)] is evaluated over the engine's own index and kept for
    the last query asked (keyed by the query value), so repeated
    questions over one query evaluate it once. A caller-supplied
    [answers] is used as is and not kept. *)

(** {1 Algorithm 2 — incremental search w.r.t. [O_I]} *)

val one_mge :
  ?variant:Whynot_core.Incremental.variant ->
  ?order:[ `Ascending | `Descending ] ->
  ?shorten:bool ->
  t ->
  Whynot_core.Whynot.t ->
  (Whynot_concept.Ls.t Whynot_core.Explanation.t, Whynot_error.t) result
(** A most-general explanation w.r.t. the instance-derived ontology:
    [Incremental.one_mge] on the engine's slot-0 handle, at every domain
    count. *)

val check_mge :
  ?variant:Whynot_core.Incremental.variant ->
  t ->
  Whynot_core.Whynot.t ->
  Whynot_concept.Ls.t Whynot_core.Explanation.t ->
  (bool, Whynot_error.t) result
(** CHECK-MGE w.r.t. [O_I] (sequential; the check is a single sweep of
    single-position upgrades). *)

(** {1 Algorithm 1 — exhaustive search w.r.t. finite ontologies}

    [values] is the constant pool [K] of the finite restriction and
    defaults to [Whynot.constant_pool] of the question. *)

val all_mges :
  ?values:Value_set.t ->
  t ->
  Whynot_core.Whynot.t ->
  (Whynot_concept.Ls.t Whynot_core.Explanation.t list, Whynot_error.t) result
(** All MGEs w.r.t. [O_I[K]], the finite selection-free restriction of the
    instance-derived ontology — the parallel [Exhaustive.all_mges]. *)

val exists_explanation :
  ?values:Value_set.t ->
  t ->
  Whynot_core.Whynot.t ->
  (bool, Whynot_error.t) result

val one_mge_exhaustive :
  ?values:Value_set.t ->
  t ->
  Whynot_core.Whynot.t ->
  ( Whynot_concept.Ls.t Whynot_core.Explanation.t option,
    Whynot_error.t )
  result

val all_mges_schema :
  ?fragment:Whynot_core.Schema_mge.fragment ->
  ?values:Value_set.t ->
  t ->
  Whynot_core.Whynot.t ->
  (Whynot_concept.Ls.t Whynot_core.Explanation.t list, Whynot_error.t) result
(** All MGEs w.r.t. [O_S[K]] restricted to [fragment] (default
    [`Minimal]); [`Missing_input] when the engine was created without a
    schema. *)

val all_mges_finite :
  t ->
  'c Whynot_core.Ontology.t ->
  Whynot_core.Whynot.t ->
  ('c Whynot_core.Explanation.t list, Whynot_error.t) result
(** All MGEs w.r.t. a caller-supplied finite ontology (hand-written or
    OBDA-induced); [`Infinite_ontology] when it does not enumerate its
    concepts. The ontology's closures are shared across worker domains
    and must tolerate concurrent calls — the ontologies built by
    [Ontology.of_extensions] and [Ontology.of_obda] do. *)

(** {1 Observability and shutdown} *)

val counters : t -> (string * int) list
(** The process-global observability snapshot ({!Whynot_obs.Obs.snapshot}):
    counter values aggregate the per-domain stripes, so after an operation
    returns they account for every worker's increments. *)

val close : t -> (unit, Whynot_error.t) result
(** Shut the worker domains down; the engine's memo handles go with it.
    Touches no other engine. Idempotent; any further operation on the
    engine fails with [`Closed]. *)
