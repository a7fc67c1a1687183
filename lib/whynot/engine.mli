(** The unified explanation engine.

    An engine bundles everything one explanation session needs — the
    instance, the optional schema and the memo handles — behind a facade
    whose every operation returns [(_, Whynot_error.t) result]. Create one
    per (schema, instance) pair, ask it why-not questions, and {!close} it
    when done:

    {[
      let* engine = Engine.create ~instance () in
      let* wn = Engine.question engine ~query ~missing () in
      let* mge = Engine.one_mge engine wn in
      ...
      let* () = Engine.close engine
    ]}

    The engine owns one instance memo handle, and one schema memo handle
    when it has a schema, both created with it. They stay warm across
    operations, and no other engine ever sees them or the deadline set on
    them. Every search runs on the calling domain: Algorithm 1 is
    {!Whynot_core.Exhaustive} over the engine's handles, Algorithm 2 is
    {!Whynot_core.Incremental}.

    Engines are not themselves thread-safe: issue operations from one
    thread at a time. *)

open Whynot_relational

type t

val create :
  ?schema:Schema.t ->
  ?domains:int ->
  instance:Instance.t ->
  unit ->
  (t, Whynot_error.t) result
(** [domains] is accepted for compatibility and has no effect:
    [`Invalid_config] when [domains < 1], otherwise ignored. Supplying a
    schema enables {!all_mges_schema} and makes {!question}
    check the instance against it (once per engine). An illegal instance
    is accepted here; {!question} reports it. *)

val is_closed : t -> bool

val set_deadline : t -> float option -> unit
(** [set_deadline e (Some t)]: operations on [e] are cancelled
    cooperatively once the wall clock ({!Whynot_obs.Obs.now_s}) passes the
    absolute time [t], returning [`Timeout] instead of a result — the
    cancellation points are the memoised subsumption/extension/lub entry
    points every search funnels through, so a search unwinds within one
    candidate evaluation. Verdicts computed before the trip stay cached
    (the engine is left warm and fully usable). [None] clears the
    deadline. The serving layer installs a deadline per request. The
    deadline lives on this engine's own handles: other engines, even over
    the same instance value, never observe it. *)

val question :
  t ->
  query:Cq.t ->
  missing:Value.t list ->
  unit ->
  (Whynot_core.Whynot.t, Whynot_error.t) result
(** Build a why-not question over the engine's instance (and schema):
    [`Invalid_whynot] on an unsafe query, an arity mismatch, or a missing
    tuple that is in fact an answer; [`Schema_violation] when the engine
    has a schema the instance violates. The result equals
    [Whynot.make ?schema ~instance ~query ~missing ()].

    Following Definition 5.1, the engine computes the two inputs of a
    why-not instance once instead of per question: legality of the
    instance is checked on the first [question] (not in {!create}) and the
    verdict, [Ok] or [`Schema_violation], is returned by every later one;
    [Ans = q(I)] is evaluated over the engine's own index and kept for
    the last query asked (keyed by the query value), so repeated
    questions over one query evaluate it once. Beside it the engine
    keeps the query's safety and arity and [Ans] encoded as
    {!Whynot_core.Explanation.Frontier} ids, made on the first question
    over it: a question over the kept [Ans] checks neither safety nor
    arity again, and tests "missing ∈ Ans" on the encoding
    ({!Whynot_core.Explanation.Frontier.is_answer}). {!one_mge} and
    {!check_mge} use the encoding for every question whose answers are
    that kept [Ans] (a question built elsewhere, with
    [Whynot.make ~answers], included), and encode the answers per call
    otherwise. *)

val instance_handle : t -> Whynot_concept.Subsume_memo.inst
(** The engine's instance handle: its cached active domain, extensions
    and masks, for a caller that builds an ontology over the same
    instance ([Schema_mge.ontology ~handle]). *)

val constant_pool : t -> Whynot_core.Whynot.t -> Value_set.t
(** [Whynot.constant_pool] of a question built by {!question}: the
    engine's active domain, computed on first use and kept, plus the
    missing values. *)

(** {1 Algorithm 2 — incremental search w.r.t. [O_I]} *)

val one_mge :
  ?variant:Whynot_core.Incremental.variant ->
  t ->
  Whynot_core.Whynot.t ->
  (Whynot_concept.Ls.t Whynot_core.Explanation.t, Whynot_error.t) result
(** A most-general explanation w.r.t. the instance-derived ontology:
    [Incremental.one_mge] on the engine's instance handle. *)

val check_mge :
  ?variant:Whynot_core.Incremental.variant ->
  t ->
  Whynot_core.Whynot.t ->
  Whynot_concept.Ls.t Whynot_core.Explanation.t ->
  (bool, Whynot_error.t) result
(** CHECK-MGE w.r.t. [O_I]: a single sweep of single-position
    upgrades. *)

(** {1 Algorithm 1 — exhaustive search w.r.t. finite ontologies}

    The constant pool [K] of each finite restriction is the question's
    [Whynot.constant_pool]. *)

val all_mges :
  t ->
  Whynot_core.Whynot.t ->
  (Whynot_concept.Ls.t Whynot_core.Explanation.t list, Whynot_error.t) result
(** All MGEs w.r.t. [O_I[K]], the finite selection-free restriction of the
    instance-derived ontology: [Exhaustive.all_mges] over the engine's
    instance handle. *)

val all_mges_schema :
  t ->
  Whynot_core.Whynot.t ->
  (Whynot_concept.Ls.t Whynot_core.Explanation.t list, Whynot_error.t) result
(** All MGEs w.r.t. [O_S[K]] restricted to its minimal fragment ([top],
    the nominals of [K] and the schema's projections; the full
    selection-free fragment is {!Whynot_core.Schema_mge.all_mges}'s);
    [`Missing_input] when the engine was created without a schema. *)

val all_mges_finite :
  t ->
  'c Whynot_core.Ontology.t ->
  Whynot_core.Whynot.t ->
  ('c Whynot_core.Explanation.t list, Whynot_error.t) result
(** All MGEs w.r.t. a caller-supplied finite ontology (hand-written or
    OBDA-induced): [Exhaustive.all_mges], under the engine's closed check.
    [`Infinite_ontology] when it does not enumerate its concepts. *)

(** {1 Shutdown} *)

val close : t -> (unit, Whynot_error.t) result
(** Brick the engine: any further operation on it fails with [`Closed],
    and its memo handles go with it. Touches no other engine.
    Idempotent. *)
