(** Seeded QCheck2 generators covering the paper's whole input space:
    values, tuples, relations, schemas per Table-1 constraint class,
    instances {e satisfying} their schema, conjunctive queries with
    comparisons, [L_S] concepts, DL-LiteR TBoxes and models, GAV OBDA
    specifications, and why-not questions.

    All generators are plain [QCheck2.Gen.t] values, so they are
    deterministic given the [Random.State.t] the runner seeds them with,
    and they shrink through QCheck2's integrated shrinking: counterexamples
    are minimised structurally (fewer facts, fewer atoms, fewer conjuncts)
    before being reported. *)

open Whynot_relational

val value : Value.t QCheck2.Gen.t
(** Small ints, a five-letter string pool, and non-integral reals. The
    pools are deliberately tiny so that independently generated artifacts
    share constants (joins, memberships and FD/IND interactions actually
    fire). Reals are kept non-integral so that printing and re-parsing a
    value never changes its class. *)

val int_value : Value.t QCheck2.Gen.t

val tuple : arity:int -> Tuple.t QCheck2.Gen.t

val cmp_op : Cmp_op.t QCheck2.Gen.t

val sublist : 'a list -> 'a list QCheck2.Gen.t
(** Each element kept or dropped independently, in order. *)

val relation : arity:int -> Relation.t QCheck2.Gen.t

val instance : Instance.t QCheck2.Gen.t
(** A schema-less instance over a binary relation [R] and a unary [S]
    (both always present, possibly empty). *)

val rs_schema : Schema.t
(** The constraint-free schema matching {!instance}: [R(a1, a2)] and
    [S(a1)]. *)

type schema_class =
  | No_constraints
  | Fds_only
  | Inds_only
  | Views_only
  | Mixed

val schema_class : schema_class QCheck2.Gen.t

val schema : ?max_arity:int -> schema_class -> Schema.t QCheck2.Gen.t
(** One to three relations [R0, R1, R2] of arities 1-[max_arity]
    (default 3) with named attributes, carrying constraints of the
    requested class: FDs [first -> last] per relation, an IND chain on
    first attributes, a unary UCQ view [V0] over [R0], or a mixture. *)

val legal_instance : Schema.t -> Instance.t QCheck2.Gen.t
(** An instance satisfying every constraint of the schema, with all views
    materialised: random facts are repaired (FD violations dropped, IND
    violations chased with filler tuples) until [Schema.satisfies] holds;
    the empty instance is the fallback when repair does not converge. *)

val cq :
  ?with_comparisons:bool -> ?max_atoms:int -> ?arity:int -> Schema.t ->
  Cq.t QCheck2.Gen.t
(** A safe CQ over the schema's data relations: 1-[max_atoms] atoms
    (default 3), head variables drawn from the body, and (by default) up
    to two comparisons to constants. [arity] forces the head width
    (default random 0-2). *)

val ucq :
  ?with_comparisons:bool -> ?max_atoms:int -> ?arity:int -> Schema.t ->
  Ucq.t QCheck2.Gen.t

val concept :
  ?with_selections:bool ->
  ?with_nominal:bool ->
  ?max_conjuncts:int ->
  ?max_sels:int ->
  Schema.t ->
  Whynot_concept.Ls.t QCheck2.Gen.t
(** An [L_S] concept over the schema's positions: projections with up to
    [max_sels] selection conditions each (default 2; none when
    [with_selections] is false), an optional nominal, and occasionally
    [top]. *)

val tbox : Whynot_dllite.Tbox.t QCheck2.Gen.t
(** 1-3 atomic concepts, 1-2 atomic roles, 2-8 axioms mixing positive and
    negative concept/role inclusions. Always mentions the atomic concept
    [A0], so OBDA mapping heads have a target. *)

val model_of : Whynot_dllite.Tbox.t -> Whynot_dllite.Interp.t QCheck2.Gen.t
(** A finite interpretation satisfying the {e positive} axioms of the
    TBox: random memberships and edges over four constants, closed under
    {!Oracle.positive_chase}. Negative axioms may fail — callers that need
    a full model must filter with [Interp.satisfies]. *)

val obda : (Whynot_obda.Spec.t * Instance.t) QCheck2.Gen.t
(** A well-formed OBDA specification (random TBox, a small relational
    schema, 1-3 safe GAV mappings with optional comparisons) together with
    an instance for its schema. *)

val whynot : Whynot_core.Whynot.t option QCheck2.Gen.t
(** A why-not question over a binary relation [R] and a ternary [T]
    (five positions, so [O_I[K]] has classes of three and more
    conjuncts) with a two-atom chain query of head arity 1 or 2 ([R]
    then [R], or now and then [R] then [T]) and a missing tuple certified
    absent from the answers; [None] when the random instance answers
    everything (the property should then pass vacuously). *)

val whynot_wide : Whynot_core.Whynot.t option QCheck2.Gen.t
(** A wider why-not question: two or three relations ([R/2], [S/1] and
    sometimes [T/3]), a two-atom query of head arity 1-3 whose last head
    term is sometimes a constant outside the instance, and missing
    values that may lie outside the active domain. [None] when the drawn
    tuple is an answer. *)

val whynot_edge : Whynot_core.Whynot.t option QCheck2.Gen.t
(** The frontier's edge cases: three times in four a question over
    about 205 answers (at least three 63-bit words of them), otherwise a
    question of arity 0 with no answer. Never [None]. *)

val wire_json : Whynot.Json.t QCheck2.Gen.t
(** Arbitrary wire JSON: full-byte-range strings, finite floats (integral
    and fractional), deep lists/objects — everything the server's codec
    must round-trip byte-exactly. *)

val wire_envelope : Whynot.Json.t QCheck2.Gen.t
(** Half arbitrary {!wire_json} documents, half objects shaped like the
    server's schema_version-3 request/response envelopes. *)
