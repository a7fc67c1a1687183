(** The single error type of the public API.

    Every operation of the {!Whynot.Engine} facade and every entry point
    of [lib/core]'s algorithms and [lib/text] fails with a value of this
    polymorphic variant instead of raising; the only raising entries left
    are the [make_exn] constructors for fixed, known-good data. The payloads
    are human-readable messages (parser errors keep their [line N]
    prefixes); {!code} gives a stable machine-readable tag used by the
    CLI's JSON envelope, and the CLI maps any [Error _] to exit code 2. *)

type t =
  [ `Parse of string  (** lexer/parser failure, message carries [line N] *)
  | `Invalid_whynot of string
    (** malformed why-not or why question: unsafe query, arity mismatch,
        tuple on the wrong side of the answer set *)
  | `Schema_violation of string
    (** the instance does not satisfy the declared schema *)
  | `Infinite_ontology of string
    (** a finite-ontology algorithm was given an ontology with
        [concepts = None] *)
  | `Not_an_explanation of string
    (** an operation requiring an explanation was given a non-explanation *)
  | `Missing_input of string
    (** a required ingredient is absent (no schema on the engine, no
        query in the document, ...) *)
  | `Inconsistent of string
    (** the data is inconsistent with the ontology (OBDA retrieved
        assertions) *)
  | `Invalid_config of string
    (** bad engine configuration: non-positive domain count *)
  | `Closed of string
    (** operation on an engine (or server session) after [close] *)
  | `Timeout of string
    (** the operation was cancelled cooperatively because it exceeded its
        deadline — see [Whynot.Engine.set_deadline] *)
  | `Internal of string  (** invariant violation; please report *)
  ]

val code : t -> string
(** A stable kebab-case tag for the constructor, e.g. ["parse"],
    ["invalid-whynot"], ["infinite-ontology"] — the [error.code] field of
    the CLI's JSON envelope. *)

val message : t -> string
(** The payload message alone. *)

val to_string : t -> string
(** ["<code>: <message>"]. *)
