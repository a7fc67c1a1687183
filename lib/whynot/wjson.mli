(** Minimal JSON values (the repo carries no JSON dependency) and the
    versioned envelope every CLI subcommand prints:

    {v {"schema_version": 2, "command": "...", "result": ...}
       {"schema_version": 2, "command": "...", "error": {"code", "message"}} v} *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialisation with escaped strings. *)

val write : Buffer.t -> t -> unit
(** Append {!to_string}'s bytes to a buffer. *)

val add_string : Buffer.t -> string -> unit
(** Append a string as a JSON string literal, quoted and escaped. *)

val of_string : string -> (t, Whynot_error.t) result
(** Parse one JSON value (the whole string must be consumed). [`Parse]
    carries the byte offset of the failure. Numbers without ['.'], ['e']
    or ['E'] become [Int] (degrading to [Float] past native-int range),
    everything else [Float] — so [of_string (to_string j) = Ok j] for
    every finite value. Nesting is bounded (512 levels), making the
    decoder safe on adversarial wire input. *)

val member : string -> t -> t option
(** First field of that name of an [Obj]; [None] otherwise. *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option
val to_list_opt : t -> t list option

val envelope : command:string -> t -> t
(** Success envelope wrapping a [result]. *)

val error_envelope : command:string -> Whynot_error.t -> t
(** Error envelope with the error's kebab-case [code] and message. *)
