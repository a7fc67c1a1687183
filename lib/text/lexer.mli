(** Hand-written lexer for the why-not text format (see {!Parser} for the
    grammar). Comments run from [#] to end of line. *)

type token =
  | Ident of string     (** bare identifiers, may contain [- _ .] *)
  | String of string
      (** double-quoted, escapes decoded: [\n \t \r \b], [\ddd] (a
          decimal byte), and a backslash before any other character
          stands for that character, so every [Value.to_string] of a
          string reads back as that string *)
  | Number of Whynot_relational.Value.t  (** [Int] or [Real] *)
  | Lparen | Rparen
  | Lbracket | Rbracket
  | Lbrace | Rbrace
  | Comma | Colon | Semicolon
  | Eq | Lt | Gt | Le | Ge
  | Arrow        (** [->] *)
  | Define       (** [:=] *)
  | Subsumed     (** [[=] or [<=] — context disambiguates [Le]: the lexer
                     emits [Le] and the parser treats it as subsumption
                     where appropriate *)
  | Bar          (** [|] *)
  | Amp          (** [&] — concept intersection *)
  | Bang         (** [!] — Datalog negation *)
  | Eof

(** {2 Streaming} *)

type t
(** A lexer over one source string: {!next} reads one token at a time,
    so a parser holds one token and never a list of them. *)

exception Error of string
(** A lexical error: a line number and a short description
    (["line 3: unexpected character '@'"]). *)

val of_string : string -> t

val next : t -> token
(** The next token; [Eof] at the end of the input, and again on every
    call after it. A keyword comes back as one preallocated token; that
    saves an allocation, and callers must not rely on it.
    @raise Error on a lexical error. *)

val line : t -> int
(** The line of the token {!next} returned last. *)

(** {2 Whole sources} *)

type located = {
  token : token;
  line : int;
}

val tokenize : string -> (located list, Whynot_error.t) result
(** Every token of the source, [Eof] last. Errors are [`Parse] and carry
    a line number and a short description. *)

val pp_token : Format.formatter -> token -> unit
