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

type located = {
  token : token;
  line : int;
}

val tokenize : string -> (located list, Whynot_error.t) result
(** Errors are [`Parse] and carry a line number and a short
    description. *)

val pp_token : Format.formatter -> token -> unit
