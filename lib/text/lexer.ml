type token =
  | Ident of string
  | String of string
  | Number of Whynot_relational.Value.t
  | Lparen | Rparen
  | Lbracket | Rbracket
  | Lbrace | Rbrace
  | Comma | Colon | Semicolon
  | Eq | Lt | Gt | Le | Ge
  | Arrow
  | Define
  | Subsumed
  | Bar
  | Amp
  | Bang
  | Eof

type located = {
  token : token;
  line : int;
}

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let is_digit c = c >= '0' && c <= '9'

exception Error of string

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
}

let of_string src = { src; pos = 0; line = 1 }
let line lx = lx.line

let error lx msg = raise (Error (Printf.sprintf "line %d: %s" lx.line msg))

(* Keywords come back as the same token, with no copy of the source. *)
let keywords =
  List.map
    (fun k -> Ident k)
    [ "relation"; "fd"; "ind"; "view"; "fact"; "query"; "rule"; "whynot";
      "concept"; "ext"; "axiom"; "role-axiom"; "mapping"; "exists"; "not";
      "top" ]

let rec same_from src i s k =
  k = String.length s || (src.[i + k] = s.[k] && same_from src i s (k + 1))

let same_text src i n = function
  | Ident s -> String.length s = n && same_from src i s 0
  | _ -> false

(* The keyword token the source spells at [i], or [Eof]. Keywords are
   lower case and at most ten characters long. *)
let rec keyword src i n = function
  | [] -> Eof
  | k :: rest -> if same_text src i n k then k else keyword src i n rest

let ident_token lx i j =
  let n = j - i in
  let kw =
    if n <= 10 && lx.src.[i] >= 'a' && lx.src.[i] <= 'z' then
      keyword lx.src i n keywords
    else Eof
  in
  if kw != Eof then kw else Ident (String.sub lx.src i n)

(* Toplevel scans, not local closures: a token allocates what it
   holds and nothing else. *)
let rec ident_end src j =
  if j < String.length src && is_ident_char src.[j] then ident_end src (j + 1)
  else j

let rec plain_end src j =
  if
    j < String.length src
    && src.[j] <> '"' && src.[j] <> '\\' && src.[j] <> '\n'
  then plain_end src (j + 1)
  else j

let rec number_end src j seen_dot =
  if j < String.length src then
    match src.[j] with
    | c when is_digit c -> number_end src (j + 1) seen_dot
    | '.' when not seen_dot -> number_end src (j + 1) true
    | '_' -> number_end src (j + 1) seen_dot
    | _ -> j
  else j

let rec digits src k j acc =
  if k = j then Some acc
  else if is_digit src.[k] then
    digits src (k + 1) j ((10 * acc) + (Char.code src.[k] - Char.code '0'))
  else None

let rec comment_end src j =
  if j < String.length src && src.[j] <> '\n' then comment_end src (j + 1)
  else j

(* A literal without escapes is one [String.sub]; from its first escape
   on, its bytes go through a buffer. The escapes are those
   [Value.to_string] writes ([String.escaped]): [\n \t \r \b], [\ddd]
   in decimal, and any other byte (a quote, a backslash) taken as it
   is. *)
let string_token lx i =
  let src = lx.src and n = String.length lx.src in
  let j = plain_end src (i + 1) in
  if j < n && src.[j] = '"' then begin
    lx.pos <- j + 1;
    String (String.sub src (i + 1) (j - i - 1))
  end
  else
    let buf = Buffer.create (j - i + 16) in
    Buffer.add_substring buf src (i + 1) (j - i - 1);
    let rec str j =
      if j >= n then error lx "unterminated string"
      else
        match src.[j] with
        | '"' ->
          lx.pos <- j + 1;
          String (Buffer.contents buf)
        | '\\' when j + 1 < n ->
          (match src.[j + 1] with
           | 'n' -> Buffer.add_char buf '\n'; str (j + 2)
           | 't' -> Buffer.add_char buf '\t'; str (j + 2)
           | 'r' -> Buffer.add_char buf '\r'; str (j + 2)
           | 'b' -> Buffer.add_char buf '\b'; str (j + 2)
           | c when is_digit c ->
             let code =
               if j + 3 < n && is_digit src.[j + 2] && is_digit src.[j + 3]
               then int_of_string (String.sub src (j + 1) 3)
               else 256
             in
             if code > 255 then
               error lx
                 (Printf.sprintf "illegal escape %S in string literal"
                    (String.sub src j (min 4 (n - j))))
             else begin
               Buffer.add_char buf (Char.chr code);
               str (j + 4)
             end
           | c -> Buffer.add_char buf c; str (j + 2))
        | '\n' -> error lx "newline in string literal"
        | c ->
          Buffer.add_char buf c;
          str (j + 1)
    in
    str j

(* The number at [i]: [None] when its text reads as neither an integer
   nor a float, and the lexer goes on after it. Plain digits that fit
   are read in place. *)
let number_token lx i =
  let src = lx.src in
  let neg = src.[i] = '-' in
  let first = if neg then i + 1 else i in
  let j = number_end src first false in
  lx.pos <- j;
  match if j - first <= 18 then digits src first j 0 else None with
  | Some k -> Some (Number (Whynot_relational.Value.Int (if neg then -k else k)))
  | None ->
    let text = String.sub src i (j - i) in
    let text =
      if String.contains text '_' then
        String.concat "" (String.split_on_char '_' text)
      else text
    in
    (match int_of_string_opt text with
     | Some k -> Some (Number (Whynot_relational.Value.Int k))
     | None ->
       (match float_of_string_opt text with
        | Some x -> Some (Number (Whynot_relational.Value.Real x))
        | None -> None))

let sym lx i tok len =
  lx.pos <- i + len;
  tok

(* [tok] when [c] follows at [i + 1], [tok1] otherwise. *)
let two lx i c tok tok1 =
  if i + 1 < String.length lx.src && lx.src.[i + 1] = c then sym lx i tok 2
  else sym lx i tok1 1

let rec next lx =
  let src = lx.src and i = lx.pos in
  let n = String.length src in
  if i >= n then Eof
  else
    match src.[i] with
    | '\n' ->
      lx.line <- lx.line + 1;
      lx.pos <- i + 1;
      next lx
    | ' ' | '\t' | '\r' ->
      lx.pos <- i + 1;
      next lx
    | '#' ->
      lx.pos <- comment_end src i;
      next lx
    | '(' -> sym lx i Lparen 1
    | ')' -> sym lx i Rparen 1
    (* "[=" is the subsumption arrow of DL syntax. *)
    | '[' -> two lx i '=' Subsumed Lbracket
    | ']' -> sym lx i Rbracket 1
    | '{' -> sym lx i Lbrace 1
    | '}' -> sym lx i Rbrace 1
    | ',' -> sym lx i Comma 1
    | ';' -> sym lx i Semicolon 1
    | '|' -> sym lx i Bar 1
    | '&' -> sym lx i Amp 1
    | '!' -> sym lx i Bang 1
    | '=' -> sym lx i Eq 1
    | ':' -> two lx i '=' Define Colon
    | '<' -> two lx i '=' Le Lt
    | '>' -> two lx i '=' Ge Gt
    | '-' ->
      if i + 1 < n && src.[i + 1] = '>' then sym lx i Arrow 2
      else if i + 1 < n && is_digit src.[i + 1] then number lx i
      else error lx "unexpected '-'"
    | '"' -> string_token lx i
    | c when is_digit c -> number lx i
    | c when is_ident_start c ->
      let j = ident_end src i in
      lx.pos <- j;
      ident_token lx i j
    | c -> error lx (Printf.sprintf "unexpected character %C" c)

and number lx i =
  match number_token lx i with
  | Some tok -> tok
  | None -> next lx

let tokenize src =
  let lx = of_string src in
  let rec loop acc =
    match next lx with
    | Eof -> Ok (List.rev ({ token = Eof; line = lx.line } :: acc))
    | token -> loop ({ token; line = lx.line } :: acc)
    | exception Error msg -> Error (`Parse msg)
  in
  loop []

let pp_token ppf = function
  | Ident s -> Format.fprintf ppf "identifier %s" s
  | String s -> Format.fprintf ppf "string %S" s
  | Number v -> Format.fprintf ppf "number %a" Whynot_relational.Value.pp v
  | Lparen -> Format.pp_print_string ppf "'('"
  | Rparen -> Format.pp_print_string ppf "')'"
  | Lbracket -> Format.pp_print_string ppf "'['"
  | Rbracket -> Format.pp_print_string ppf "']'"
  | Lbrace -> Format.pp_print_string ppf "'{'"
  | Rbrace -> Format.pp_print_string ppf "'}'"
  | Comma -> Format.pp_print_string ppf "','"
  | Colon -> Format.pp_print_string ppf "':'"
  | Semicolon -> Format.pp_print_string ppf "';'"
  | Eq -> Format.pp_print_string ppf "'='"
  | Lt -> Format.pp_print_string ppf "'<'"
  | Gt -> Format.pp_print_string ppf "'>'"
  | Le -> Format.pp_print_string ppf "'<='"
  | Ge -> Format.pp_print_string ppf "'>='"
  | Arrow -> Format.pp_print_string ppf "'->'"
  | Define -> Format.pp_print_string ppf "':='"
  | Subsumed -> Format.pp_print_string ppf "'[='"
  | Bar -> Format.pp_print_string ppf "'|'"
  | Amp -> Format.pp_print_string ppf "'&'"
  | Bang -> Format.pp_print_string ppf "'!'"
  | Eof -> Format.pp_print_string ppf "end of input"
