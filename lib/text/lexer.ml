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

let tokenize src =
  let n = String.length src in
  let line = ref 1 in
  let toks = ref [] in
  let emit token = toks := { token; line = !line } :: !toks in
  let error msg = Error (`Parse (Printf.sprintf "line %d: %s" !line msg)) in
  let rec loop i =
    if i >= n then begin
      emit Eof;
      Ok (List.rev !toks)
    end
    else
      match src.[i] with
      | '\n' ->
        incr line;
        loop (i + 1)
      | ' ' | '\t' | '\r' -> loop (i + 1)
      | '#' ->
        let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
        loop (skip i)
      | '(' -> emit Lparen; loop (i + 1)
      | ')' -> emit Rparen; loop (i + 1)
      | '[' ->
        (* "[=" is the subsumption arrow of DL syntax. *)
        if i + 1 < n && src.[i + 1] = '=' then begin
          emit Subsumed;
          loop (i + 2)
        end
        else begin
          emit Lbracket;
          loop (i + 1)
        end
      | ']' -> emit Rbracket; loop (i + 1)
      | '{' -> emit Lbrace; loop (i + 1)
      | '}' -> emit Rbrace; loop (i + 1)
      | ',' -> emit Comma; loop (i + 1)
      | ';' -> emit Semicolon; loop (i + 1)
      | '|' -> emit Bar; loop (i + 1)
      | '&' -> emit Amp; loop (i + 1)
      | '!' -> emit Bang; loop (i + 1)
      | '=' -> emit Eq; loop (i + 1)
      | ':' ->
        if i + 1 < n && src.[i + 1] = '=' then begin
          emit Define;
          loop (i + 2)
        end
        else begin
          emit Colon;
          loop (i + 1)
        end
      | '-' ->
        if i + 1 < n && src.[i + 1] = '>' then begin
          emit Arrow;
          loop (i + 2)
        end
        else if i + 1 < n && (is_digit src.[i + 1]) then
          number i
        else error "unexpected '-'"
      | '<' ->
        if i + 1 < n && src.[i + 1] = '=' then begin
          emit Le;
          loop (i + 2)
        end
        else begin
          emit Lt;
          loop (i + 1)
        end
      | '>' ->
        if i + 1 < n && src.[i + 1] = '=' then begin
          emit Ge;
          loop (i + 2)
        end
        else begin
          emit Gt;
          loop (i + 1)
        end
      | '"' ->
        (* A literal without escapes is one [String.sub]; from its first
           escape on, its bytes go through a buffer. *)
        let rec plain j =
          if j < n && src.[j] <> '"' && src.[j] <> '\\' && src.[j] <> '\n'
          then plain (j + 1)
          else j
        in
        let j = plain (i + 1) in
        if j < n && src.[j] = '"' then begin
          emit (String (String.sub src (i + 1) (j - i - 1)));
          loop (j + 1)
        end
        else
        let buf = Buffer.create (j - i + 16) in
        Buffer.add_substring buf src (i + 1) (j - i - 1);
        let rec str j =
          if j >= n then error "unterminated string"
          else
            match src.[j] with
            | '"' ->
              emit (String (Buffer.contents buf));
              loop (j + 1)
            | '\\' when j + 1 < n ->
              (* The escapes [Value.to_string] writes ([String.escaped]):
                 [\n \t \r \b], [\ddd] in decimal, and any other byte
                 (a quote, a backslash) taken as it is. *)
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
                   error
                     (Printf.sprintf "illegal escape %S in string literal"
                        (String.sub src j (min 4 (n - j))))
                 else begin
                   Buffer.add_char buf (Char.chr code);
                   str (j + 4)
                 end
               | c -> Buffer.add_char buf c; str (j + 2))
            | '\n' -> error "newline in string literal"
            | c ->
              Buffer.add_char buf c;
              str (j + 1)
        in
        str j
      | c when is_digit c -> number i
      | c when is_ident_start c ->
        let rec ident j = if j < n && is_ident_char src.[j] then ident (j + 1) else j in
        let j = ident i in
        emit (Ident (String.sub src i (j - i)));
        loop j
      | c -> error (Printf.sprintf "unexpected character %C" c)
  and number i =
    let rec num j seen_dot =
      if j < String.length src then
        match src.[j] with
        | c when is_digit c -> num (j + 1) seen_dot
        | '.' when not seen_dot -> num (j + 1) true
        | '_' -> num (j + 1) seen_dot
        | _ -> j
      else j
    in
    let start = i in
    let i = if src.[i] = '-' then i + 1 else i in
    let j = num i false in
    let text = String.sub src start (j - start) in
    let text =
      if String.contains text '_' then
        String.concat "" (String.split_on_char '_' text)
      else text
    in
    (match int_of_string_opt text with
     | Some k -> emit (Number (Whynot_relational.Value.Int k))
     | None ->
       (match float_of_string_opt text with
        | Some x -> emit (Number (Whynot_relational.Value.Real x))
        | None -> ()));
    loop j
  in
  loop 0

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
