(* Hand-rolled JSON values for the CLI envelope and reports; the repo
   deliberately avoids a JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* The encoder writes straight into the output buffer, with no libc
   formatting for integers and no buffer per string. *)

let hex = "0123456789abcdef"

(* [s] from byte [i] escaped, the run from [start] to [i] not yet
   written. *)
let rec add_escaped buf s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    let c = String.unsafe_get s i in
    if Char.code c >= 0x20 && c <> '"' && c <> '\\' then
      add_escaped buf s start (i + 1)
    else begin
      Buffer.add_substring buf s start (i - start);
      (match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\r' -> Buffer.add_string buf "\\r"
       | c ->
         Buffer.add_string buf "\\u00";
         Buffer.add_char buf hex.[Char.code c lsr 4];
         Buffer.add_char buf hex.[Char.code c land 0xf]);
      add_escaped buf s (i + 1) (i + 1)
    end

let add_string buf s =
  Buffer.add_char buf '"';
  add_escaped buf s 0 0;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Whynot_relational.Value.add_decimal buf n
  | Float x ->
    if Float.is_integer x && Float.abs x < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" x)
    else Buffer.add_string buf (Printf.sprintf "%.17g" x)
  | String s -> add_string buf s
  | List xs ->
    Buffer.add_char buf '[';
    add_items buf xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    add_members buf fields;
    Buffer.add_char buf '}'

and add_items buf = function
  | [] -> ()
  | [ x ] -> write buf x
  | x :: xs ->
    write buf x;
    Buffer.add_char buf ',';
    add_items buf xs

and add_members buf = function
  | [] -> ()
  | [ f ] -> add_member buf f
  | f :: fields ->
    add_member buf f;
    Buffer.add_char buf ',';
    add_members buf fields

and add_member buf (k, v) =
  add_string buf k;
  Buffer.add_char buf ':';
  write buf v

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* --- the decoder ---

   A hand-rolled recursive-descent parser, the inverse of [to_string]: the
   wire server feeds it every request line, so it must fail with a
   position-carrying [`Parse] on any malformed input rather than raise,
   and it bounds nesting depth so adversarial input cannot blow the
   OCaml stack. Floats are told apart from ints purely by the presence of
   '.', 'e' or 'E', which makes [of_string (to_string j) = j] exact for
   every finite value [to_string] can produce. *)

let max_depth = 512

exception Fail of string * int

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (msg, !pos)) in
  (* Chars are compared as chars: a test on [Some c] would be a
     polymorphic compare. *)
  let looking_at c = !pos < n && Char.equal (String.unsafe_get s !pos) c in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if looking_at c then advance ()
    else if !pos < n then
      fail (Printf.sprintf "expected '%c', found '%c'" c s.[!pos])
    else fail (Printf.sprintf "expected '%c', found end of input" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "invalid hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let utf8_add buf cp =
    (* UTF-8 encode one code point (the decoder accepts the full range;
       the encoder only ever emits \u00XX for control characters). *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  (* Moves [pos] past the bytes that stand for themselves: neither a
     quote, a backslash nor a control byte. *)
  let skip_plain () =
    while
      !pos < n
      && (match String.unsafe_get s !pos with
          | '"' | '\\' -> false
          | c -> Char.code c >= 0x20)
    do
      advance ()
    done
  in
  (* A string with no escape is one [String.sub]; otherwise its bytes
     go through a buffer from the first escape on, each run between
     escapes copied whole. No escape decodes to more bytes than it
     takes, so the encoded span up to the closing quote sizes the
     buffer once. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    skip_plain ();
    if looking_at '"' then begin
      advance ();
      String.sub s start (!pos - 1 - start)
    end
    else
    let stop = ref !pos in
    while !stop < n && String.unsafe_get s !stop <> '"' do
      stop := !stop + if String.unsafe_get s !stop = '\\' then 2 else 1
    done;
    let buf = Buffer.create (!stop - start) in
    Buffer.add_substring buf s start (!pos - start);
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "truncated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'; advance ()
         | '\\' -> Buffer.add_char buf '\\'; advance ()
         | '/' -> Buffer.add_char buf '/'; advance ()
         | 'b' -> Buffer.add_char buf '\b'; advance ()
         | 'f' -> Buffer.add_char buf '\012'; advance ()
         | 'n' -> Buffer.add_char buf '\n'; advance ()
         | 'r' -> Buffer.add_char buf '\r'; advance ()
         | 't' -> Buffer.add_char buf '\t'; advance ()
         | 'u' ->
           advance ();
           let cp = hex4 () in
           let cp =
             (* Combine a surrogate pair when one follows. *)
             if cp >= 0xD800 && cp <= 0xDBFF
                && !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
             then begin
               pos := !pos + 2;
               let lo = hex4 () in
               if lo >= 0xDC00 && lo <= 0xDFFF then
                 0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
               else fail "invalid low surrogate in \\u escape"
             end
             else cp
           in
           utf8_add buf cp
         | c -> fail (Printf.sprintf "invalid escape '\\%c'" c));
        loop ()
      | c when Char.code c < 0x20 -> fail "unescaped control character"
      | _ ->
        let run = !pos in
        skip_plain ();
        Buffer.add_substring buf s run (!pos - run);
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if looking_at '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false)
      do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    if looking_at '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    if looking_at 'e' || looking_at 'E' then begin
      is_float := true;
      advance ();
      if looking_at '+' || looking_at '-' then advance ();
      digits ()
    end;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some x -> Float x
      | None -> fail (Printf.sprintf "invalid number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None ->
        (* Integer literal beyond native int range: degrade to float. *)
        (match float_of_string_opt text with
         | Some x -> Float x
         | None -> fail (Printf.sprintf "invalid number %S" text))
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '[' ->
      advance ();
      skip_ws ();
      if looking_at ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while looking_at ',' do
          advance ();
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | '{' ->
      advance ();
      skip_ws ();
      if looking_at '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while looking_at ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos < n then fail "trailing input after JSON value";
    v
  with
  | v -> Ok v
  | exception Fail (msg, p) ->
    Error (`Parse (Printf.sprintf "JSON: %s at offset %d" msg p))

(* --- accessors --- *)

let rec assoc key = function
  | [] -> None
  | (k, v) :: fields -> if String.equal k key then Some v else assoc key fields

let member key = function Obj fields -> assoc key fields | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None

(* --- the versioned CLI envelope --- *)

let schema_version = 2

let envelope ~command result =
  Obj
    [
      ("schema_version", Int schema_version);
      ("command", String command);
      ("result", result);
    ]

let error_envelope ~command err =
  Obj
    [
      ("schema_version", Int schema_version);
      ("command", String command);
      ( "error",
        Obj
          [
            ("code", String (Whynot_error.code err));
            ("message", String (Whynot_error.message err));
          ] );
    ]
