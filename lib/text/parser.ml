open Whynot_relational

type document = {
  relations : Schema.rel_decl list;
  fds : Fd.t list;
  inds : Ind.t list;
  views : View.def list;
  facts : (string * Tuple.t array) list;
  query : (string * Cq.t) option;
  whynot_tuple : Value.t list option;
  concepts : (string * string) list;
  extensions : (string * Value_set.t) list;
  tbox_axioms : Whynot_dllite.Tbox.axiom list;
  mappings : Whynot_obda.Mapping.t list;
  rules : Whynot_datalog.Program.rule list;
}

(* --- a tiny parser over a token stream, one token of lookahead --- *)

exception Parse_error of string

type state = {
  lexer : Lexer.t;
  mutable token : Lexer.token;
  mutable token_line : int;
}

let advance st =
  st.token <- Lexer.next st.lexer;
  st.token_line <- Lexer.line st.lexer

let peek st = st.token
let line st = st.token_line

let fail st msg =
  raise
    (Parse_error
       (Printf.sprintf "line %d: %s (found %s)" (line st) msg
          (Format.asprintf "%a" Lexer.pp_token (peek st))))

(* Every [token] passed here is a constructor without payload, an
   immediate: physical equality is equality, with no polymorphic
   compare. *)
let expect st token msg =
  if peek st == token then advance st else fail st msg

let ident st =
  match peek st with
  | Lexer.Ident s ->
    advance st;
    s
  | _ -> fail st "expected an identifier"

let value st =
  match peek st with
  | Lexer.String s ->
    advance st;
    Value.Str s
  | Lexer.Number v ->
    advance st;
    v
  | Lexer.Ident s ->
    (* Bare identifiers are string constants in fact/extension position. *)
    advance st;
    Value.Str s
  | _ -> fail st "expected a constant"

let comma_separated st parse_item =
  let rec more acc =
    match peek st with
    | Lexer.Comma ->
      advance st;
      more (parse_item st :: acc)
    | _ -> List.rev acc
  in
  more [ parse_item st ]

let parenthesised st parse_item =
  expect st Lexer.Lparen "expected '('";
  match peek st with
  | Lexer.Rparen ->
    advance st;
    []
  | _ ->
    let items = comma_separated st parse_item in
    expect st Lexer.Rparen "expected ')'";
    items

(* --- rule bodies: atoms and comparisons over variables --- *)

let term st =
  match peek st with
  | Lexer.Ident v ->
    advance st;
    Cq.Var v
  | Lexer.String s ->
    advance st;
    Cq.Const (Value.Str s)
  | Lexer.Number v ->
    advance st;
    Cq.Const v
  | _ -> fail st "expected a variable or constant"

let cmp_op_of_token = function
  | Lexer.Eq -> Some Cmp_op.Eq
  | Lexer.Lt -> Some Cmp_op.Lt
  | Lexer.Gt -> Some Cmp_op.Gt
  | Lexer.Le -> Some Cmp_op.Le
  | Lexer.Ge -> Some Cmp_op.Ge
  | _ -> None

(* One Datalog body literal: atom, negated atom, or comparison. *)
let rule_conjunct st =
  match peek st with
  | Lexer.Bang ->
    advance st;
    let name = ident st in
    let args = parenthesised st term in
    `Neg { Cq.rel = name; args }
  | _ ->
    let name = ident st in
    (match peek st with
     | Lexer.Lparen ->
       let args = parenthesised st term in
       `Atom { Cq.rel = name; args }
     | tok ->
       (match cmp_op_of_token tok with
        | Some op ->
          advance st;
          let v = value st in
          `Comparison { Cq.subject = name; op; value = v }
        | None -> fail st "expected '(' or a comparison operator"))

(* One conjunct: either [Rel(t1, ..., tk)] or [var op const]. *)
let body_conjunct st =
  let name = ident st in
  match peek st with
  | Lexer.Lparen ->
    let args = parenthesised st term in
    `Atom { Cq.rel = name; args }
  | tok ->
    (match cmp_op_of_token tok with
     | Some op ->
       advance st;
       let v = value st in
       `Comparison { Cq.subject = name; op; value = v }
     | None -> fail st "expected '(' or a comparison operator")

let body st =
  let conjuncts = comma_separated st body_conjunct in
  let atoms =
    List.filter_map (function `Atom a -> Some a | `Comparison _ -> None)
      conjuncts
  in
  let comparisons =
    List.filter_map
      (function `Comparison c -> Some c | `Atom _ -> None)
      conjuncts
  in
  (atoms, comparisons)

let rule_bodies st head =
  let one () =
    let atoms, comparisons = body st in
    Cq.make ~head ~atoms ~comparisons ()
  in
  let rec more acc =
    match peek st with
    | Lexer.Bar ->
      advance st;
      more (one () :: acc)
    | _ -> List.rev acc
  in
  more [ one () ]

(* --- attribute lists: named (resolved later) or positional --- *)

type raw_attr =
  | By_name of string
  | By_position of int

let raw_attr st =
  match peek st with
  | Lexer.Number (Value.Int k) ->
    advance st;
    By_position k
  | Lexer.Ident s ->
    advance st;
    By_name s
  | _ -> fail st "expected an attribute name or position"

(* The position of attribute [name] of relation [rel], whose attributes
   are [attrs] ([None]: [rel] is undeclared). *)
let attr_position ~rel attrs name =
  match attrs with
  | None ->
    raise
      (Parse_error
         (Printf.sprintf "attribute %s of undeclared relation %s" name rel))
  | Some attrs ->
    (match List.find_index (String.equal name) attrs with
     | Some i -> i + 1
     | None ->
       raise
         (Parse_error (Printf.sprintf "unknown attribute %s of %s" name rel)))

(* --- what [items] has read so far --- *)

(* One relation's facts, in source order. *)
type batch = {
  mutable rows : Tuple.t array;
  mutable count : int;
}

(* Each list holds its items last first; one reversal per list restores
   source order when the document is made. *)
type acc = {
  mutable a_relations : Schema.rel_decl list;
  mutable a_fds : Fd.t list;
  mutable a_inds : Ind.t list;
  mutable a_views : View.def list;
  mutable a_query : (string * Cq.t) option;
  mutable a_whynot : Value.t list option;
  mutable a_concepts : (string * string) list;
  mutable a_extensions : (string * Value_set.t) list;
  mutable a_tbox : Whynot_dllite.Tbox.axiom list;
  mutable a_mappings : Whynot_obda.Mapping.t list;
  mutable a_rules : Whynot_datalog.Program.rule list;
  batches : (string, batch) Hashtbl.t;
  mutable last : string * batch;    (* the batch of the last fact read *)
  mutable fact_rels : string list;  (* in order of first fact, last first *)
  mutable values : Value.t array;   (* the fact being read *)
}

let new_acc () =
  {
    a_relations = [];
    a_fds = [];
    a_inds = [];
    a_views = [];
    a_query = None;
    a_whynot = None;
    a_concepts = [];
    a_extensions = [];
    a_tbox = [];
    a_mappings = [];
    a_rules = [];
    batches = Hashtbl.create 8;
    last = ("", { rows = [||]; count = 0 });
    fact_rels = [];
    values = Array.make 8 (Value.Int 0);
  }

(* A run of one relation's facts finds its batch by comparing the name
   with the last fact's, without a table lookup. *)
let add_fact acc name t =
  let b =
    match acc.last with
    | last, b when String.equal last name -> b
    | _ ->
      let b =
        match Hashtbl.find_opt acc.batches name with
        | Some b -> b
        | None ->
          let b = { rows = Array.make 16 t; count = 0 } in
          Hashtbl.add acc.batches name b;
          acc.fact_rels <- name :: acc.fact_rels;
          b
      in
      acc.last <- (name, b);
      b
  in
  if b.count = Array.length b.rows then begin
    let rows = Array.make (2 * b.count) t in
    Array.blit b.rows 0 rows 0 b.count;
    b.rows <- rows
  end;
  b.rows.(b.count) <- t;
  b.count <- b.count + 1

let document_of acc =
  {
    relations = List.rev acc.a_relations;
    fds = List.rev acc.a_fds;
    inds = List.rev acc.a_inds;
    views = List.rev acc.a_views;
    facts =
      List.rev_map
        (fun name ->
           let b = Hashtbl.find acc.batches name in
           (name, Array.sub b.rows 0 b.count))
        acc.fact_rels;
    query = acc.a_query;
    whynot_tuple = acc.a_whynot;
    concepts = List.rev acc.a_concepts;
    extensions = List.rev acc.a_extensions;
    tbox_axioms = List.rev acc.a_tbox;
    mappings = List.rev acc.a_mappings;
    rules = List.rev acc.a_rules;
  }

let put acc k v =
  if k = Array.length acc.values then begin
    let values = Array.make (2 * k) v in
    Array.blit acc.values 0 values 0 k;
    acc.values <- values
  end;
  acc.values.(k) <- v

(* The constants of a fact from the [k]th on: their count. *)
let rec fact_values st acc k =
  put acc k (value st);
  match peek st with
  | Lexer.Comma ->
    advance st;
    fact_values st acc (k + 1)
  | _ -> k + 1

(* A fact's constants, read into [acc.values] and copied out once. *)
let fact_tuple st acc =
  expect st Lexer.Lparen "expected '('";
  let n =
    match peek st with
    | Lexer.Rparen ->
      advance st;
      0
    | _ ->
      let n = fact_values st acc 0 in
      expect st Lexer.Rparen "expected ')'";
      n
  in
  Tuple.unsafe_of_array (Array.sub acc.values 0 n)

(* The first declaration of [rel] is the last one met in
   [acc.a_relations]. *)
let resolve_attr acc ~rel attr =
  match attr with
  | By_position k -> k
  | By_name name ->
    let first =
      List.fold_left
        (fun found (r : Schema.rel_decl) ->
           if String.equal r.name rel then Some r.Schema.attrs else found)
        None acc.a_relations
    in
    attr_position ~rel first name

(* --- DL-LiteR concepts for TBox axioms --- *)

let dl_role_of_name name =
  let n = String.length name in
  if n > 1 && name.[n - 1] = '-' then
    Whynot_dllite.Dl.Inv (String.sub name 0 (n - 1))
  else Whynot_dllite.Dl.Named name

let dl_basic st =
  match peek st with
  | Lexer.Ident "exists" ->
    advance st;
    Whynot_dllite.Dl.Exists (dl_role_of_name (ident st))
  | Lexer.Ident _ -> Whynot_dllite.Dl.Atom (ident st)
  | _ -> fail st "expected a basic concept"

let dl_concept st =
  match peek st with
  | Lexer.Ident "not" ->
    advance st;
    Whynot_dllite.Dl.Not (dl_basic st)
  | _ -> Whynot_dllite.Dl.B (dl_basic st)

(* --- items --- *)

let subsumption_token st =
  match peek st with
  | Lexer.Subsumed | Lexer.Le ->
    advance st;
    ()
  | _ -> fail st "expected '[=' or '<='"

let item st acc =
  match peek st with
  | Lexer.Ident "relation" ->
    advance st;
    let name = ident st in
    let attrs = parenthesised st ident in
    acc.a_relations <- { Schema.name; attrs } :: acc.a_relations
  | Lexer.Ident "fd" ->
    advance st;
    let rel = ident st in
    expect st Lexer.Colon "expected ':'";
    let lhs = comma_separated st raw_attr in
    expect st Lexer.Arrow "expected '->'";
    let rhs = comma_separated st raw_attr in
    let fd =
      Fd.make ~rel
        ~lhs:(List.map (resolve_attr acc ~rel) lhs)
        ~rhs:(List.map (resolve_attr acc ~rel) rhs)
    in
    acc.a_fds <- fd :: acc.a_fds
  | Lexer.Ident "ind" ->
    advance st;
    let lhs_rel = ident st in
    expect st Lexer.Lbracket "expected '['";
    let lhs_attrs = comma_separated st raw_attr in
    expect st Lexer.Rbracket "expected ']'";
    subsumption_token st;
    let rhs_rel = ident st in
    expect st Lexer.Lbracket "expected '['";
    let rhs_attrs = comma_separated st raw_attr in
    expect st Lexer.Rbracket "expected ']'";
    let ind =
      Ind.make ~lhs_rel
        ~lhs_attrs:(List.map (resolve_attr acc ~rel:lhs_rel) lhs_attrs)
        ~rhs_rel
        ~rhs_attrs:(List.map (resolve_attr acc ~rel:rhs_rel) rhs_attrs)
    in
    acc.a_inds <- ind :: acc.a_inds
  | Lexer.Ident "view" ->
    advance st;
    let name = ident st in
    let head = parenthesised st term in
    expect st Lexer.Define "expected ':='";
    let bodies = rule_bodies st head in
    acc.a_views <- { View.name; body = Ucq.make bodies } :: acc.a_views
  | Lexer.Ident "fact" ->
    advance st;
    let name = ident st in
    add_fact acc name (fact_tuple st acc)
  | Lexer.Ident "query" ->
    advance st;
    let name = ident st in
    let head = parenthesised st term in
    expect st Lexer.Define "expected ':='";
    (match rule_bodies st head with
     | [ q ] -> acc.a_query <- Some (name, q)
     | _ -> fail st "queries must have a single body (use a view for unions)")
  | Lexer.Ident "rule" ->
    advance st;
    let name = ident st in
    let head_args = parenthesised st term in
    expect st Lexer.Define "expected ':='";
    let conjuncts = comma_separated st rule_conjunct in
    let body =
      List.filter_map
        (function
          | `Atom a -> Some (Whynot_datalog.Program.Pos a)
          | `Neg a -> Some (Whynot_datalog.Program.Neg a)
          | `Comparison _ -> None)
        conjuncts
    in
    let comparisons =
      List.filter_map
        (function `Comparison c -> Some c | `Atom _ | `Neg _ -> None)
        conjuncts
    in
    let r =
      Whynot_datalog.Program.rule ~comparisons
        ~head:{ Cq.rel = name; args = head_args }
        body
    in
    acc.a_rules <- r :: acc.a_rules
  | Lexer.Ident "whynot" ->
    advance st;
    let vs = parenthesised st value in
    acc.a_whynot <- Some vs
  | Lexer.Ident "concept" ->
    advance st;
    let child = ident st in
    subsumption_token st;
    let parent = ident st in
    acc.a_concepts <- (child, parent) :: acc.a_concepts
  | Lexer.Ident "ext" ->
    advance st;
    let name = ident st in
    expect st Lexer.Eq "expected '='";
    expect st Lexer.Lbrace "expected '{'";
    let vs =
      match peek st with
      | Lexer.Rbrace -> []
      | _ -> comma_separated st value
    in
    expect st Lexer.Rbrace "expected '}'";
    acc.a_extensions <- (name, Value_set.of_list vs) :: acc.a_extensions
  | Lexer.Ident "axiom" ->
    advance st;
    let lhs = dl_basic st in
    subsumption_token st;
    let rhs = dl_concept st in
    acc.a_tbox <- Whynot_dllite.Tbox.Concept_incl (lhs, rhs) :: acc.a_tbox
  | Lexer.Ident "role-axiom" ->
    advance st;
    let lhs = dl_role_of_name (ident st) in
    subsumption_token st;
    let rhs =
      match peek st with
      | Lexer.Ident "not" ->
        advance st;
        Whynot_dllite.Dl.NotR (dl_role_of_name (ident st))
      | _ -> Whynot_dllite.Dl.R (dl_role_of_name (ident st))
    in
    acc.a_tbox <- Whynot_dllite.Tbox.Role_incl (lhs, rhs) :: acc.a_tbox
  | Lexer.Ident "mapping" ->
    advance st;
    let atoms, comparisons = body st in
    expect st Lexer.Arrow "expected '->'";
    let head_name = ident st in
    let head_args = parenthesised st ident in
    let head =
      match head_args with
      | [ x ] -> Whynot_obda.Mapping.Concept_of (head_name, x)
      | [ x; y ] -> Whynot_obda.Mapping.Role_of (head_name, x, y)
      | _ -> fail st "mapping heads are unary or binary"
    in
    acc.a_mappings <-
      Whynot_obda.Mapping.make ~comparisons ~head atoms :: acc.a_mappings
  | Lexer.Semicolon -> advance st
  | _ -> fail st "expected an item (relation, fd, ind, view, rule, fact, query, whynot, concept, ext, axiom, role-axiom, mapping)"

let items st =
  let acc = new_acc () in
  while peek st != Lexer.Eof do
    item st acc
  done;
  document_of acc

(* Every lexical error of the source is reported before any other
   error, wherever each one is: after a failure, the rest of the source
   is lexed for one. *)
let rec lexical_error lexer =
  match Lexer.next lexer with
  | Lexer.Eof -> None
  | _ -> lexical_error lexer
  | exception Lexer.Error msg -> Some msg

let run src f =
  let st = { lexer = Lexer.of_string src; token = Lexer.Eof; token_line = 0 } in
  match
    advance st;
    f st
  with
  | v -> Ok v
  | exception Lexer.Error msg -> Error (`Parse msg)
  | exception e ->
    (match lexical_error st.lexer with
     | Some msg -> Error (`Parse msg)
     | None ->
       (match e with
        | Parse_error msg -> Error (`Parse msg)
        | e -> raise e))

let parse src = run src items

let parse_file path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | src -> parse src
  | exception Sys_error msg -> Error (`Missing_input msg)

(* Declared relations, then undeclared views with attributes a1..aN:
   schemas and concept expressions resolve names against this list. *)
let relation_decls doc =
  let declared = List.map (fun (r : Schema.rel_decl) -> r.name) doc.relations in
  let implicit =
    List.filter_map
      (fun (v : View.def) ->
         if List.mem v.View.name declared then None
         else
           Some
             {
               Schema.name = v.View.name;
               attrs =
                 List.init (Ucq.arity v.View.body) (fun i ->
                     "a" ^ string_of_int (i + 1));
             })
      doc.views
  in
  doc.relations @ implicit

let schema_of doc =
  Result.map_error
    (fun msg -> `Parse ("schema: " ^ msg))
    (Schema.make ~fds:doc.fds ~inds:doc.inds ~views:doc.views
       (relation_decls doc))

(* Each relation built once from its batch of facts; the views then
   materialised on top of ALL facts — including facts of relations the
   document never declared (handy for rule-only documents), which
   Schema.complete would drop. *)
let instance_of ?schema doc =
  let base =
    List.fold_left
      (fun inst (name, rows) ->
         Instance.add_relation name
           (Relation.of_array ~arity:(Tuple.arity rows.(0)) rows)
           inst)
      Instance.empty doc.facts
  in
  let schema = match schema with Some s -> Ok s | None -> schema_of doc in
  match schema with
  | Ok schema -> View.materialise (Schema.views schema) base
  | Error _ -> base

let whynot_of doc =
  match doc.query, doc.whynot_tuple with
  | None, _ -> Error (`Missing_input "the document declares no query")
  | _, None -> Error (`Missing_input "the document declares no whynot tuple")
  | Some (_, q), Some missing ->
    let schema = Result.to_option (schema_of doc) in
    let instance = instance_of ?schema doc in
    Whynot_core.Whynot.make ?schema ~instance ~query:q ~missing ()

let hand_ontology_of doc =
  if doc.extensions = [] then None
  else
    Some
      (Whynot_core.Ontology.of_extensions ~name:"document"
         ~subsumptions:doc.concepts ~extensions:doc.extensions)

let obda_spec_of doc =
  if doc.tbox_axioms = [] && doc.mappings = [] then Ok None
  else
    match schema_of doc with
    | Error _ as e -> e |> Result.map (fun _ -> None)
    | Ok schema ->
      (match
         Whynot_obda.Spec.make
           ~tbox:(Whynot_dllite.Tbox.make doc.tbox_axioms)
           ~schema ~mappings:doc.mappings
       with
       | Ok spec -> Ok (Some spec)
       | Error msg -> Error (`Parse ("obda: " ^ msg)))

(* --- standalone value lists and concept expressions --- *)

let with_tokens src f =
  run src (fun st ->
      let v = f st in
      expect st Lexer.Eof "trailing input";
      v)

let values_of_string src = with_tokens src (fun st -> comma_separated st value)

let program_of doc =
  if doc.rules = [] then Ok None
  else
    match Whynot_datalog.Program.make doc.rules with
    | Ok p -> Ok (Some p)
    | Error msg -> Error (`Parse ("datalog: " ^ msg))

(* [Rel.attr] arrives from the lexer as a single identifier (idents may
   contain dots); split at the last dot. *)
let split_projection st name =
  match String.rindex_opt name '.' with
  | None -> fail st "expected REL.ATTR"
  | Some i ->
    (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))

module String_tbl = Hashtbl.Make (String)

(* Staged: the relations of [schema_of] and their attributes are looked
   up once per document, not once per concept. *)
let concept_reader doc =
  let attrs = String_tbl.create 16 in
  List.iter
    (fun (r : Schema.rel_decl) ->
       if not (String_tbl.mem attrs r.name) then
         String_tbl.add attrs r.name r.attrs)
    (relation_decls doc);
  let attr_of ~rel name =
    match int_of_string_opt name with
    | Some k -> k
    | None -> attr_position ~rel (String_tbl.find_opt attrs rel) name
  in
  let selection st ~rel =
    let a = ident st in
    let op =
      match cmp_op_of_token (peek st) with
      | Some op ->
        advance st;
        op
      | None -> fail st "expected a comparison operator"
    in
    let v = value st in
    { Whynot_concept.Ls.attr = attr_of ~rel a; op; value = v }
  in
  let conjunct st =
    match peek st with
    | Lexer.Ident "top" ->
      advance st;
      Whynot_concept.Ls.top
    | Lexer.Lbrace ->
      advance st;
      let v = value st in
      expect st Lexer.Rbrace "expected '}'";
      Whynot_concept.Ls.nominal v
    | Lexer.Ident name ->
      advance st;
      let rel, attr_name = split_projection st name in
      let attr = attr_of ~rel attr_name in
      let sels =
        match peek st with
        | Lexer.Lbracket ->
          advance st;
          let ss = comma_separated st (fun st -> selection st ~rel) in
          expect st Lexer.Rbracket "expected ']'";
          ss
        | _ -> []
      in
      Whynot_concept.Ls.proj ~rel ~attr ~sels ()
    | _ -> fail st "expected 'top', '{c}' or REL.ATTR"
  in
  fun src ->
    with_tokens src (fun st ->
        let rec more acc =
          match peek st with
          | Lexer.Amp ->
            advance st;
            more (conjunct st :: acc)
          | _ -> acc
        in
        Whynot_concept.Ls.meet_all (List.rev (more [ conjunct st ])))

let concept_of_string doc src = concept_reader doc src

(* --- the writer: [concept_reader]'s inverse --- *)

module Ls = Whynot_concept.Ls

let add_attr b schema ~rel attr =
  match Schema.attr_name schema ~rel attr with
  | Some name -> Buffer.add_string b name
  | None -> Value.add_decimal b attr

let add_value b v = Buffer.add_string b (Value.to_string v)

let rec add_sels b schema ~rel = function
  | [] -> ()
  | (s : Ls.selection) :: rest ->
    add_attr b schema ~rel s.Ls.attr;
    Buffer.add_char b ' ';
    Buffer.add_string b (Cmp_op.to_string s.Ls.op);
    Buffer.add_char b ' ';
    add_value b s.Ls.value;
    (match rest with [] -> () | _ -> Buffer.add_string b ", ");
    add_sels b schema ~rel rest

let rec add_conjuncts b schema = function
  | [] -> ()
  | c :: rest ->
    (match c with
     | Ls.Nominal v ->
       Buffer.add_char b '{';
       add_value b v;
       Buffer.add_char b '}'
     | Ls.Proj { rel; attr; sels } ->
       Buffer.add_string b rel;
       Buffer.add_char b '.';
       add_attr b schema ~rel attr;
       (match sels with
        | [] -> ()
        | _ ->
          Buffer.add_char b '[';
          add_sels b schema ~rel sels;
          Buffer.add_char b ']'));
    (match rest with [] -> () | _ -> Buffer.add_string b " & ");
    add_conjuncts b schema rest

let render_concept schema c =
  match Ls.conjuncts c with
  | [] -> "top"
  | conjuncts ->
    let b = Buffer.create 64 in
    add_conjuncts b schema conjuncts;
    Buffer.contents b
