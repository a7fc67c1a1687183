open Whynot_relational

type document = {
  relations : Schema.rel_decl list;
  fds : Fd.t list;
  inds : Ind.t list;
  views : View.def list;
  facts : (string * Value.t list) list;
  query : (string * Cq.t) option;
  whynot_tuple : Value.t list option;
  concepts : (string * string) list;
  extensions : (string * Value_set.t) list;
  tbox_axioms : Whynot_dllite.Tbox.axiom list;
  mappings : Whynot_obda.Mapping.t list;
  rules : Whynot_datalog.Program.rule list;
}

let empty_document =
  {
    relations = [];
    fds = [];
    inds = [];
    views = [];
    facts = [];
    query = None;
    whynot_tuple = None;
    concepts = [];
    extensions = [];
    tbox_axioms = [];
    mappings = [];
    rules = [];
  }

(* --- a tiny state-passing parser over the token list --- *)

exception Parse_error of string

type state = {
  mutable tokens : Lexer.located list;
}

let peek st =
  match st.tokens with
  | [] -> Lexer.Eof
  | t :: _ -> t.Lexer.token

let line st =
  match st.tokens with
  | [] -> 0
  | t :: _ -> t.Lexer.line

let advance st =
  match st.tokens with
  | [] -> ()
  | _ :: rest -> st.tokens <- rest

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

(* While [items] runs, the document's lists hold its items last first;
   the first declaration of [rel] is the last one met there. *)
let resolve_attr doc ~rel attr =
  match attr with
  | By_position k -> k
  | By_name name ->
    let first =
      List.fold_left
        (fun found (r : Schema.rel_decl) ->
           if String.equal r.name rel then Some r.Schema.attrs else found)
        None doc.relations
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

let rec items st doc =
  match peek st with
  | Lexer.Eof -> doc
  | Lexer.Ident "relation" ->
    advance st;
    let name = ident st in
    let attrs = parenthesised st ident in
    items st { doc with relations = { Schema.name; attrs } :: doc.relations }
  | Lexer.Ident "fd" ->
    advance st;
    let rel = ident st in
    expect st Lexer.Colon "expected ':'";
    let lhs = comma_separated st raw_attr in
    expect st Lexer.Arrow "expected '->'";
    let rhs = comma_separated st raw_attr in
    let fd =
      Fd.make ~rel
        ~lhs:(List.map (resolve_attr doc ~rel) lhs)
        ~rhs:(List.map (resolve_attr doc ~rel) rhs)
    in
    items st { doc with fds = fd :: doc.fds }
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
        ~lhs_attrs:(List.map (resolve_attr doc ~rel:lhs_rel) lhs_attrs)
        ~rhs_rel
        ~rhs_attrs:(List.map (resolve_attr doc ~rel:rhs_rel) rhs_attrs)
    in
    items st { doc with inds = ind :: doc.inds }
  | Lexer.Ident "view" ->
    advance st;
    let name = ident st in
    let head = parenthesised st term in
    expect st Lexer.Define "expected ':='";
    let bodies = rule_bodies st head in
    items st
      { doc with views = { View.name; body = Ucq.make bodies } :: doc.views }
  | Lexer.Ident "fact" ->
    advance st;
    let name = ident st in
    let vs = parenthesised st value in
    items st { doc with facts = (name, vs) :: doc.facts }
  | Lexer.Ident "query" ->
    advance st;
    let name = ident st in
    let head = parenthesised st term in
    expect st Lexer.Define "expected ':='";
    (match rule_bodies st head with
     | [ q ] -> items st { doc with query = Some (name, q) }
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
    items st { doc with rules = r :: doc.rules }
  | Lexer.Ident "whynot" ->
    advance st;
    let vs = parenthesised st value in
    items st { doc with whynot_tuple = Some vs }
  | Lexer.Ident "concept" ->
    advance st;
    let child = ident st in
    subsumption_token st;
    let parent = ident st in
    items st { doc with concepts = (child, parent) :: doc.concepts }
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
    items st
      { doc with extensions = (name, Value_set.of_list vs) :: doc.extensions }
  | Lexer.Ident "axiom" ->
    advance st;
    let lhs = dl_basic st in
    subsumption_token st;
    let rhs = dl_concept st in
    items st
      { doc with
        tbox_axioms = Whynot_dllite.Tbox.Concept_incl (lhs, rhs) :: doc.tbox_axioms }
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
    items st
      { doc with
        tbox_axioms = Whynot_dllite.Tbox.Role_incl (lhs, rhs) :: doc.tbox_axioms }
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
    items st
      { doc with
        mappings = Whynot_obda.Mapping.make ~comparisons ~head atoms :: doc.mappings }
  | Lexer.Semicolon ->
    advance st;
    items st doc
  | _ -> fail st "expected an item (relation, fd, ind, view, rule, fact, query, whynot, concept, ext, axiom, role-axiom, mapping)"

(* [items] adds each item in front of its list; one reversal per list
   restores source order. *)
let in_source_order doc =
  {
    doc with
    relations = List.rev doc.relations;
    fds = List.rev doc.fds;
    inds = List.rev doc.inds;
    views = List.rev doc.views;
    facts = List.rev doc.facts;
    concepts = List.rev doc.concepts;
    extensions = List.rev doc.extensions;
    tbox_axioms = List.rev doc.tbox_axioms;
    mappings = List.rev doc.mappings;
    rules = List.rev doc.rules;
  }

let parse src =
  match Lexer.tokenize src with
  | Error _ as e -> e
  | Ok tokens ->
    let st = { tokens } in
    (try Ok (in_source_order (items st empty_document)) with
     | Parse_error msg -> Error (`Parse msg))

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

let instance_of doc =
  let base =
    List.fold_left
      (fun inst (name, vs) -> Instance.add_fact name vs inst)
      Instance.empty doc.facts
  in
  match schema_of doc with
  | Ok schema ->
    (* Materialise the views on top of ALL facts — including facts of
       relations the document never declared (handy for rule-only
       documents), which Schema.complete would drop. *)
    View.materialise (Schema.views schema) base
  | Error _ -> base

let whynot_of doc =
  match doc.query, doc.whynot_tuple with
  | None, _ -> Error (`Missing_input "the document declares no query")
  | _, None -> Error (`Missing_input "the document declares no whynot tuple")
  | Some (_, q), Some missing ->
    let instance = instance_of doc in
    let schema = Result.to_option (schema_of doc) in
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
  match Lexer.tokenize src with
  | Error _ as e -> e
  | Ok tokens ->
    let st = { tokens } in
    (try
       let v = f st in
       expect st Lexer.Eof "trailing input";
       Ok v
     with Parse_error msg -> Error (`Parse msg))

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
