(* Tests for the text format: lexer, parser, and the shipped cities
   document round-tripping into the same results as the programmatic
   Figures 1-4. *)

open Whynot_relational
open Whynot_text

(* Parser/lexer boundaries now return [Whynot_error.t]; tests report the
   bare message (which keeps the "line N" prefix intact). *)
let emsg = Whynot_error.message

(* dune runtest runs from the test build directory; dune exec from the
   project root — accept either. *)
let data_path file =
  let candidates = [ "../examples/data/" ^ file; "examples/data/" ^ file ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let cities_path = data_path "cities.whynot"

let parse_ok src =
  match Parser.parse src with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "parse error: %s" (emsg e)

let parse_err src =
  match Parser.parse src with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

let tokens_of src =
  match Lexer.tokenize src with
  | Ok toks -> List.map (fun t -> t.Lexer.token) toks
  | Error e -> Alcotest.failf "lexer error: %s" (emsg e)

let test_lexer_basics () =
  Alcotest.(check bool) "idents and punctuation" true
    (tokens_of "relation R(a, b)"
     = [ Lexer.Ident "relation"; Lexer.Ident "R"; Lexer.Lparen; Lexer.Ident "a";
         Lexer.Comma; Lexer.Ident "b"; Lexer.Rparen; Lexer.Eof ]);
  Alcotest.(check bool) "numbers" true
    (tokens_of "42 -7 3.5 5_000_000"
     = [ Lexer.Number (Value.Int 42); Lexer.Number (Value.Int (-7));
         Lexer.Number (Value.Real 3.5); Lexer.Number (Value.Int 5000000);
         Lexer.Eof ]);
  Alcotest.(check bool) "strings with escapes" true
    (tokens_of {|"a b" "x\"y"|}
     = [ Lexer.String "a b"; Lexer.String "x\"y"; Lexer.Eof ]);
  Alcotest.(check bool) "operators" true
    (tokens_of "<= >= < > = -> := [= |"
     = [ Lexer.Le; Lexer.Ge; Lexer.Lt; Lexer.Gt; Lexer.Eq; Lexer.Arrow;
         Lexer.Define; Lexer.Subsumed; Lexer.Bar; Lexer.Eof ]);
  Alcotest.(check bool) "comments skipped" true
    (tokens_of "a # comment\nb" = [ Lexer.Ident "a"; Lexer.Ident "b"; Lexer.Eof ])

let test_lexer_errors () =
  (match Lexer.tokenize "\"unterminated" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unterminated string accepted");
  match Lexer.tokenize "a $ b" with
  | Error e ->
    let msg = emsg e in
    Alcotest.(check bool) "line number in message" true
      (String.length msg > 0 && String.sub msg 0 4 = "line")
  | Ok _ -> Alcotest.fail "bad character accepted"

(* ------------------------------------------------------------------ *)
(* Parser pieces                                                      *)
(* ------------------------------------------------------------------ *)

let test_parse_relation_fd_ind () =
  let doc =
    parse_ok
      "relation R(a, b)\nrelation S(c)\nfd R: a -> b\nind R[b] <= S[c]"
  in
  Alcotest.(check int) "relations" 2 (List.length doc.Parser.relations);
  (match doc.Parser.fds with
   | [ fd ] ->
     Alcotest.(check bool) "fd resolved by name" true
       (fd.Fd.lhs = [ 1 ] && fd.Fd.rhs = [ 2 ])
   | _ -> Alcotest.fail "one fd expected");
  match doc.Parser.inds with
  | [ ind ] ->
    Alcotest.(check bool) "ind resolved" true
      (ind.Ind.lhs_attrs = [ 2 ] && ind.Ind.rhs_attrs = [ 1 ])
  | _ -> Alcotest.fail "one ind expected"

let test_parse_view_union_and_query () =
  let doc =
    parse_ok
      "relation R(a, b)\n\
       view V(x, y) := R(x, y) | R(x, z), R(z, y)\n\
       query q(x) := V(x, y), x <= 3\n\
       whynot (7)"
  in
  (match doc.Parser.views with
   | [ v ] ->
     Alcotest.(check int) "two disjuncts" 2
       (List.length v.View.body.Ucq.disjuncts)
   | _ -> Alcotest.fail "one view expected");
  (match doc.Parser.query with
   | Some (name, q) ->
     Alcotest.(check string) "query name" "q" name;
     Alcotest.(check int) "one comparison" 1 (List.length q.Cq.comparisons)
   | None -> Alcotest.fail "query expected");
  Alcotest.(check bool) "whynot tuple" true
    (doc.Parser.whynot_tuple = Some [ Value.Int 7 ])

let test_parse_facts_bare_idents () =
  let doc = parse_ok "fact R(Amsterdam, 7, \"two words\")" in
  match doc.Parser.facts with
  | [ (rel, [| t |]) ] ->
    Alcotest.(check string) "rel" "R" rel;
    Alcotest.(check bool) "values" true
      (Tuple.to_list t
       = [ Value.Str "Amsterdam"; Value.Int 7; Value.Str "two words" ])
  | _ -> Alcotest.fail "one fact expected"

let test_parse_ontology_items () =
  let doc =
    parse_ok
      "concept A [= B\n\
       ext A = {\"x\", 3}\n\
       ext B = {}\n\
       axiom A [= not B\n\
       axiom exists P- [= B\n\
       role-axiom P [= Q\n\
       mapping R(x, y) -> A(x)"
  in
  Alcotest.(check int) "subsumption edges" 1 (List.length doc.Parser.concepts);
  Alcotest.(check int) "extensions" 2 (List.length doc.Parser.extensions);
  Alcotest.(check int) "tbox" 3 (List.length doc.Parser.tbox_axioms);
  Alcotest.(check int) "mappings" 1 (List.length doc.Parser.mappings);
  (match doc.Parser.tbox_axioms with
   | [ _; Whynot_dllite.Tbox.Concept_incl (Whynot_dllite.Dl.Exists (Whynot_dllite.Dl.Inv "P"), _); _ ] -> ()
   | _ -> Alcotest.fail "inverse-role existential expected")

let test_parse_errors () =
  parse_err "relation R(a,";
  parse_err "fd R: x -> y"; (* undeclared relation *)
  parse_err "query q(x) := R(x) | S(x)"; (* unions need a view *)
  parse_err "view V(x) :="

(* ------------------------------------------------------------------ *)
(* The shipped cities document                                        *)
(* ------------------------------------------------------------------ *)

let load_cities () =
  match Parser.parse_file cities_path with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "cannot load %s: %s" cities_path (emsg e)

let test_cities_document () =
  let doc = load_cities () in
  let schema =
    match Parser.schema_of doc with
    | Ok s -> s
    | Error e -> Alcotest.failf "schema: %s" (emsg e)
  in
  let inst = Parser.instance_of doc in
  (match Schema.satisfies schema inst with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "constraints: %s" msg);
  (* Same instance as the programmatic Figure 2. *)
  Alcotest.(check bool) "instance matches Whynot_workload.Cities" true
    (Instance.equal inst Whynot_workload.Cities.instance);
  let wn =
    match Parser.whynot_of doc with
    | Ok wn -> wn
    | Error e -> Alcotest.failf "whynot: %s" (emsg e)
  in
  Alcotest.(check int) "4 answers" 4 (Relation.cardinal wn.Whynot_core.Whynot.answers);
  (* Hand ontology gives the same MGEs as the programmatic Figure 3. *)
  (match Parser.hand_ontology_of doc with
   | None -> Alcotest.fail "hand ontology expected"
   | Some o ->
     let mges = Result.get_ok (Whynot_core.Exhaustive.all_mges o wn) in
     Alcotest.(check bool) "E4 found" true
       (List.exists (fun e -> e = [ "European-City"; "US-City" ]) mges));
  (* OBDA spec parses and E1-equivalent is an MGE. *)
  match Parser.obda_spec_of doc with
  | Error e -> Alcotest.failf "obda: %s" (emsg e)
  | Ok None -> Alcotest.fail "OBDA spec expected"
  | Ok (Some spec) ->
    let induced = Whynot_obda.Induced.prepare spec inst in
    (match Whynot_obda.Induced.consistent induced with
     | Ok () -> ()
     | Error msg -> Alcotest.failf "inconsistent: %s" msg);
    let o = Whynot_core.Ontology.of_obda induced in
    Alcotest.(check bool) "E1 is an MGE" true
      (Result.get_ok
         (Whynot_core.Exhaustive.check_mge o wn
            [ Whynot_dllite.Dl.Atom "EU-City"; Whynot_dllite.Dl.Atom "NA-City" ]))

(* ------------------------------------------------------------------ *)
(* Concept expressions and value lists                                *)
(* ------------------------------------------------------------------ *)

let test_concept_expressions () =
  let doc = load_cities () in
  let parse src =
    match Parser.concept_of_string doc src with
    | Ok c -> c
    | Error e -> Alcotest.failf "concept parse: %s" (emsg e)
  in
  let c = parse {|Cities.name[continent = "Europe", population >= 5] & {"Rome"}|} in
  Alcotest.(check int) "two conjuncts" 2
    (List.length (Whynot_concept.Ls.conjuncts c));
  Alcotest.(check bool) "top" true
    (Whynot_concept.Ls.is_top (parse "top"));
  (* Positional attributes work without declarations. *)
  let c2 = parse "BigCity.1" in
  Alcotest.(check bool) "positional" true
    (Whynot_concept.Ls.equal c2 (Whynot_concept.Ls.proj ~rel:"BigCity" ~attr:1 ()));
  (* An undeclared view gets attributes a1..aN in the schema, and a
     concept rendered with those names parses back. *)
  Alcotest.(check bool) "implicit view attribute names" true
    (Whynot_concept.Ls.equal
       (parse {|Reachable.a2[a1 = "Amsterdam"]|})
       (Whynot_concept.Ls.proj ~rel:"Reachable" ~attr:2
          ~sels:
            [ { Whynot_concept.Ls.attr = 1; op = Cmp_op.Eq;
                value = Value.str "Amsterdam" } ]
          ()));
  (* Extension evaluates as expected against the parsed instance. *)
  let inst = Parser.instance_of doc in
  (match Whynot_concept.Semantics.extension (parse {|Cities.name[continent = "Europe"]|}) inst with
   | Whynot_concept.Semantics.Fin s ->
     Alcotest.(check bool) "european cities" true
       (Value_set.equal s (Value_set.of_strings [ "Amsterdam"; "Berlin"; "Rome" ]))
   | Whynot_concept.Semantics.All -> Alcotest.fail "finite expected");
  (* Errors. *)
  (match Parser.concept_of_string doc "Cities.nosuch" with
   | Ok _ -> Alcotest.fail "unknown attribute accepted"
   | Error _ -> ());
  match Parser.concept_of_string doc "Cities.name &" with
  | Ok _ -> Alcotest.fail "dangling & accepted"
  | Error _ -> ()

(* Items join their lists in source order, and the parser does linear
   work: four times the facts allocate at most five times the words (an
   append per item grows as the square). *)
let test_facts_in_source_order_linear () =
  let document n =
    let b = Buffer.create (n * 40) in
    Buffer.add_string b "relation R(a, b)\nrelation S(c)\nfd R: a -> b\n";
    for i = 0 to n - 1 do
      Buffer.add_string b (Printf.sprintf "fact R(%d, \"s\\n%d\")\n" i (n - i));
      if i mod 17 = 0 then
        Buffer.add_string b (Printf.sprintf "view V%d(x) := R(x, y)\n" i)
    done;
    Buffer.contents b
  in
  let doc = parse_ok (document 50) in
  Alcotest.(check (list string)) "relations in source order" [ "R"; "S" ]
    (List.map (fun (r : Schema.rel_decl) -> r.Schema.name) doc.Parser.relations);
  Alcotest.(check (list int)) "facts in source order" (List.init 50 Fun.id)
    (List.concat_map
       (fun (rel, rows) ->
          List.map
            (fun t ->
               match rel, Tuple.to_list t with
               | "R", [ Value.Int i; Value.Str s ] ->
                 if s <> Printf.sprintf "s\n%d" (50 - i) then
                   Alcotest.failf "fact %d reads %S" i s;
                 i
               | _ -> Alcotest.fail "unexpected fact")
            (Array.to_list rows))
       doc.Parser.facts);
  Alcotest.(check (list string)) "views in source order" [ "V0"; "V17"; "V34" ]
    (List.map (fun (v : View.def) -> v.View.name) doc.Parser.views);
  let words n =
    let src = document n in
    ignore (parse_ok src);
    let w0 = Gc.minor_words () in
    ignore (parse_ok src);
    Gc.minor_words () -. w0
  in
  let small = words 500 and large = words 2000 in
  Alcotest.(check bool)
    (Printf.sprintf "2000 facts allocate %.0f words, 500 facts %.0f" large small)
    true
    (large <= 5. *. small)

let test_rules () =
  let doc =
    parse_ok
      "fact E(1, 2)\nfact E(2, 3)\n\
       rule T(x, y) := E(x, y)\n\
       rule T(x, y) := T(x, z), E(z, y)\n\
       rule Top(x) := E(x, y), !T(y, x), x >= 1"
  in
  Alcotest.(check int) "three rules" 3 (List.length doc.Parser.rules);
  (match Parser.program_of doc with
   | Ok (Some prog) ->
     Alcotest.(check bool) "recursive" true
       (Whynot_datalog.Program.is_recursive prog);
     let out = Whynot_datalog.Program.eval prog (Parser.instance_of doc) in
     Alcotest.(check int) "closure size" 3
       (Relation.cardinal (Option.get (Instance.relation out "T")));
     Alcotest.(check int) "Top derived" 2
       (Relation.cardinal (Option.get (Instance.relation out "Top")))
   | Ok None -> Alcotest.fail "program expected"
   | Error e -> Alcotest.failf "program: %s" (emsg e));
  (* Recursion through negation is rejected at program-building time. *)
  let bad = parse_ok "rule P(x) := E(x, x), !P(x)" in
  match Parser.program_of bad with
  | Ok _ -> Alcotest.fail "unstratifiable accepted"
  | Error _ -> ()

let test_values_of_string () =
  (match Parser.values_of_string {|"Amsterdam", 7, x|} with
   | Ok vs ->
     Alcotest.(check bool) "three values" true
       (vs = [ Value.Str "Amsterdam"; Value.Int 7; Value.Str "x" ])
   | Error e -> Alcotest.failf "values: %s" (emsg e));
  match Parser.values_of_string "1 2" with
  | Ok _ -> Alcotest.fail "missing comma accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Printer/parser fixpoints and error positions                       *)
(* ------------------------------------------------------------------ *)

module Surface = Whynot_proptest.Surface
module PGen = Whynot_proptest.Gen

(* A fixed generator state keeps these property runs deterministic inside
   the suite; fresh seeds live in bin/proptest_runner. *)
let fixed_rand () = Random.State.make [| 0xC0FFEE |]

let concept_fixpoint =
  QCheck2.Test.make ~name:"concept parse-print-parse fixpoint" ~count:200
    QCheck2.Gen.(
      PGen.schema PGen.No_constraints >>= fun s ->
      PGen.concept s >>= fun c -> return (s, c))
    (fun (s, c) ->
       let doc = parse_ok (Surface.document s Instance.empty) in
       let printed = Surface.concept s c in
       match Parser.concept_of_string doc printed with
       | Error e -> QCheck2.Test.fail_reportf "%s: %s" printed (emsg e)
       | Ok c' ->
         (* Parsing the normal-form rendering is the identity, so a second
            print-parse cycle is a fixpoint. *)
         Whynot_concept.Ls.equal c c'
         && Surface.concept s c' = printed)

let document_fixpoint =
  QCheck2.Test.make ~name:"document parse-print-parse fixpoint" ~count:100
    QCheck2.Gen.(
      PGen.schema_class >>= fun cls ->
      PGen.schema cls >>= fun s ->
      PGen.legal_instance s >>= fun inst -> return (s, inst))
    (fun (s, inst) ->
       let text = Surface.document s inst in
       let doc = parse_ok text in
       match Parser.schema_of doc with
       | Error e -> QCheck2.Test.fail_reportf "schema_of: %s" (emsg e)
       | Ok s' ->
         Surface.document s' (Parser.instance_of doc) = text)

let check_error_line expected = function
  | Ok _ -> Alcotest.failf "expected an error mentioning %S" expected
  | Error e ->
    let msg = emsg e in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%S in %S" expected msg)
      true (contains msg expected)

let test_error_positions () =
  (* Lexer errors point at the offending line... *)
  check_error_line "line 3" (Lexer.tokenize "a b\nc d\n$");
  check_error_line "line 1" (Lexer.tokenize "\"unterminated");
  (* ...and so do parser errors, even mid-document. *)
  check_error_line "line 2" (Parser.parse "relation R(a)\nrelation S(");
  check_error_line "line 3"
    (Parser.parse "relation R(a)\nfact R(1)\nview V(x) :=");
  check_error_line "line 4"
    (Parser.parse "relation R(a, b)\nfact R(1, 2)\n\nfd R: 1 ->")

let test_retail_document () =
  match Parser.parse_file (data_path "retail.whynot") with
  | Error e -> Alcotest.failf "retail document: %s" (emsg e)
  | Ok doc ->
    let wn =
      match Parser.whynot_of doc with
      | Ok wn -> wn
      | Error e -> Alcotest.failf "whynot: %s" (emsg e)
    in
    (match Parser.hand_ontology_of doc with
     | None -> Alcotest.fail "hand ontology expected"
     | Some o ->
       let mges = Result.get_ok (Whynot_core.Exhaustive.all_mges o wn) in
       Alcotest.(check bool) "<Audio, CaliforniaStore> is an MGE" true
         (List.exists
            (fun e -> e = [ "Audio"; "CaliforniaStore" ])
            mges))

let () =
  Alcotest.run "text"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "relation/fd/ind" `Quick test_parse_relation_fd_ind;
          Alcotest.test_case "views/query/whynot" `Quick test_parse_view_union_and_query;
          Alcotest.test_case "facts" `Quick test_parse_facts_bare_idents;
          Alcotest.test_case "ontology items" `Quick test_parse_ontology_items;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "facts in source order, linear intake" `Quick
            test_facts_in_source_order_linear;
        ] );
      ( "cities-document",
        [ Alcotest.test_case "round trip" `Quick test_cities_document ] );
      ( "retail-document",
        [ Alcotest.test_case "round trip" `Quick test_retail_document ] );
      ( "expressions",
        [
          Alcotest.test_case "concepts" `Quick test_concept_expressions;
          Alcotest.test_case "value lists" `Quick test_values_of_string;
          Alcotest.test_case "datalog rules" `Quick test_rules;
          Alcotest.test_case "error positions" `Quick test_error_positions;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand:(fixed_rand ())
            concept_fixpoint;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand:(fixed_rand ())
            document_fixpoint;
        ] );
    ]
