(* Tests for the OBDA layer: mapping retrieval, induced ontology
   (Definition 4.4), and the concrete extensions of Example 4.5. *)

open Whynot_relational
open Whynot_dllite
open Whynot_obda

let cities = Whynot_workload.Cities.instance
let spec = Whynot_workload.Cities.obda_spec

let induced = Induced.prepare spec cities

let vset_of_strings = Value_set.of_strings

let check_ext msg concept expected =
  let got = Induced.extension induced concept in
  Alcotest.(check bool)
    (msg ^ " = " ^ Format.asprintf "%a" Value_set.pp got)
    true
    (Value_set.equal got (vset_of_strings expected))

let a name = Dl.Atom name
let ex p = Dl.Exists (Dl.Named p)
let ex_inv p = Dl.Exists (Dl.Inv p)

let test_retrieval () =
  let retrieved = Induced.retrieved induced in
  Alcotest.(check int) "EU-City raw" 3
    (Value_set.cardinal (Interp.concept_ext retrieved (a "EU-City")));
  Alcotest.(check int) "connected edges" 6
    (List.length (Interp.role_ext retrieved (Dl.Named "connected")));
  Alcotest.(check int) "hasCountry edges (8 cities)" 8
    (List.length (Interp.role_ext retrieved (Dl.Named "hasCountry")))

(* Example 4.5's listed extensions. *)
let test_example_4_5_extensions () =
  check_ext "City" (a "City")
    [ "Amsterdam"; "Berlin"; "Rome"; "New York"; "San Francisco"; "Santa Cruz";
      "Tokyo"; "Kyoto" ];
  check_ext "EU-City" (a "EU-City") [ "Amsterdam"; "Berlin"; "Rome" ];
  check_ext "N.A.-City" (a "N.A.-City")
    [ "New York"; "San Francisco"; "Santa Cruz" ];
  check_ext "Dutch-City" (a "Dutch-City") [ "Amsterdam" ];
  check_ext "US-City" (a "US-City")
    [ "New York"; "San Francisco"; "Santa Cruz" ];
  check_ext "exists hasCountry-" (ex_inv "hasCountry")
    [ "Netherlands"; "Germany"; "Italy"; "USA"; "Japan" ];
  (* The paper's Example 4.5 prints ext(∃connected) = {Amsterdam, Berlin,
     New York}, but the mapping of Figure 4 retrieves every Train-Connections
     pair whose endpoints are cities — which also covers San Francisco and
     Tokyo. The semantically correct certain extension is the one below;
     see EXPERIMENTS.md. *)
  check_ext "exists connected" (ex "connected")
    [ "Amsterdam"; "Berlin"; "New York"; "San Francisco"; "Tokyo" ]

let test_certain_extension_uses_tbox () =
  (* No mapping asserts City directly: Tokyo is a City only via
     ∃connected ⊑ City. *)
  let retrieved = Induced.retrieved induced in
  Alcotest.(check bool) "no raw City facts" true
    (Value_set.is_empty (Interp.concept_ext retrieved (a "City")));
  Alcotest.(check bool) "Tokyo certain City" true
    (Value_set.mem (Value.str "Tokyo") (Induced.extension induced (a "City")));
  (* exists hasCountry also covers all cities via City ⊑ ∃hasCountry...
     but certain membership of ∃hasCountry comes from the retrieved
     hasCountry edges themselves. *)
  Alcotest.(check int) "exists hasCountry" 8
    (Value_set.cardinal (Induced.extension induced (ex "hasCountry")))

let test_concepts_and_subsumption () =
  let concepts = Induced.concepts induced in
  Alcotest.(check int) "13 basic concepts occur in T" 13 (List.length concepts);
  Alcotest.(check bool) "EU [= City" true
    (Induced.subsumes induced (a "EU-City") (a "City"));
  Alcotest.(check bool) "Dutch [= City" true
    (Induced.subsumes induced (a "Dutch-City") (a "City"));
  Alcotest.(check bool) "City not [= EU" false
    (Induced.subsumes induced (a "City") (a "EU-City"))

let test_consistency () =
  (match Induced.consistent induced with
   | Ok () -> ()
   | Error msg -> Alcotest.fail ("Figure 2+4 should be consistent: " ^ msg));
  (* Force an inconsistency: a city asserted both European and
     North-American. *)
  let broken =
    Instance.add_fact "Cities"
      [ Value.str "Atlantis"; Value.int 1; Value.str "USA"; Value.str "Europe" ]
      Whynot_workload.Cities.base_instance
  in
  let ind = Induced.prepare spec broken in
  match Induced.consistent ind with
  | Ok () -> Alcotest.fail "inconsistency not detected"
  | Error _ -> ()

let test_base_concepts_of () =
  let bases =
    Induced.base_concepts_of induced (Value.str "Amsterdam")
  in
  Alcotest.(check bool) "EU-City base" true (List.mem (a "EU-City") bases);
  Alcotest.(check bool) "Dutch-City base" true (List.mem (a "Dutch-City") bases);
  Alcotest.(check bool) "connected domain" true (List.mem (ex "connected") bases);
  Alcotest.(check bool) "City not base (derived only)" false
    (List.mem (a "City") bases)

let test_unsafe_mapping_rejected () =
  let bad =
    Mapping.make
      ~head:(Mapping.Concept_of ("A", "lost"))
      [ { Cq.rel = "Cities"; args = [ Cq.Var "x"; Cq.Var "y"; Cq.Var "z"; Cq.Var "w" ] } ]
  in
  match
    Spec.make ~tbox:Whynot_workload.Cities.obda_tbox
      ~schema:Whynot_workload.Cities.schema ~mappings:[ bad ]
  with
  | Ok _ -> Alcotest.fail "unsafe mapping accepted"
  | Error _ -> ()

let test_wrong_arity_rejected () =
  let bad =
    Mapping.make
      ~head:(Mapping.Concept_of ("A", "x"))
      [ { Cq.rel = "Cities"; args = [ Cq.Var "x" ] } ]
  in
  match
    Spec.make ~tbox:Whynot_workload.Cities.obda_tbox
      ~schema:Whynot_workload.Cities.schema ~mappings:[ bad ]
  with
  | Ok _ -> Alcotest.fail "wrong arity accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* PerfectRef rewriting and ontology-level queries                      *)
(* ------------------------------------------------------------------ *)

let atomic_query name =
  Cq.make ~head:[ Cq.Var "x" ]
    ~atoms:[ { Cq.rel = name; args = [ Cq.Var "x" ] } ]
    ()

let test_rewrite_atomic_matches_extensions () =
  (* For every atomic concept A, certain answers of A(x) must equal the
     induced ontology's certain extension of A — two independent
     implementations of the same semantics. *)
  let tbox = Whynot_workload.Cities.obda_tbox in
  List.iter
    (fun a ->
       let q = atomic_query a in
       Alcotest.(check bool) ("signature check " ^ a) true
         (Rewrite.is_ontology_query tbox q);
       let via_rewrite =
         Relation.column 1 (Rewrite.certain_answers induced q)
       in
       let via_closure = Induced.extension induced (Dl.Atom a) in
       Alcotest.(check bool)
         (Printf.sprintf "%s: rewrite = closure (%s vs %s)" a
            (Format.asprintf "%a" Value_set.pp via_rewrite)
            (Format.asprintf "%a" Value_set.pp via_closure))
         true
         (Value_set.equal via_rewrite via_closure))
    (Whynot_dllite.Tbox.atomic_concepts tbox)

let test_rewrite_join_through_existential () =
  (* q(x) := hasCountry(x, y), hasContinent(y, z): no retrieved
     hasContinent edge leaves a country, but Country ⊑ ∃hasContinent makes
     the join succeed through an anonymous witness — this requires the
     reduce step of PerfectRef. *)
  let q =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:
        [
          { Cq.rel = "hasCountry"; args = [ Cq.Var "x"; Cq.Var "y" ] };
          { Cq.rel = "hasContinent"; args = [ Cq.Var "y"; Cq.Var "z" ] };
        ]
      ()
  in
  let answers = Relation.column 1 (Rewrite.certain_answers induced q) in
  Alcotest.(check bool)
    (Format.asprintf "all 8 cities (%a)" Value_set.pp answers)
    true
    (Value_set.equal answers
       (Induced.extension induced (Dl.Atom "City")))

let test_rewrite_role_query () =
  (* connected(x, y): certain answers are exactly the retrieved edges. *)
  let q =
    Cq.make
      ~head:[ Cq.Var "x"; Cq.Var "y" ]
      ~atoms:[ { Cq.rel = "connected"; args = [ Cq.Var "x"; Cq.Var "y" ] } ]
      ()
  in
  Alcotest.(check int) "6 edges" 6
    (Relation.cardinal (Rewrite.certain_answers induced q))

let test_ontology_level_whynot () =
  (* Why is (Amsterdam, New York) not certain to be connected in two hops
     at the ONTOLOGY level? *)
  let q =
    Cq.make
      ~head:[ Cq.Var "x"; Cq.Var "y" ]
      ~atoms:
        [
          { Cq.rel = "connected"; args = [ Cq.Var "x"; Cq.Var "z" ] };
          { Cq.rel = "connected"; args = [ Cq.Var "z"; Cq.Var "y" ] };
        ]
      ()
  in
  match
    Whynot_core.Obda_whynot.make induced ~query:q
      ~missing:[ Value.str "Amsterdam"; Value.str "New York" ]
  with
  | Error e -> Alcotest.failf "ontology why-not: %s" (Whynot_error.message e)
  | Ok wn ->
    Alcotest.(check int) "4 certain answers" 4
      (Relation.cardinal wn.Whynot_core.Whynot.answers);
    let o = Whynot_core.Ontology.of_obda induced in
    Alcotest.(check bool) "E1 is an MGE here too" true
      (Result.get_ok
         (Whynot_core.Exhaustive.check_mge o wn
            [ Dl.Atom "EU-City"; Dl.Atom "N.A.-City" ]));
    (match
       Whynot_core.Obda_whynot.explain induced ~query:q
         ~missing:[ Value.str "Amsterdam"; Value.str "New York" ]
     with
     | Ok mges -> Alcotest.(check bool) "some MGEs" true (mges <> [])
     | Error e -> Alcotest.failf "explain: %s" (Whynot_error.message e))

let test_ontology_whynot_validation () =
  let bad_query =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ { Cq.rel = "Cities"; args = [ Cq.Var "x"; Cq.Var "a"; Cq.Var "b"; Cq.Var "c" ] } ]
      ()
  in
  match
    Whynot_core.Obda_whynot.make induced ~query:bad_query
      ~missing:[ Value.str "Amsterdam" ]
  with
  | Ok _ -> Alcotest.fail "schema-level query accepted as ontology query"
  | Error _ -> ()

(* Property: certain extensions are monotone under subsumption — if
   T ⊨ B1 ⊑ B2 then ext(B1) ⊆ ext(B2). *)
let prop_extension_monotone =
  QCheck2.Test.make ~name:"ext monotone w.r.t. subsumption" ~count:1
    QCheck2.Gen.unit
    (fun () ->
       let concepts = Induced.concepts induced in
       List.for_all
         (fun b1 ->
            List.for_all
              (fun b2 ->
                 (not (Induced.subsumes induced b1 b2))
                 || Value_set.subset
                      (Induced.extension induced b1)
                      (Induced.extension induced b2))
              concepts)
         concepts)

let () =
  Alcotest.run "obda"
    [
      ( "figure4",
        [
          Alcotest.test_case "retrieval" `Quick test_retrieval;
          Alcotest.test_case "example 4.5 extensions" `Quick test_example_4_5_extensions;
          Alcotest.test_case "certain ext uses TBox" `Quick test_certain_extension_uses_tbox;
          Alcotest.test_case "concepts/subsumption" `Quick test_concepts_and_subsumption;
          Alcotest.test_case "consistency" `Quick test_consistency;
          Alcotest.test_case "base concepts" `Quick test_base_concepts_of;
        ] );
      ( "validation",
        [
          Alcotest.test_case "unsafe mapping" `Quick test_unsafe_mapping_rejected;
          Alcotest.test_case "wrong arity" `Quick test_wrong_arity_rejected;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "atomic = closure" `Quick test_rewrite_atomic_matches_extensions;
          Alcotest.test_case "join through existential" `Quick test_rewrite_join_through_existential;
          Alcotest.test_case "role query" `Quick test_rewrite_role_query;
          Alcotest.test_case "ontology-level why-not" `Quick test_ontology_level_whynot;
          Alcotest.test_case "validation" `Quick test_ontology_whynot_validation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_extension_monotone ] );
    ]
