(* Tests for the DL-LiteR reasoner: the Figure 4 TBox, unsatisfiability
   propagation, role hierarchies, and exactness of saturation against the
   filtrated canonical model. *)

open Whynot_dllite

let atom a = Dl.Atom a
let ex p = Dl.Exists (Dl.Named p)
let ex_inv p = Dl.Exists (Dl.Inv p)

(* The DL-LiteR TBox of Figure 4. *)
let figure4_tbox =
  Tbox.make
    [
      Tbox.Concept_incl (atom "EU-City", Dl.B (atom "City"));
      Tbox.Concept_incl (atom "Dutch-City", Dl.B (atom "EU-City"));
      Tbox.Concept_incl (atom "NA-City", Dl.B (atom "City"));
      Tbox.Concept_incl (atom "EU-City", Dl.Not (atom "NA-City"));
      Tbox.Concept_incl (atom "US-City", Dl.B (atom "NA-City"));
      Tbox.Concept_incl (atom "City", Dl.B (ex "hasCountry"));
      Tbox.Concept_incl (atom "Country", Dl.B (ex "hasContinent"));
      Tbox.Concept_incl (ex_inv "hasCountry", Dl.B (atom "Country"));
      Tbox.Concept_incl (ex_inv "hasContinent", Dl.B (atom "Continent"));
      Tbox.Concept_incl (ex "connected", Dl.B (atom "City"));
      Tbox.Concept_incl (ex_inv "connected", Dl.B (atom "City"));
    ]

let fig4 = Reasoner.saturate figure4_tbox

let check_sub msg expected b1 b2 =
  Alcotest.(check bool) msg expected (Reasoner.subsumes fig4 b1 b2)

let test_fig4_subsumptions () =
  check_sub "EU-City [= City" true (atom "EU-City") (atom "City");
  check_sub "Dutch-City [= City (transitive)" true (atom "Dutch-City") (atom "City");
  check_sub "US-City [= City (transitive)" true (atom "US-City") (atom "City");
  check_sub "City not [= EU-City" false (atom "City") (atom "EU-City");
  check_sub "EU-City not [= US-City" false (atom "EU-City") (atom "US-City");
  check_sub "exists hasCountry- [= Country" true (ex_inv "hasCountry") (atom "Country");
  check_sub "exists connected [= City" true (ex "connected") (atom "City");
  (* Derived: City [= exists hasCountry, so EU-City [= exists hasCountry. *)
  check_sub "EU-City [= exists hasCountry" true (atom "EU-City") (ex "hasCountry");
  (* Not derived: Country [= City. *)
  check_sub "Country not [= City" false (atom "Country") (atom "City")

let test_fig4_disjointness () =
  Alcotest.(check bool) "EU disj NA" true
    (Reasoner.disjoint fig4 (atom "EU-City") (atom "NA-City"));
  Alcotest.(check bool) "disj symmetric" true
    (Reasoner.disjoint fig4 (atom "NA-City") (atom "EU-City"));
  (* Propagated down the hierarchy: Dutch disj US. *)
  Alcotest.(check bool) "Dutch disj US" true
    (Reasoner.disjoint fig4 (atom "Dutch-City") (atom "US-City"));
  Alcotest.(check bool) "City not disj Country" false
    (Reasoner.disjoint fig4 (atom "City") (atom "Country"));
  Alcotest.(check bool) "no unsat in fig4" true
    (List.for_all
       (fun b -> not (Reasoner.unsatisfiable fig4 b))
       (Reasoner.universe fig4))

let test_fig4_signature () =
  let universe = Reasoner.universe fig4 in
  (* Example 4.5 lists 13 basic concepts: 7 atomic + 2 per role (3 roles). *)
  Alcotest.(check int) "13 basic concepts" 13 (List.length universe);
  Alcotest.(check (list string)) "atomic concepts"
    [ "City"; "Continent"; "Country"; "Dutch-City"; "EU-City"; "NA-City"; "US-City" ]
    (Tbox.atomic_concepts figure4_tbox);
  Alcotest.(check (list string)) "atomic roles"
    [ "connected"; "hasContinent"; "hasCountry" ]
    (Tbox.atomic_roles figure4_tbox)

let test_unsat_concept () =
  (* A [= B, A [= C, B disj C  =>  A unsatisfiable, hence A [= anything. *)
  let tb =
    Tbox.make
      [
        Tbox.Concept_incl (atom "A", Dl.B (atom "B"));
        Tbox.Concept_incl (atom "A", Dl.B (atom "C"));
        Tbox.Concept_incl (atom "B", Dl.Not (atom "C"));
        Tbox.Concept_incl (atom "D", Dl.B (atom "D"));
      ]
  in
  let r = Reasoner.saturate tb in
  Alcotest.(check bool) "A unsat" true (Reasoner.unsatisfiable r (atom "A"));
  Alcotest.(check bool) "B sat" false (Reasoner.unsatisfiable r (atom "B"));
  Alcotest.(check bool) "unsat subsumed by all" true
    (Reasoner.subsumes r (atom "A") (atom "D"))

let test_unsat_role_propagation () =
  (* Range of P is unsatisfiable => P unsatisfiable => domain of P
     unsatisfiable => anything below exists P unsatisfiable. *)
  let tb =
    Tbox.make
      [
        Tbox.Concept_incl (ex_inv "P", Dl.B (atom "B"));
        Tbox.Concept_incl (ex_inv "P", Dl.B (atom "C"));
        Tbox.Concept_incl (atom "B", Dl.Not (atom "C"));
        Tbox.Concept_incl (atom "A", Dl.B (ex "P"));
      ]
  in
  let r = Reasoner.saturate tb in
  Alcotest.(check bool) "range unsat" true (Reasoner.unsatisfiable r (ex_inv "P"));
  Alcotest.(check bool) "role unsat" true (Reasoner.role_unsatisfiable r (Dl.Named "P"));
  Alcotest.(check bool) "domain unsat" true (Reasoner.unsatisfiable r (ex "P"));
  Alcotest.(check bool) "A unsat" true (Reasoner.unsatisfiable r (atom "A"))

let test_role_hierarchy () =
  (* P [= S gives exists P [= exists S and exists P- [= exists S-. *)
  let tb =
    Tbox.make
      [
        Tbox.Role_incl (Dl.Named "P", Dl.R (Dl.Named "S"));
        Tbox.Role_incl (Dl.Named "S", Dl.R (Dl.Named "T"));
      ]
  in
  let r = Reasoner.saturate tb in
  Alcotest.(check bool) "dom P [= dom S" true (Reasoner.subsumes r (ex "P") (ex "S"));
  Alcotest.(check bool) "rng P [= rng S" true
    (Reasoner.subsumes r (ex_inv "P") (ex_inv "S"));
  Alcotest.(check bool) "role transitivity" true
    (Reasoner.role_subsumes r (Dl.Named "P") (Dl.Named "T"));
  Alcotest.(check bool) "dom P [= dom T" true (Reasoner.subsumes r (ex "P") (ex "T"));
  Alcotest.(check bool) "inverse closure" true
    (Reasoner.role_subsumes r (Dl.Inv "P") (Dl.Inv "T"));
  Alcotest.(check bool) "no reverse" false
    (Reasoner.role_subsumes r (Dl.Named "T") (Dl.Named "P"))

let test_role_disjointness () =
  let tb =
    Tbox.make
      [
        Tbox.Role_incl (Dl.Named "P", Dl.R (Dl.Named "S"));
        Tbox.Role_incl (Dl.Named "S", Dl.NotR (Dl.Named "Q"));
        Tbox.Role_incl (Dl.Named "R0", Dl.R (Dl.Named "Q"));
      ]
  in
  let r = Reasoner.saturate tb in
  Alcotest.(check bool) "S disj Q" true
    (Reasoner.role_disjoint r (Dl.Named "S") (Dl.Named "Q"));
  Alcotest.(check bool) "down-closure: P disj R0" true
    (Reasoner.role_disjoint r (Dl.Named "P") (Dl.Named "R0"));
  Alcotest.(check bool) "inverse: P- disj R0-" true
    (Reasoner.role_disjoint r (Dl.Inv "P") (Dl.Inv "R0"));
  (* Role disjointness must NOT leak into concept disjointness of domains. *)
  Alcotest.(check bool) "dom P not disj dom Q" false
    (Reasoner.disjoint r (ex "P") (ex "Q"))

let test_long_chains () =
  (* A0 [= ... [= A63, P0 [= ... [= P15 and exists P15 [= A0: each verdict
     below needs a derivation of up to 79 steps. *)
  let chain n name incl =
    List.init (n - 1) (fun i ->
        incl (Printf.sprintf "%s%d" name i) (Printf.sprintf "%s%d" name (i + 1)))
  in
  let axioms =
    chain 64 "A" (fun a b -> Tbox.Concept_incl (atom a, Dl.B (atom b)))
    @ chain 16 "P" (fun p q -> Tbox.Role_incl (Dl.Named p, Dl.R (Dl.Named q)))
    @ [ Tbox.Concept_incl (ex "P15", Dl.B (atom "A0")) ]
  in
  let r = Reasoner.saturate (Tbox.make axioms) in
  let sub msg expected b1 b2 =
    Alcotest.(check bool) msg expected (Reasoner.subsumes r b1 b2)
  in
  sub "A0 [= A63" true (atom "A0") (atom "A63");
  sub "A63 [= A0" false (atom "A63") (atom "A0");
  sub "dom P0 [= dom P15" true (ex "P0") (ex "P15");
  sub "rng P0 [= rng P15" true (ex_inv "P0") (ex_inv "P15");
  sub "dom P0 [= A63" true (ex "P0") (atom "A63");
  sub "rng P0 [= A63" false (ex_inv "P0") (atom "A63");
  let r =
    Reasoner.saturate
      (Tbox.make (axioms @ [ Tbox.Concept_incl (atom "A63", Dl.Not (atom "A62")) ]))
  in
  Alcotest.(check bool) "A0 unsat" true (Reasoner.unsatisfiable r (atom "A0"));
  Alcotest.(check bool) "A63 sat" false (Reasoner.unsatisfiable r (atom "A63"));
  Alcotest.(check bool) "P0 unsat" true
    (Reasoner.role_unsatisfiable r (Dl.Named "P0"));
  Alcotest.(check bool) "rng P0 unsat" true
    (Reasoner.unsatisfiable r (ex_inv "P0"))

let test_subsumers_subsumees () =
  let ups = Reasoner.subsumers fig4 (atom "Dutch-City") in
  Alcotest.(check bool) "Dutch up to City" true (List.mem (atom "City") ups);
  Alcotest.(check bool) "Dutch up to EU" true (List.mem (atom "EU-City") ups);
  let downs = Reasoner.subsumees fig4 (atom "City") in
  Alcotest.(check bool) "City down to US" true (List.mem (atom "US-City") downs);
  Alcotest.(check bool) "City down to exists connected" true
    (List.mem (ex "connected") downs)

(* ------------------------------------------------------------------ *)
(* Canonical model: exactness of the saturation                        *)
(* ------------------------------------------------------------------ *)

let test_canonical_fig4 () =
  let m = Canonical.build fig4 in
  Alcotest.(check bool) "canonical satisfies TBox" true
    (Interp.satisfies m figure4_tbox);
  (* Counter-model witness for City not [= EU-City. *)
  Alcotest.(check bool) "x_City in City" true
    (Whynot_relational.Value_set.mem (Canonical.element (atom "City"))
       (Interp.concept_ext m (atom "City")));
  Alcotest.(check bool) "x_City not in EU-City" false
    (Whynot_relational.Value_set.mem (Canonical.element (atom "City"))
       (Interp.concept_ext m (atom "EU-City")))

(* Random TBoxes over a small signature. *)
let random_tbox_gen =
  let open QCheck2.Gen in
  let atom_gen = map (fun i -> Dl.Atom (Printf.sprintf "A%d" i)) (int_range 0 3) in
  let role_gen =
    map2
      (fun i inv -> if inv then Dl.Inv (Printf.sprintf "P%d" i) else Dl.Named (Printf.sprintf "P%d" i))
      (int_range 0 1) bool
  in
  let basic_gen =
    oneof [ atom_gen; map (fun r -> Dl.Exists r) role_gen ]
  in
  let axiom_gen =
    oneof
      [
        map2 (fun b1 b2 -> Tbox.Concept_incl (b1, Dl.B b2)) basic_gen basic_gen;
        map2 (fun b1 b2 -> Tbox.Concept_incl (b1, Dl.Not b2)) basic_gen basic_gen;
        map2 (fun r1 r2 -> Tbox.Role_incl (r1, Dl.R r2)) role_gen role_gen;
        map2 (fun r1 r2 -> Tbox.Role_incl (r1, Dl.NotR r2)) role_gen role_gen;
      ]
  in
  map Tbox.make (list_size (int_range 1 8) axiom_gen)

let prop_canonical_exactness =
  QCheck2.Test.make ~name:"saturation = truth in canonical model (sat lhs)"
    ~count:300 random_tbox_gen
    (fun tb ->
       let r = Reasoner.saturate tb in
       let m = Canonical.build r in
       List.for_all
         (fun b1 ->
            Reasoner.unsatisfiable r b1
            || List.for_all
                 (fun b2 ->
                    Reasoner.subsumes r b1 b2
                    = Interp.satisfies_inclusion m b1 b2
                    || not
                         (Whynot_relational.Value_set.mem (Canonical.element b1)
                            (Interp.concept_ext m b1)))
                 (Reasoner.universe r))
         (Reasoner.universe r))

let prop_canonical_is_model =
  QCheck2.Test.make ~name:"canonical model satisfies its TBox" ~count:300
    random_tbox_gen
    (fun tb ->
       let r = Reasoner.saturate tb in
       Interp.satisfies (Canonical.build r) tb)

let prop_subsumption_reflexive_transitive =
  QCheck2.Test.make ~name:"subsumption is a pre-order" ~count:100
    random_tbox_gen
    (fun tb ->
       let r = Reasoner.saturate tb in
       let u = Reasoner.universe r in
       List.for_all (fun b -> Reasoner.subsumes r b b) u
       && List.for_all
            (fun b1 ->
               List.for_all
                 (fun b2 ->
                    List.for_all
                      (fun b3 ->
                         (not (Reasoner.subsumes r b1 b2 && Reasoner.subsumes r b2 b3))
                         || Reasoner.subsumes r b1 b3)
                      u)
                 u)
            u)

(* ------------------------------------------------------------------ *)
(* ABoxes and knowledge bases                                          *)
(* ------------------------------------------------------------------ *)

let v = Whynot_relational.Value.str

let test_abox_entailment () =
  let abox =
    Abox.of_list
      [
        Abox.Concept_assertion ("Dutch-City", v "Amsterdam");
        Abox.Role_assertion ("hasCountry", v "Amsterdam", v "Netherlands");
        Abox.Role_assertion ("connected", v "Amsterdam", v "Berlin");
      ]
  in
  (match Abox.consistent fig4 abox with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "should be consistent: %s" msg);
  (* Derived memberships through the TBox. *)
  Alcotest.(check bool) "KB |= City(Amsterdam)" true
    (Abox.entails fig4 abox (atom "City") (v "Amsterdam"));
  Alcotest.(check bool) "KB |= EU-City(Amsterdam)" true
    (Abox.entails fig4 abox (atom "EU-City") (v "Amsterdam"));
  Alcotest.(check bool) "KB |= Country(Netherlands)" true
    (Abox.entails fig4 abox (atom "Country") (v "Netherlands"));
  Alcotest.(check bool) "KB |= City(Berlin) via connected-" true
    (Abox.entails fig4 abox (atom "City") (v "Berlin"));
  Alcotest.(check bool) "KB |/= NA-City(Amsterdam)" false
    (Abox.entails fig4 abox (atom "NA-City") (v "Amsterdam"));
  (* City = {Amsterdam, Berlin}; Netherlands is only a Country. *)
  Alcotest.(check int) "certain City extension" 2
    (Whynot_relational.Value_set.cardinal
       (Abox.certain_extension fig4 abox (atom "City")))

let test_abox_inconsistency () =
  let abox =
    Abox.of_list
      [
        Abox.Concept_assertion ("EU-City", v "Atlantis");
        Abox.Concept_assertion ("US-City", v "Atlantis");
      ]
  in
  (match Abox.consistent fig4 abox with
   | Ok () -> Alcotest.fail "clash not detected"
   | Error _ -> ());
  (* Ex falso: an inconsistent KB entails everything. *)
  Alcotest.(check bool) "ex falso" true
    (Abox.entails fig4 abox (atom "Continent") (v "Atlantis"))

let test_abox_derived_basics () =
  let abox =
    Abox.of_list [ Abox.Role_assertion ("hasCountry", v "a", v "b") ]
  in
  let derived = Abox.derived_basics fig4 abox (v "b") in
  Alcotest.(check bool) "range membership" true
    (List.mem (ex_inv "hasCountry") derived);
  Alcotest.(check bool) "Country derived" true
    (List.mem (atom "Country") derived);
  (* Existentially implied concepts of anonymous successors do NOT surface
     for named individuals: Country [= exists hasContinent does not put b
     in any atomic concept beyond Country. *)
  Alcotest.(check bool) "has hasContinent (derived)" true
    (List.mem (ex "hasContinent") derived);
  Alcotest.(check bool) "not Continent" false
    (List.mem (atom "Continent") derived)

(* Triangulation: three independent implementations of certain concept
   membership must agree — (1) ABox forward closure (Abox.certain_extension),
   (2) PerfectRef rewriting + evaluation, (3) membership via derived
   basics. *)
let random_abox_gen =
  let open QCheck2.Gen in
  let ind = map (fun i -> Whynot_relational.Value.str (Printf.sprintf "i%d" i)) (int_range 0 3) in
  let assertion =
    oneof
      [
        map2 (fun i x -> Abox.Concept_assertion (Printf.sprintf "A%d" i, x)) (int_range 0 3) ind;
        map3 (fun i x y -> Abox.Role_assertion (Printf.sprintf "P%d" i, x, y)) (int_range 0 1) ind ind;
      ]
  in
  map Abox.of_list (list_size (int_range 1 6) assertion)

let prop_certain_membership_triangulation =
  QCheck2.Test.make ~name:"ABox closure = PerfectRef rewriting" ~count:150
    QCheck2.Gen.(pair random_tbox_gen random_abox_gen)
    (fun (tb, abox) ->
       let r = Reasoner.saturate tb in
       match Abox.consistent r abox with
       | Error _ -> true (* certain answers trivialise; skip *)
       | Ok () ->
         let abox_inst = Interp.to_instance (Abox.to_interp abox) in
         List.for_all
           (fun a ->
              let q =
                Whynot_relational.Cq.make
                  ~head:[ Whynot_relational.Cq.Var "x" ]
                  ~atoms:[ { Whynot_relational.Cq.rel = a;
                             args = [ Whynot_relational.Cq.Var "x" ] } ]
                  ()
              in
              let via_rewrite =
                Whynot_relational.Relation.column 1
                  (Whynot_relational.Ucq.eval
                     (Whynot_obda.Rewrite.rewrite tb q) abox_inst)
              in
              let via_closure = Abox.certain_extension r abox (Dl.Atom a) in
              Whynot_relational.Value_set.equal via_rewrite via_closure)
           (Tbox.atomic_concepts tb))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_canonical_is_model;
      prop_canonical_exactness;
      prop_subsumption_reflexive_transitive;
      prop_certain_membership_triangulation;
    ]

let () =
  Alcotest.run "dllite"
    [
      ( "figure4",
        [
          Alcotest.test_case "subsumptions" `Quick test_fig4_subsumptions;
          Alcotest.test_case "disjointness" `Quick test_fig4_disjointness;
          Alcotest.test_case "signature" `Quick test_fig4_signature;
        ] );
      ( "unsat",
        [
          Alcotest.test_case "concept" `Quick test_unsat_concept;
          Alcotest.test_case "role propagation" `Quick test_unsat_role_propagation;
        ] );
      ( "roles",
        [
          Alcotest.test_case "hierarchy" `Quick test_role_hierarchy;
          Alcotest.test_case "disjointness" `Quick test_role_disjointness;
        ] );
      ( "chains",
        [ Alcotest.test_case "long derivations" `Quick test_long_chains ] );
      ( "queries",
        [ Alcotest.test_case "subsumers/subsumees" `Quick test_subsumers_subsumees ] );
      ( "canonical",
        [ Alcotest.test_case "figure4" `Quick test_canonical_fig4 ] );
      ( "abox",
        [
          Alcotest.test_case "entailment" `Quick test_abox_entailment;
          Alcotest.test_case "inconsistency" `Quick test_abox_inconsistency;
          Alcotest.test_case "derived basics" `Quick test_abox_derived_basics;
        ] );
      ("properties", qcheck_cases);
    ]
