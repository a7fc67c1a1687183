(* Tests for the relational substrate: values, intervals, tuples, relations,
   FDs, INDs, CQ evaluation, views and containment. *)

open Whynot_relational

let v_int n = Value.Int n
let v_str s = Value.Str s
let v_real x = Value.Real x

(* ------------------------------------------------------------------ *)
(* Value                                                              *)
(* ------------------------------------------------------------------ *)

let test_value_order () =
  Alcotest.(check bool) "int order" true (Value.compare (v_int 1) (v_int 2) < 0);
  Alcotest.(check bool) "num < str" true (Value.compare (v_int 99) (v_str "a") < 0);
  Alcotest.(check bool) "real vs int" true (Value.compare (v_real 1.5) (v_int 2) < 0);
  Alcotest.(check bool) "int tie below real" true
    (Value.compare (v_int 3) (v_real 3.0) < 0);
  Alcotest.(check bool) "str order" true
    (Value.compare (v_str "Amsterdam") (v_str "Berlin") < 0)

let test_value_between () =
  (match Value.between (v_int 1) (v_int 2) with
   | Some v ->
     Alcotest.(check bool) "1 < m" true (Value.compare (v_int 1) v < 0);
     Alcotest.(check bool) "m < 2" true (Value.compare v (v_int 2) < 0)
   | None -> Alcotest.fail "expected a value between 1 and 2");
  (match Value.between (v_str "ab") (v_str "ac") with
   | Some v ->
     Alcotest.(check bool) "ab < m" true (Value.compare (v_str "ab") v < 0);
     Alcotest.(check bool) "m < ac" true (Value.compare v (v_str "ac") < 0)
   | None -> Alcotest.fail "expected a string between ab and ac");
  Alcotest.(check bool) "empty numeric gap" true
    (Value.between (v_int 3) (v_real 3.0) = None)

let test_value_below_above () =
  List.iter
    (fun v ->
       Alcotest.(check bool) "below" true (Value.compare (Value.below v) v < 0);
       Alcotest.(check bool) "above" true (Value.compare v (Value.above v) < 0))
    [ v_int 0; v_real 2.5; v_str "x" ]

let test_value_roundtrip () =
  Alcotest.(check bool) "int" true (Value.of_string "42" = v_int 42);
  Alcotest.(check bool) "real" true (Value.of_string "1.5" = v_real 1.5);
  Alcotest.(check bool) "str" true (Value.of_string "Berlin" = v_str "Berlin");
  Alcotest.(check bool) "quoted" true (Value.of_string "\"a b\"" = v_str "a b")

(* Every member of an ascending array is found at its index, from the
   empty array up to several lengths, and every gap (below, between,
   above the members) answers -1. *)
let test_sorted_index () =
  for n = 0 to 9 do
    let a = Array.init n (fun i -> 2 * i) in
    for x = -1 to 2 * n do
      let expected = if x >= 0 && x mod 2 = 0 && x < 2 * n then x / 2 else -1 in
      Alcotest.(check int)
        (Printf.sprintf "n=%d x=%d" n x)
        expected
        (Sorted.index Int.compare a x)
    done
  done;
  let adom = [| v_int 1; v_int 7; v_real 7.5; v_str "a"; v_str "caf\xc3\xa9" |] in
  Array.iteri
    (fun i v ->
       Alcotest.(check int) (Value.to_string v) i
         (Sorted.index Value.compare adom v))
    adom;
  Alcotest.(check int) "absent string" (-1)
    (Sorted.index Value.compare adom (v_str "b"))

(* ------------------------------------------------------------------ *)
(* Interval                                                           *)
(* ------------------------------------------------------------------ *)

let itv op c = Interval.of_condition op c

let test_interval_meet_mem () =
  let i = Interval.meet (itv Cmp_op.Ge (v_int 2)) (itv Cmp_op.Lt (v_int 5)) in
  Alcotest.(check bool) "2 in [2,5)" true (Interval.mem (v_int 2) i);
  Alcotest.(check bool) "4 in [2,5)" true (Interval.mem (v_int 4) i);
  Alcotest.(check bool) "5 not in [2,5)" false (Interval.mem (v_int 5) i);
  Alcotest.(check bool) "not empty" false (Interval.is_empty i)

let test_interval_empty () =
  let e = Interval.meet (itv Cmp_op.Lt (v_int 0)) (itv Cmp_op.Gt (v_int 0)) in
  Alcotest.(check bool) "lt&gt empty" true (Interval.is_empty e);
  let e2 = Interval.meet (itv Cmp_op.Eq (v_int 1)) (itv Cmp_op.Eq (v_int 2)) in
  Alcotest.(check bool) "two points empty" true (Interval.is_empty e2);
  (* Open interval with an empty density gap. *)
  let g =
    Interval.make (Interval.Open (v_int 3)) (Interval.Open (v_real 3.0))
  in
  Alcotest.(check bool) "gap empty" true (Interval.is_empty g)

let test_interval_subset () =
  let sub = Interval.subset in
  Alcotest.(check bool) "point in ge" true
    (sub (itv Cmp_op.Eq (v_int 3)) (itv Cmp_op.Ge (v_int 3)));
  Alcotest.(check bool) "lt 3 in le 3" true
    (sub (itv Cmp_op.Lt (v_int 3)) (itv Cmp_op.Le (v_int 3)));
  Alcotest.(check bool) "le 3 not in lt 3" false
    (sub (itv Cmp_op.Le (v_int 3)) (itv Cmp_op.Lt (v_int 3)));
  Alcotest.(check bool) "anything in top" true
    (sub (itv Cmp_op.Gt (v_int 0)) Interval.top);
  Alcotest.(check bool) "empty in point" true
    (sub
       (Interval.meet (itv Cmp_op.Lt (v_int 0)) (itv Cmp_op.Gt (v_int 0)))
       (itv Cmp_op.Eq (v_int 7)))

let test_interval_point_sample () =
  Alcotest.(check bool) "point" true
    (Interval.is_point (itv Cmp_op.Eq (v_int 3)) = Some (v_int 3));
  (match Interval.sample (Interval.meet (itv Cmp_op.Gt (v_int 0)) (itv Cmp_op.Lt (v_int 1))) with
   | Some v -> Alcotest.(check bool) "in (0,1)" true
                 (Value.compare (v_int 0) v < 0 && Value.compare v (v_int 1) < 0)
   | None -> Alcotest.fail "expected a sample in (0,1)")

(* qcheck: interval membership respects meet. *)
let value_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Value.Int n) (int_range (-20) 20);
        map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'e') (int_range 0 3));
      ])

let cond_gen =
  QCheck2.Gen.(
    pair (oneofl Cmp_op.all) value_gen)

let prop_meet_is_conjunction =
  QCheck2.Test.make ~name:"interval meet = conjunction of conditions"
    ~count:500
    QCheck2.Gen.(triple cond_gen cond_gen value_gen)
    (fun ((op1, c1), (op2, c2), v) ->
       let i = Interval.meet (itv op1 c1) (itv op2 c2) in
       Interval.mem v i = (Cmp_op.eval op1 v c1 && Cmp_op.eval op2 v c2))

let prop_subset_sound =
  QCheck2.Test.make ~name:"interval subset implies pointwise" ~count:500
    QCheck2.Gen.(triple cond_gen cond_gen value_gen)
    (fun ((op1, c1), (op2, c2), v) ->
       let i = itv op1 c1 and j = itv op2 c2 in
       (not (Interval.subset i j)) || not (Interval.mem v i)
       || Interval.mem v j)

(* ------------------------------------------------------------------ *)
(* Tuple / Relation                                                   *)
(* ------------------------------------------------------------------ *)

let t123 = Tuple.of_list [ v_int 1; v_int 2; v_int 3 ]

let test_tuple_proj () =
  Alcotest.(check bool) "proj 3,1" true
    (Tuple.equal (Tuple.proj [ 3; 1 ] t123) (Tuple.of_list [ v_int 3; v_int 1 ]));
  Alcotest.(check bool) "get" true (Value.equal (Tuple.get t123 2) (v_int 2));
  Alcotest.check_raises "out of range" (Invalid_argument "Tuple.get: attribute 4 out of range 1..3")
    (fun () -> ignore (Tuple.get t123 4))

let rel_of rows = Relation.of_value_lists ~arity:(List.length (List.hd rows)) rows

let test_relation_ops () =
  let r = rel_of [ [ v_int 1; v_str "a" ]; [ v_int 2; v_str "b" ]; [ v_int 1; v_str "c" ] ] in
  Alcotest.(check int) "cardinal" 3 (Relation.cardinal r);
  Alcotest.(check int) "project 1" 2 (Relation.cardinal (Relation.project [ 1 ] r));
  Alcotest.(check int) "column 2" 3 (Value_set.cardinal (Relation.column 2 r));
  let sel = Relation.select [ (1, Cmp_op.Eq, v_int 1) ] r in
  Alcotest.(check int) "select" 2 (Relation.cardinal sel);
  let dup = Relation.add (Tuple.of_list [ v_int 1; v_str "a" ]) r in
  Alcotest.(check int) "set semantics" 3 (Relation.cardinal dup);
  Alcotest.(check int) "product" 9
    (Relation.cardinal (Relation.product r r));
  Alcotest.(check int) "product arity" 4 (Relation.arity (Relation.product r r))

let test_relation_arity_guard () =
  let r = Relation.empty ~arity:2 in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation: tuple of arity 3 in relation of arity 2")
    (fun () -> ignore (Relation.add t123 r))

(* The bulk constructors: unsorted input with duplicates gives the
   ascending, duplicate-free array; an odd arity is rejected; a builder
   fed far more duplicates than its compaction threshold stays correct. *)
let test_relation_bulk () =
  let t a b = Tuple.of_list [ v_int a; v_str b ] in
  let r = Relation.of_list ~arity:2 [ t 3 "c"; t 1 "a"; t 3 "c"; t 2 "b"; t 1 "a" ] in
  Alcotest.(check (list string)) "ascending, duplicates collapsed"
    [ "(1, \"a\")"; "(2, \"b\")"; "(3, \"c\")" ]
    (List.map Tuple.to_string (Relation.to_list r));
  let sorted_then_not =
    Relation.of_list ~arity:2 [ t 1 "a"; t 4 "d"; t 5 "e"; t 2 "b"; t 4 "d" ]
  in
  Alcotest.(check (list string)) "an ascending run, then unsorted tuples"
    [ "(1, \"a\")"; "(2, \"b\")"; "(4, \"d\")"; "(5, \"e\")" ]
    (List.map Tuple.to_string (Relation.to_list sorted_then_not));
  Alcotest.check_raises "arity checked"
    (Invalid_argument "Relation: tuple of arity 3 in relation of arity 2")
    (fun () -> ignore (Relation.of_list ~arity:2 [ t 1 "a"; t123 ]));
  let b = Relation.builder ~arity:2 in
  for k = 0 to 199_999 do
    Relation.push b (t (k mod 7) "x")
  done;
  let built = Relation.build b in
  Alcotest.(check int) "builder: 7 distinct of 200000 pushed" 7
    (Relation.cardinal built);
  Alcotest.(check bool) "builder: membership" true
    (Relation.mem (t 6 "x") built && not (Relation.mem (t 7 "x") built))

(* ------------------------------------------------------------------ *)
(* FDs                                                                *)
(* ------------------------------------------------------------------ *)

let test_fd () =
  let fd = Fd.make ~rel:"R" ~lhs:[ 1 ] ~rhs:[ 2 ] in
  let ok = rel_of [ [ v_int 1; v_str "a" ]; [ v_int 2; v_str "a" ] ] in
  let bad = rel_of [ [ v_int 1; v_str "a" ]; [ v_int 1; v_str "b" ] ] in
  Alcotest.(check bool) "satisfied" true (Fd.satisfied_in fd ok);
  Alcotest.(check bool) "violated" false (Fd.satisfied_in fd bad);
  Alcotest.(check int) "one violation" 1 (List.length (Fd.violations fd bad))

let test_fd_closure_implies () =
  let fds =
    [ Fd.make ~rel:"R" ~lhs:[ 1 ] ~rhs:[ 2 ];
      Fd.make ~rel:"R" ~lhs:[ 2 ] ~rhs:[ 3 ] ]
  in
  Alcotest.(check (list int)) "closure {1}" [ 1; 2; 3 ] (Fd.closure fds ~rel:"R" [ 1 ]);
  Alcotest.(check bool) "transitivity" true
    (Fd.implies fds (Fd.make ~rel:"R" ~lhs:[ 1 ] ~rhs:[ 3 ]));
  Alcotest.(check bool) "no reverse" false
    (Fd.implies fds (Fd.make ~rel:"R" ~lhs:[ 3 ] ~rhs:[ 1 ]));
  (* FDs on other relations do not interfere. *)
  Alcotest.(check bool) "other rel" false
    (Fd.implies fds (Fd.make ~rel:"S" ~lhs:[ 1 ] ~rhs:[ 2 ]))

(* ------------------------------------------------------------------ *)
(* INDs                                                               *)
(* ------------------------------------------------------------------ *)

let test_ind () =
  let ind = Ind.make ~lhs_rel:"R" ~lhs_attrs:[ 1 ] ~rhs_rel:"S" ~rhs_attrs:[ 2 ] in
  let r = rel_of [ [ v_int 1; v_int 10 ]; [ v_int 2; v_int 20 ] ] in
  let s_ok = rel_of [ [ v_str "x"; v_int 1 ]; [ v_str "y"; v_int 2 ] ] in
  let s_bad = rel_of [ [ v_str "x"; v_int 1 ] ] in
  Alcotest.(check bool) "satisfied" true (Ind.satisfied_in ind ~lhs:r ~rhs:s_ok);
  Alcotest.(check bool) "violated" false (Ind.satisfied_in ind ~lhs:r ~rhs:s_bad);
  Alcotest.(check int) "violations" 1 (List.length (Ind.violations ind ~lhs:r ~rhs:s_bad))

let test_ind_reachability () =
  let inds =
    [ Ind.make ~lhs_rel:"R" ~lhs_attrs:[ 1; 2 ] ~rhs_rel:"S" ~rhs_attrs:[ 2; 1 ];
      Ind.make ~lhs_rel:"S" ~lhs_attrs:[ 2 ] ~rhs_rel:"T" ~rhs_attrs:[ 1 ] ]
  in
  let reach = Ind.unary_reachable inds ("R", 1) in
  Alcotest.(check bool) "R1 -> S2" true (List.mem ("S", 2) reach);
  Alcotest.(check bool) "R1 -> T1" true (List.mem ("T", 1) reach);
  Alcotest.(check bool) "not S1" false (List.mem ("S", 1) reach)

(* ------------------------------------------------------------------ *)
(* CQ evaluation                                                      *)
(* ------------------------------------------------------------------ *)

let train_inst =
  Instance.of_facts
    [
      ( "TC",
        [
          [ v_str "Amsterdam"; v_str "Berlin" ];
          [ v_str "Berlin"; v_str "Rome" ];
          [ v_str "Berlin"; v_str "Amsterdam" ];
          [ v_str "New York"; v_str "San Francisco" ];
          [ v_str "San Francisco"; v_str "Santa Cruz" ];
          [ v_str "Tokyo"; v_str "Kyoto" ];
        ] );
    ]

let two_hop =
  Cq.make
    ~head:[ Cq.Var "x"; Cq.Var "y" ]
    ~atoms:
      [
        { Cq.rel = "TC"; args = [ Cq.Var "x"; Cq.Var "z" ] };
        { Cq.rel = "TC"; args = [ Cq.Var "z"; Cq.Var "y" ] };
      ]
    ()

let test_cq_eval_two_hop () =
  (* Example 3.4: q(I) = {(A,R), (A,A), (B,B), (NY,SC)}. *)
  let res = Cq.eval two_hop train_inst in
  let expect =
    rel_of
      [
        [ v_str "Amsterdam"; v_str "Rome" ];
        [ v_str "Amsterdam"; v_str "Amsterdam" ];
        [ v_str "Berlin"; v_str "Berlin" ];
        [ v_str "New York"; v_str "Santa Cruz" ];
      ]
  in
  Alcotest.(check bool) "example 3.4 answers" true (Relation.equal res expect)

let test_cq_eval_constants_and_comparisons () =
  let inst =
    Instance.of_facts
      [ ("Cities", [ [ v_str "Berlin"; v_int 3502000 ]; [ v_str "Santa Cruz"; v_int 59946 ] ]) ]
  in
  let q =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ { Cq.rel = "Cities"; args = [ Cq.Var "x"; Cq.Var "p" ] } ]
      ~comparisons:[ { Cq.subject = "p"; op = Cmp_op.Gt; value = v_int 1000000 } ]
      ()
  in
  let res = Cq.eval q inst in
  Alcotest.(check int) "one big city" 1 (Relation.cardinal res);
  Alcotest.(check bool) "Berlin" true
    (Relation.mem (Tuple.of_list [ v_str "Berlin" ]) res);
  let q_const =
    Cq.make ~head:[ Cq.Var "p" ]
      ~atoms:[ { Cq.rel = "Cities"; args = [ Cq.Const (v_str "Berlin"); Cq.Var "p" ] } ]
      ()
  in
  Alcotest.(check int) "constant in atom" 1 (Relation.cardinal (Cq.eval q_const inst))

let test_cq_boolean () =
  let q_yes =
    Cq.make ~head:[]
      ~atoms:[ { Cq.rel = "TC"; args = [ Cq.Var "x"; Cq.Const (v_str "Kyoto") ] } ]
      ()
  in
  let q_no =
    Cq.make ~head:[]
      ~atoms:[ { Cq.rel = "TC"; args = [ Cq.Var "x"; Cq.Const (v_str "Paris") ] } ]
      ()
  in
  Alcotest.(check bool) "holds" true (Cq.holds q_yes train_inst);
  Alcotest.(check bool) "fails" false (Cq.holds q_no train_inst)

let test_cq_substitute () =
  let q =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ { Cq.rel = "R"; args = [ Cq.Var "x"; Cq.Var "y" ] } ]
      ~comparisons:[ { Cq.subject = "y"; op = Cmp_op.Lt; value = v_int 5 } ]
      ()
  in
  let ok = Cq.substitute [ ("y", Cq.Const (v_int 3)) ] q in
  Alcotest.(check bool) "comparison discharged" false
    (Cq.is_unsatisfiable_syntactic ok);
  let bad = Cq.substitute [ ("y", Cq.Const (v_int 9)) ] q in
  Alcotest.(check bool) "comparison violated" true
    (Cq.is_unsatisfiable_syntactic bad)

let test_cq_safety () =
  let safe = two_hop in
  Alcotest.(check bool) "two-hop safe" true (Cq.is_safe safe);
  let unsafe = Cq.make ~head:[ Cq.Var "x" ] ~atoms:[] () in
  Alcotest.(check bool) "free head var unsafe" false (Cq.is_safe unsafe)

(* ------------------------------------------------------------------ *)
(* Views                                                              *)
(* ------------------------------------------------------------------ *)

let cities_inst =
  Instance.of_facts
    [
      ( "Cities",
        [
          [ v_str "Amsterdam"; v_int 779808; v_str "Netherlands"; v_str "Europe" ];
          [ v_str "Berlin"; v_int 3502000; v_str "Germany"; v_str "Europe" ];
          [ v_str "Rome"; v_int 2753000; v_str "Italy"; v_str "Europe" ];
          [ v_str "New York"; v_int 8337000; v_str "USA"; v_str "N.America" ];
          [ v_str "San Francisco"; v_int 837442; v_str "USA"; v_str "N.America" ];
          [ v_str "Santa Cruz"; v_int 59946; v_str "USA"; v_str "N.America" ];
          [ v_str "Tokyo"; v_int 13185000; v_str "Japan"; v_str "Asia" ];
          [ v_str "Kyoto"; v_int 1400000; v_str "Japan"; v_str "Asia" ];
        ] );
      ( "TC",
        [
          [ v_str "Amsterdam"; v_str "Berlin" ];
          [ v_str "Berlin"; v_str "Rome" ];
          [ v_str "Berlin"; v_str "Amsterdam" ];
          [ v_str "New York"; v_str "San Francisco" ];
          [ v_str "San Francisco"; v_str "Santa Cruz" ];
          [ v_str "Tokyo"; v_str "Kyoto" ];
        ] );
    ]

let big_city_def =
  {
    View.name = "BigCity";
    body =
      Ucq.of_cq
        (Cq.make ~head:[ Cq.Var "x" ]
           ~atoms:
             [ { Cq.rel = "Cities"; args = [ Cq.Var "x"; Cq.Var "y"; Cq.Var "z"; Cq.Var "w" ] } ]
           ~comparisons:[ { Cq.subject = "y"; op = Cmp_op.Ge; value = v_int 5000000 } ]
           ());
  }

let reachable_def =
  {
    View.name = "Reachable";
    body =
      Ucq.make
        [
          Cq.make
            ~head:[ Cq.Var "x"; Cq.Var "y" ]
            ~atoms:[ { Cq.rel = "TC"; args = [ Cq.Var "x"; Cq.Var "y" ] } ]
            ();
          Cq.make
            ~head:[ Cq.Var "x"; Cq.Var "y" ]
            ~atoms:
              [
                { Cq.rel = "TC"; args = [ Cq.Var "x"; Cq.Var "z" ] };
                { Cq.rel = "TC"; args = [ Cq.Var "z"; Cq.Var "y" ] };
              ]
            ();
        ];
  }

let test_view_materialise () =
  (* Figure 2: BigCity = {New York, Tokyo}; Reachable has 10 tuples. *)
  let views = View.make_exn [ big_city_def; reachable_def ] in
  let inst = View.materialise views cities_inst in
  let big = Option.get (Instance.relation inst "BigCity") in
  Alcotest.(check int) "BigCity size" 2 (Relation.cardinal big);
  Alcotest.(check bool) "NY big" true
    (Relation.mem (Tuple.of_list [ v_str "New York" ]) big);
  Alcotest.(check bool) "Tokyo big" true
    (Relation.mem (Tuple.of_list [ v_str "Tokyo" ]) big);
  let reach = Option.get (Instance.relation inst "Reachable") in
  Alcotest.(check int) "Reachable size" 10 (Relation.cardinal reach)

let test_view_nested () =
  (* FarReachable nests Reachable: a view over a view. *)
  let far =
    {
      View.name = "FarReachable";
      body =
        Ucq.of_cq
          (Cq.make
             ~head:[ Cq.Var "x"; Cq.Var "y" ]
             ~atoms:
               [
                 { Cq.rel = "Reachable"; args = [ Cq.Var "x"; Cq.Var "z" ] };
                 { Cq.rel = "TC"; args = [ Cq.Var "z"; Cq.Var "y" ] };
               ]
             ());
    }
  in
  let views = View.make_exn [ far; reachable_def ] in
  Alcotest.(check bool) "not flat" false (View.is_flat views);
  Alcotest.(check bool) "linear" true (View.is_linear views);
  let order = View.topological_order views in
  Alcotest.(check bool) "Reachable before FarReachable" true
    (let idx n = Option.get (List.find_index (String.equal n) order) in
     idx "Reachable" < idx "FarReachable");
  let inst = View.materialise views cities_inst in
  let farr = Option.get (Instance.relation inst "FarReachable") in
  (* 3-hop reachability over TC: Amsterdam can reach {B,R,A} in <=2, then one
     more TC hop. *)
  Alcotest.(check bool) "Amsterdam 3 hops to Rome" true
    (Relation.mem (Tuple.of_list [ v_str "Amsterdam"; v_str "Rome" ]) farr)

let test_view_cycle_rejected () =
  let a =
    {
      View.name = "A";
      body =
        Ucq.of_cq
          (Cq.make ~head:[ Cq.Var "x" ]
             ~atoms:[ { Cq.rel = "B"; args = [ Cq.Var "x" ] } ]
             ());
    }
  in
  let b =
    {
      View.name = "B";
      body =
        Ucq.of_cq
          (Cq.make ~head:[ Cq.Var "x" ]
             ~atoms:[ { Cq.rel = "A"; args = [ Cq.Var "x" ] } ]
             ());
    }
  in
  match View.make [ a; b ] with
  | Ok _ -> Alcotest.fail "cycle should be rejected"
  | Error _ -> ()

let test_view_unfold () =
  let views = View.make_exn [ big_city_def; reachable_def ] in
  let q =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:
        [
          { Cq.rel = "Reachable"; args = [ Cq.Var "x"; Cq.Var "y" ] };
          { Cq.rel = "BigCity"; args = [ Cq.Var "y" ] };
        ]
      ()
  in
  let unfolded = View.unfold_cq views q in
  Alcotest.(check int) "2 disjuncts (Reachable splits)" 2 (List.length unfolded);
  List.iter
    (fun q' ->
       List.iter
         (fun (a : Cq.atom) ->
            Alcotest.(check bool) "base atoms only" true
              (List.mem a.Cq.rel [ "Cities"; "TC" ]))
         q'.Cq.atoms)
    unfolded;
  (* Unfolded query is equivalent to evaluating over materialised views. *)
  let direct = Cq.eval q (View.materialise views cities_inst) in
  let via_unfold = Ucq.eval (Ucq.make unfolded) cities_inst in
  Alcotest.(check bool) "unfold preserves semantics" true
    (Relation.equal direct via_unfold)

let test_view_unfold_constant_head () =
  (* A view whose definition binds a head position to a constant; unfolding a
     query with a conflicting constant must drop the disjunct. *)
  let only_europe =
    {
      View.name = "EuropeOnly";
      body =
        Ucq.of_cq
          (Cq.make
             ~head:[ Cq.Var "x"; Cq.Const (v_str "Europe") ]
             ~atoms:
               [ { Cq.rel = "Cities"; args = [ Cq.Var "x"; Cq.Var "p"; Cq.Var "c"; Cq.Const (v_str "Europe") ] } ]
             ());
    }
  in
  let views = View.make_exn [ only_europe ] in
  let q_match =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ { Cq.rel = "EuropeOnly"; args = [ Cq.Var "x"; Cq.Const (v_str "Europe") ] } ]
      ()
  in
  let q_clash =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ { Cq.rel = "EuropeOnly"; args = [ Cq.Var "x"; Cq.Const (v_str "Asia") ] } ]
      ()
  in
  Alcotest.(check int) "match survives" 1 (List.length (View.unfold_cq views q_match));
  Alcotest.(check int) "clash drops" 0 (List.length (View.unfold_cq views q_clash))

(* ------------------------------------------------------------------ *)
(* Schema                                                             *)
(* ------------------------------------------------------------------ *)

let figure1_schema () =
  Schema.make_exn
    ~fds:[ Fd.make ~rel:"Cities" ~lhs:[ 3 ] ~rhs:[ 4 ] ]
    ~inds:
      [
        Ind.make ~lhs_rel:"BigCity" ~lhs_attrs:[ 1 ] ~rhs_rel:"TC" ~rhs_attrs:[ 1 ];
        Ind.make ~lhs_rel:"TC" ~lhs_attrs:[ 1 ] ~rhs_rel:"Cities" ~rhs_attrs:[ 1 ];
        Ind.make ~lhs_rel:"TC" ~lhs_attrs:[ 2 ] ~rhs_rel:"Cities" ~rhs_attrs:[ 1 ];
      ]
    ~views:[ big_city_def; reachable_def ]
    [
      { Schema.name = "Cities"; attrs = [ "name"; "population"; "country"; "continent" ] };
      { Schema.name = "TC"; attrs = [ "city_from"; "city_to" ] };
      { Schema.name = "BigCity"; attrs = [ "name" ] };
      { Schema.name = "Reachable"; attrs = [ "city_from"; "city_to" ] };
    ]

let test_schema_basics () =
  let s = figure1_schema () in
  Alcotest.(check (option int)) "arity" (Some 4) (Schema.arity s "Cities");
  Alcotest.(check (option int)) "attr_index" (Some 2)
    (Schema.attr_index s ~rel:"Cities" "population");
  Alcotest.(check (list string)) "data relations" [ "Cities"; "TC" ]
    (Schema.data_relation_names s);
  Alcotest.(check int) "positions" 9 (List.length (Schema.positions s));
  Alcotest.(check int) "max arity" 4 (Schema.max_arity s)

let test_schema_satisfies () =
  let s = figure1_schema () in
  let full = Schema.complete s cities_inst in
  (match Schema.satisfies s full with
   | Ok () -> ()
   | Error msg -> Alcotest.fail ("figure 1+2 should satisfy schema: " ^ msg));
  (* Breaking the FD country -> continent. *)
  let broken =
    Instance.add_fact "Cities"
      [ v_str "Testville"; v_int 1; v_str "Germany"; v_str "Mars" ]
      full
  in
  (match Schema.satisfies s broken with
   | Ok () -> Alcotest.fail "FD violation not detected"
   | Error _ -> ())

let test_schema_rejects_bad () =
  (match
     Schema.make
       ~fds:[ Fd.make ~rel:"R" ~lhs:[ 1 ] ~rhs:[ 5 ] ]
       [ { Schema.name = "R"; attrs = [ "a"; "b" ] } ]
   with
   | Ok _ -> Alcotest.fail "out-of-range FD accepted"
   | Error _ -> ());
  match
    Schema.make
      [ { Schema.name = "R"; attrs = [ "a" ] }; { Schema.name = "R"; attrs = [ "b" ] } ]
  with
  | Ok _ -> Alcotest.fail "duplicate relation accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Containment                                                        *)
(* ------------------------------------------------------------------ *)

let atom rel args = { Cq.rel; args }

let test_containment_no_comparisons () =
  (* R(x,y) & R(y,z) is contained in R(x,y') (projection), not vice versa. *)
  let q2hop =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ atom "R" [ Cq.Var "x"; Cq.Var "y" ]; atom "R" [ Cq.Var "y"; Cq.Var "z" ] ]
      ()
  in
  let q1hop =
    Cq.make ~head:[ Cq.Var "x" ] ~atoms:[ atom "R" [ Cq.Var "x"; Cq.Var "y" ] ] ()
  in
  Alcotest.(check bool) "2hop <= 1hop" true (Containment.cq_in_cq q2hop q1hop);
  Alcotest.(check bool) "1hop not <= 2hop" false (Containment.cq_in_cq q1hop q2hop)

let test_containment_with_comparisons () =
  let q_lt3 =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ atom "R" [ Cq.Var "x" ] ]
      ~comparisons:[ { Cq.subject = "x"; op = Cmp_op.Lt; value = v_int 3 } ]
      ()
  in
  let q_le3 =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ atom "R" [ Cq.Var "x" ] ]
      ~comparisons:[ { Cq.subject = "x"; op = Cmp_op.Le; value = v_int 3 } ]
      ()
  in
  Alcotest.(check bool) "<3 in <=3" true (Containment.cq_in_cq q_lt3 q_le3);
  Alcotest.(check bool) "<=3 not in <3" false (Containment.cq_in_cq q_le3 q_lt3)

let test_containment_union_split () =
  (* R(x) with x<=3 is contained in (x<3) union (x=3) union (x>3) but in no
     single disjunct: a genuinely union-requiring containment. *)
  let base cmp =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ atom "R" [ Cq.Var "x" ] ]
      ~comparisons:[ cmp ]
      ()
  in
  let q = base { Cq.subject = "x"; op = Cmp_op.Le; value = v_int 3 } in
  let u =
    Ucq.make
      [
        base { Cq.subject = "x"; op = Cmp_op.Lt; value = v_int 3 };
        base { Cq.subject = "x"; op = Cmp_op.Eq; value = v_int 3 };
      ]
  in
  Alcotest.(check bool) "le3 in (lt3 | eq3)" true (Containment.cq_in_ucq q u);
  Alcotest.(check bool) "not in lt3 alone" false
    (Containment.cq_in_ucq q (Ucq.make [ base { Cq.subject = "x"; op = Cmp_op.Lt; value = v_int 3 } ]));
  Alcotest.(check bool) "not in eq3 alone" false
    (Containment.cq_in_ucq q (Ucq.make [ base { Cq.subject = "x"; op = Cmp_op.Eq; value = v_int 3 } ]))

let test_containment_constants () =
  let q_const =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ atom "R" [ Cq.Var "x"; Cq.Const (v_str "a") ] ]
      ()
  in
  let q_var =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ atom "R" [ Cq.Var "x"; Cq.Var "y" ] ]
      ()
  in
  Alcotest.(check bool) "const in var" true (Containment.cq_in_cq q_const q_var);
  Alcotest.(check bool) "var not in const" false (Containment.cq_in_cq q_var q_const)

let test_containment_unsat_lhs () =
  let q_false =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ atom "R" [ Cq.Var "x" ] ]
      ~comparisons:
        [
          { Cq.subject = "x"; op = Cmp_op.Lt; value = v_int 0 };
          { Cq.subject = "x"; op = Cmp_op.Gt; value = v_int 0 };
        ]
      ()
  in
  let q_any =
    Cq.make ~head:[ Cq.Var "x" ] ~atoms:[ atom "S" [ Cq.Var "x" ] ] ()
  in
  Alcotest.(check bool) "false in anything" true
    (Containment.cq_in_cq q_false q_any)

(* qcheck: containment is sound w.r.t. evaluation on random instances. *)
let small_inst_gen =
  QCheck2.Gen.(
    let tuple2 = pair (int_range 0 4) (int_range 0 4) in
    map
      (fun rows ->
         List.fold_left
           (fun inst (a, b) -> Instance.add_fact "R" [ v_int a; v_int b ] inst)
           Instance.empty rows)
      (list_size (int_range 1 8) tuple2))

(* A small pool of unary-head queries over binary R. *)
let query_pool =
  let x = Cq.Var "x" and y = Cq.Var "y" and z = Cq.Var "z" in
  [
    Cq.make ~head:[ x ] ~atoms:[ atom "R" [ x; y ] ] ();
    Cq.make ~head:[ x ] ~atoms:[ atom "R" [ x; y ]; atom "R" [ y; z ] ] ();
    Cq.make ~head:[ x ] ~atoms:[ atom "R" [ x; x ] ] ();
    Cq.make ~head:[ x ] ~atoms:[ atom "R" [ y; x ] ] ();
    Cq.make ~head:[ x ]
      ~atoms:[ atom "R" [ x; y ] ]
      ~comparisons:[ { Cq.subject = "x"; op = Cmp_op.Le; value = v_int 2 } ]
      ();
    Cq.make ~head:[ x ]
      ~atoms:[ atom "R" [ x; y ] ]
      ~comparisons:[ { Cq.subject = "y"; op = Cmp_op.Gt; value = v_int 1 } ]
      ();
  ]

let prop_containment_sound =
  QCheck2.Test.make ~name:"cq_in_cq sound on random instances" ~count:200
    QCheck2.Gen.(
      triple (int_range 0 (List.length query_pool - 1))
        (int_range 0 (List.length query_pool - 1))
        small_inst_gen)
    (fun (i, j, inst) ->
       let q1 = List.nth query_pool i and q2 = List.nth query_pool j in
       (not (Containment.cq_in_cq q1 q2))
       || Relation.subset (Cq.eval q1 inst) (Cq.eval q2 inst))

let prop_containment_reflexive =
  QCheck2.Test.make ~name:"cq_in_cq reflexive" ~count:50
    QCheck2.Gen.(int_range 0 (List.length query_pool - 1))
    (fun i ->
       let q = List.nth query_pool i in
       Containment.cq_in_cq q q)

(* ------------------------------------------------------------------ *)
(* API contracts not covered elsewhere                                 *)
(* ------------------------------------------------------------------ *)

let test_relation_set_algebra () =
  let r1 = rel_of [ [ v_int 1 ]; [ v_int 2 ]; [ v_int 3 ] ] in
  let r2 = rel_of [ [ v_int 2 ] ] in
  Alcotest.(check int) "diff" 2 (Relation.cardinal (Relation.diff r1 r2));
  Alcotest.(check bool) "subset" true (Relation.subset r2 r1);
  Alcotest.(check bool) "not subset" false (Relation.subset r1 r2);
  Alcotest.(check int) "remove" 2
    (Relation.cardinal (Relation.remove (Tuple.of_list [ v_int 1 ]) r1));
  Alcotest.(check bool) "exists" true
    (Relation.exists (fun t -> Value.equal (Tuple.get t 1) (v_int 3)) r1);
  Alcotest.(check bool) "for_all" false
    (Relation.for_all (fun t -> Value.equal (Tuple.get t 1) (v_int 3)) r1);
  Alcotest.check_raises "union arity mismatch"
    (Invalid_argument "Relation.union: arity mismatch")
    (fun () -> ignore (Relation.union r1 (Relation.empty ~arity:2)))

let test_instance_union_restrict () =
  let i1 = Instance.of_facts [ ("R", [ [ v_int 1 ] ]) ] in
  let i2 = Instance.of_facts [ ("R", [ [ v_int 2 ] ]); ("S", [ [ v_int 9 ] ]) ] in
  let u = Instance.union i1 i2 in
  Alcotest.(check int) "union facts" 3 (Instance.fact_count u);
  Alcotest.(check (list string)) "restrict" [ "S" ]
    (Instance.relation_names (Instance.restrict [ "S" ] u));
  Alcotest.(check bool) "mem_fact" true
    (Instance.mem_fact u "S" (Tuple.of_list [ v_int 9 ]));
  Alcotest.(check bool) "adom" true
    (Value_set.equal (Instance.adom u)
       (Value_set.of_list [ v_int 1; v_int 2; v_int 9 ]))

let test_ucq_api () =
  let q1 = Cq.make ~head:[ Cq.Var "x" ] ~atoms:[ atom "R" [ Cq.Var "x" ] ] () in
  let q2 = Cq.make ~head:[ Cq.Var "x" ] ~atoms:[ atom "S" [ Cq.Var "x" ] ] () in
  let u = Ucq.make [ q1; q2 ] in
  Alcotest.(check (list string)) "atoms_relations" [ "R"; "S" ]
    (Ucq.atoms_relations u);
  let renamed = Ucq.rename_apart ~suffix:"@1" u in
  Alcotest.(check bool) "rename keeps arity" true (Ucq.arity renamed = 1);
  Alcotest.check_raises "mixed arities"
    (Invalid_argument "Ucq.make: disjuncts of different arities")
    (fun () ->
       ignore
         (Ucq.make
            [ q1;
              Cq.make ~head:[ Cq.Var "x"; Cq.Var "y" ]
                ~atoms:[ atom "R" [ Cq.Var "x"; Cq.Var "y" ] ] () ]));
  let inst = Instance.of_facts [ ("R", [ [ v_int 1 ] ]); ("S", [ [ v_int 2 ] ]) ] in
  Alcotest.(check int) "union eval" 2 (Relation.cardinal (Ucq.eval u inst));
  Alcotest.(check bool) "holds" true (Ucq.holds u inst)

let test_view_accessors () =
  let views =
    View.make_exn
      [ reachable_def;
        { View.name = "Far";
          body =
            Ucq.of_cq
              (Cq.make
                 ~head:[ Cq.Var "x"; Cq.Var "y" ]
                 ~atoms:
                   [ atom "Reachable" [ Cq.Var "x"; Cq.Var "z" ];
                     atom "Reachable" [ Cq.Var "z"; Cq.Var "y" ] ]
                 ()) } ]
  in
  Alcotest.(check (list string)) "depends_on" [ "Reachable" ]
    (View.depends_on views "Far");
  Alcotest.(check bool) "is_view" true (View.is_view views "Far");
  Alcotest.(check bool) "not linear (two view atoms)" false
    (View.is_linear views);
  Alcotest.(check bool) "has comparisons" false (View.has_comparisons views)

let test_cq_substitute_var_transfer () =
  (* Substituting a compared variable by another variable transfers the
     comparison. *)
  let q =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ atom "R" [ Cq.Var "x"; Cq.Var "y" ] ]
      ~comparisons:[ { Cq.subject = "y"; op = Cmp_op.Lt; value = v_int 5 } ]
      ()
  in
  let q' = Cq.substitute [ ("y", Cq.Var "w") ] q in
  Alcotest.(check bool) "comparison moved to w" true
    (List.exists
       (fun (c : Cq.comparison) -> String.equal c.Cq.subject "w")
       q'.Cq.comparisons);
  (* rename_apart renames everything consistently. *)
  let r = Cq.rename_apart ~suffix:"#9" q in
  Alcotest.(check bool) "renamed comparison" true
    (List.exists
       (fun (c : Cq.comparison) -> String.equal c.Cq.subject "y#9")
       r.Cq.comparisons)

(* ------------------------------------------------------------------ *)
(* Provenance                                                         *)
(* ------------------------------------------------------------------ *)

let test_provenance_witnesses () =
  (* Why is (Amsterdam, Rome) an answer of the two-hop query? *)
  let answer = Tuple.of_list [ v_str "Amsterdam"; v_str "Rome" ] in
  let ws = Provenance.witnesses two_hop train_inst answer in
  Alcotest.(check int) "one witness" 1 (List.length ws);
  (match ws with
   | [ w ] ->
     Alcotest.(check bool) "via Berlin" true
       (List.assoc_opt "z" w.Provenance.binding = Some (v_str "Berlin"));
     Alcotest.(check int) "two facts" 2 (List.length w.Provenance.facts)
   | _ -> ());
  (* Non-answers have no witnesses. *)
  Alcotest.(check int) "no witness for non-answer" 0
    (List.length
       (Provenance.witnesses two_hop train_inst
          (Tuple.of_list [ v_str "Amsterdam"; v_str "New York" ])));
  (* Repeated head variables must be respected. *)
  let diag =
    Cq.make ~head:[ Cq.Var "x"; Cq.Var "x" ]
      ~atoms:[ { Cq.rel = "TC"; args = [ Cq.Var "x"; Cq.Var "y" ] } ]
      ()
  in
  Alcotest.(check int) "diagonal mismatch rejected" 0
    (List.length
       (Provenance.witnesses diag train_inst
          (Tuple.of_list [ v_str "Amsterdam"; v_str "Berlin" ])))

let test_provenance_derivations () =
  let views = View.make_exn [ big_city_def; reachable_def ] in
  (* (Amsterdam, Rome) in Reachable derives via the two-hop disjunct. *)
  let ds =
    Provenance.derive views cities_inst "Reachable"
      (Tuple.of_list [ v_str "Amsterdam"; v_str "Rome" ])
  in
  Alcotest.(check int) "one derivation" 1 (List.length ds);
  (match ds with
   | [ Provenance.Rule { view; disjunct; premises; _ } ] ->
     Alcotest.(check string) "view" "Reachable" view;
     Alcotest.(check int) "second disjunct" 1 disjunct;
     Alcotest.(check int) "two premises" 2 (List.length premises)
   | _ -> Alcotest.fail "rule derivation expected");
  (* Leaves are base facts. *)
  (match Provenance.derive_one views cities_inst "Reachable"
           (Tuple.of_list [ v_str "Amsterdam"; v_str "Rome" ])
   with
   | Some d ->
     let ls = Provenance.leaves d in
     Alcotest.(check int) "two base facts" 2 (List.length ls);
     Alcotest.(check bool) "all in TC" true
       (List.for_all (fun (rel, _) -> String.equal rel "TC") ls)
   | None -> Alcotest.fail "derivation expected");
  (* A base-relation tuple derives as a Fact. *)
  (match Provenance.derive views cities_inst "TC"
           (Tuple.of_list [ v_str "Amsterdam"; v_str "Berlin" ])
   with
   | [ Provenance.Fact ("TC", _) ] -> ()
   | _ -> Alcotest.fail "fact expected");
  (* Underivable tuples yield nothing. *)
  Alcotest.(check int) "underivable" 0
    (List.length
       (Provenance.derive views cities_inst "BigCity"
          (Tuple.of_list [ v_str "Amsterdam" ])))

(* ------------------------------------------------------------------ *)

let prop_between_ordered =
  QCheck2.Test.make ~name:"between lies strictly between" ~count:500
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (a, b) ->
       match Value.between a b with
       | None -> true
       | Some m ->
         let lo, hi = if Value.compare a b <= 0 then (a, b) else (b, a) in
         Value.compare lo m < 0 && Value.compare m hi < 0)

let prop_interval_conditions_roundtrip =
  QCheck2.Test.make ~name:"to_conditions round-trips the interval" ~count:500
    QCheck2.Gen.(triple cond_gen cond_gen value_gen)
    (fun ((op1, c1), (op2, c2), v) ->
       let i = Interval.meet (itv op1 c1) (itv op2 c2) in
       if Interval.is_empty i then true
       else
         let back =
           List.fold_left
             (fun acc (op, c) -> Interval.meet acc (Interval.of_condition op c))
             Interval.top (Interval.to_conditions i)
         in
         Interval.mem v i = Interval.mem v back)

let prop_sample_in_interval =
  QCheck2.Test.make ~name:"sample lies in its interval" ~count:500
    QCheck2.Gen.(pair cond_gen cond_gen)
    (fun ((op1, c1), (op2, c2)) ->
       let i = Interval.meet (itv op1 c1) (itv op2 c2) in
       match Interval.sample i with
       | None -> Interval.is_empty i
       | Some v -> Interval.mem v i)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_meet_is_conjunction;
      prop_subset_sound;
      prop_between_ordered;
      prop_interval_conditions_roundtrip;
      prop_sample_in_interval;
      prop_containment_sound;
      prop_containment_reflexive;
    ]

let () =
  Alcotest.run "relational"
    [
      ( "value",
        [
          Alcotest.test_case "order" `Quick test_value_order;
          Alcotest.test_case "between" `Quick test_value_between;
          Alcotest.test_case "below/above" `Quick test_value_below_above;
          Alcotest.test_case "of_string" `Quick test_value_roundtrip;
          Alcotest.test_case "Sorted.index" `Quick test_sorted_index;
        ] );
      ( "interval",
        [
          Alcotest.test_case "meet/mem" `Quick test_interval_meet_mem;
          Alcotest.test_case "empty" `Quick test_interval_empty;
          Alcotest.test_case "subset" `Quick test_interval_subset;
          Alcotest.test_case "point/sample" `Quick test_interval_point_sample;
        ] );
      ( "tuple-relation",
        [
          Alcotest.test_case "proj/get" `Quick test_tuple_proj;
          Alcotest.test_case "relation ops" `Quick test_relation_ops;
          Alcotest.test_case "arity guard" `Quick test_relation_arity_guard;
          Alcotest.test_case "bulk constructors" `Quick test_relation_bulk;
        ] );
      ( "fd",
        [
          Alcotest.test_case "satisfaction" `Quick test_fd;
          Alcotest.test_case "closure/implies" `Quick test_fd_closure_implies;
        ] );
      ( "ind",
        [
          Alcotest.test_case "satisfaction" `Quick test_ind;
          Alcotest.test_case "reachability" `Quick test_ind_reachability;
        ] );
      ( "cq",
        [
          Alcotest.test_case "two-hop (Ex 3.4)" `Quick test_cq_eval_two_hop;
          Alcotest.test_case "constants+comparisons" `Quick test_cq_eval_constants_and_comparisons;
          Alcotest.test_case "boolean" `Quick test_cq_boolean;
          Alcotest.test_case "substitute" `Quick test_cq_substitute;
          Alcotest.test_case "safety" `Quick test_cq_safety;
        ] );
      ( "view",
        [
          Alcotest.test_case "materialise (Fig 2)" `Quick test_view_materialise;
          Alcotest.test_case "nested" `Quick test_view_nested;
          Alcotest.test_case "cycle rejected" `Quick test_view_cycle_rejected;
          Alcotest.test_case "unfold" `Quick test_view_unfold;
          Alcotest.test_case "unfold w/ constant head" `Quick test_view_unfold_constant_head;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basics (Fig 1)" `Quick test_schema_basics;
          Alcotest.test_case "satisfies (Fig 1+2)" `Quick test_schema_satisfies;
          Alcotest.test_case "rejects bad" `Quick test_schema_rejects_bad;
        ] );
      ( "api-contracts",
        [
          Alcotest.test_case "relation set algebra" `Quick test_relation_set_algebra;
          Alcotest.test_case "instance union/restrict" `Quick test_instance_union_restrict;
          Alcotest.test_case "ucq" `Quick test_ucq_api;
          Alcotest.test_case "view accessors" `Quick test_view_accessors;
          Alcotest.test_case "cq substitute/rename" `Quick test_cq_substitute_var_transfer;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "witnesses" `Quick test_provenance_witnesses;
          Alcotest.test_case "derivations" `Quick test_provenance_derivations;
        ] );
      ( "containment",
        [
          Alcotest.test_case "no comparisons" `Quick test_containment_no_comparisons;
          Alcotest.test_case "with comparisons" `Quick test_containment_with_comparisons;
          Alcotest.test_case "union split" `Quick test_containment_union_split;
          Alcotest.test_case "constants" `Quick test_containment_constants;
          Alcotest.test_case "unsat lhs" `Quick test_containment_unsat_lhs;
        ] );
      ("properties", qcheck_cases);
    ]
