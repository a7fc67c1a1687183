(* Tests for the concept language L_S: semantics (Figure 5), subsumption
   w.r.t. instance and schema (Example 4.9, Table 1 classes), least upper
   bounds (Lemmas 5.1/5.2), irredundancy (Prop 6.2) and counting
   (Prop 4.2). *)

open Whynot_relational
open Whynot_concept

let v_str = Value.str
let v_int = Value.int

let cities_schema = Whynot_workload.Cities.schema
let cities = Whynot_workload.Cities.instance
let cities_h = Subsume_memo.inst cities

let proj ?sels rel attr = Ls.proj ?sels ~rel ~attr ()
let sel attr op value = { Ls.attr; op; value }

(* The concepts of Figure 5. *)
let c_city = proj "Cities" 1
let c_european = proj "Cities" 1 ~sels:[ sel 4 Cmp_op.Eq (v_str "Europe") ]
let c_namerican = proj "Cities" 1 ~sels:[ sel 4 Cmp_op.Eq (v_str "N.America") ]
let c_large = proj "Cities" 1 ~sels:[ sel 2 Cmp_op.Gt (v_int 1000000) ]
let c_bigcity = proj "BigCity" 1
let c_santa_cruz = Ls.nominal (v_str "Santa Cruz")
let c_small_reachable_from_a =
  Ls.meet
    (proj "Cities" 1 ~sels:[ sel 2 Cmp_op.Lt (v_int 1000000) ])
    (proj "Reachable" 2 ~sels:[ sel 1 Cmp_op.Eq (v_str "Amsterdam") ])

let ext c = Semantics.extension c cities

let check_ext msg c expected =
  match ext c with
  | Semantics.All -> Alcotest.fail (msg ^ ": unexpected top extension")
  | Semantics.Fin s ->
    Alcotest.(check bool)
      (Printf.sprintf "%s = %s" msg (Format.asprintf "%a" Value_set.pp s))
      true
      (Value_set.equal s (Value_set.of_strings expected))

let test_figure5_extensions () =
  check_ext "City" c_city
    [ "Amsterdam"; "Berlin"; "Rome"; "New York"; "San Francisco"; "Santa Cruz";
      "Tokyo"; "Kyoto" ];
  check_ext "European City" c_european [ "Amsterdam"; "Berlin"; "Rome" ];
  check_ext "N.American City" c_namerican
    [ "New York"; "San Francisco"; "Santa Cruz" ];
  check_ext "Large City" c_large
    [ "Berlin"; "Rome"; "New York"; "Tokyo"; "Kyoto" ];
  check_ext "BigCity" c_bigcity [ "New York"; "Tokyo" ];
  check_ext "Santa Cruz" c_santa_cruz [ "Santa Cruz" ];
  check_ext "small reachable from Amsterdam" c_small_reachable_from_a
    [ "Amsterdam" ]

let test_top_semantics () =
  Alcotest.(check bool) "top is All" true (ext Ls.top = Semantics.All);
  Alcotest.(check bool) "anything in top" true
    (Semantics.mem (v_str "whatever") Ls.top cities);
  Alcotest.(check bool) "top meets to finite" true
    (Semantics.ext_equal (ext (Ls.meet Ls.top c_bigcity)) (ext c_bigcity))

let test_normalisation () =
  (* Duplicate conjuncts and redundant selections collapse. *)
  let c1 = Ls.meet c_european c_european in
  Alcotest.(check int) "dedup" 1 (List.length (Ls.conjuncts c1));
  let narrowed =
    proj "Cities" 1
      ~sels:[ sel 2 Cmp_op.Ge (v_int 5); sel 2 Cmp_op.Ge (v_int 3) ]
  in
  let direct = proj "Cities" 1 ~sels:[ sel 2 Cmp_op.Ge (v_int 5) ] in
  Alcotest.(check bool) "selection intervals normalised" true
    (Ls.equal narrowed direct);
  Alcotest.(check bool) "fragments" true
    (Ls.is_selection_free (Ls.meet c_city c_santa_cruz)
     && (not (Ls.is_selection_free c_european))
     && Ls.is_intersection_free c_european
     && (not (Ls.is_intersection_free c_small_reachable_from_a))
     && Ls.is_minimal c_city)

(* ------------------------------------------------------------------ *)
(* Subsumption w.r.t. instance                                        *)
(* ------------------------------------------------------------------ *)

let test_subsume_inst () =
  Alcotest.(check bool) "european <=I city" true
    (Subsume_inst.subsumes cities c_european c_city);
  Alcotest.(check bool) "city not <=I european" false
    (Subsume_inst.subsumes cities c_city c_european);
  Alcotest.(check bool) "strict" true
    (Subsume_inst.strictly_subsumed cities c_european c_city);
  (* Example 4.9: E7 and E8 components are equivalent w.r.t. O_I:
     BigCity = population > 7,000,000 on this instance. *)
  let c_pop7m = proj "Cities" 1 ~sels:[ sel 2 Cmp_op.Gt (v_int 7000000) ] in
  Alcotest.(check bool) "BigCity =I pop>7M" true
    (Subsume_inst.equivalent cities c_bigcity c_pop7m);
  (* Reachable-from-Amsterdam <=I reachable-from-Berlin (both {A,B,R}). *)
  let from_a = proj "Reachable" 2 ~sels:[ sel 1 Cmp_op.Eq (v_str "Amsterdam") ] in
  let from_b = proj "Reachable" 2 ~sels:[ sel 1 Cmp_op.Eq (v_str "Berlin") ] in
  Alcotest.(check bool) "fromA <=I fromB" true
    (Subsume_inst.subsumes cities from_a from_b);
  (* top subsumes everything, nothing finite subsumes top. *)
  Alcotest.(check bool) "c <= top" true
    (Subsume_inst.subsumes cities c_city Ls.top);
  Alcotest.(check bool) "top not <= c" false
    (Subsume_inst.subsumes cities Ls.top c_city)

(* ------------------------------------------------------------------ *)
(* Subsumption w.r.t. schema (Example 4.9, Table 1)                   *)
(* ------------------------------------------------------------------ *)

let test_example_4_9_schema_subsumptions () =
  let sub = Subsume_schema.decide cities_schema in
  (* The four subsumptions stated in Example 4.9. *)
  Alcotest.(check bool) "european <=S city" true
    (sub c_european c_city = Subsume_schema.Subsumed);
  let c_pop7m = proj "Cities" 1 ~sels:[ sel 2 Cmp_op.Gt (v_int 7000000) ] in
  Alcotest.(check bool) "pop>7M <=S BigCity (view unfolding)" true
    (sub c_pop7m c_bigcity = Subsume_schema.Subsumed);
  Alcotest.(check bool) "BigCity <=S city (view unfolding)" true
    (sub c_bigcity c_city = Subsume_schema.Subsumed);
  let c_tc_from = proj "Train-Connections" 1 in
  Alcotest.(check bool) "BigCity <=S TC[city_from] (IND)" true
    (sub c_bigcity c_tc_from = Subsume_schema.Subsumed);
  (* Holds w.r.t. O_I but NOT w.r.t. O_S (Example 4.9). *)
  let from_a = proj "Reachable" 2 ~sels:[ sel 1 Cmp_op.Eq (v_str "Amsterdam") ] in
  let from_b = proj "Reachable" 2 ~sels:[ sel 1 Cmp_op.Eq (v_str "Berlin") ] in
  Alcotest.(check bool) "fromA not <=S fromB (counter-model)" true
    (sub from_a from_b = Subsume_schema.Not_subsumed);
  (* "there might be an instance where Netherlands is not in Europe". *)
  let c_dutch = proj "Cities" 1 ~sels:[ sel 3 Cmp_op.Eq (v_str "Netherlands") ] in
  Alcotest.(check bool) "dutch not <=S european" true
    (sub c_dutch c_european = Subsume_schema.Not_subsumed);
  (* BigCity not <=S pop>7M: needs the IND chase (BigCity -> TC -> Cities). *)
  let c_pop7m' = proj "Cities" 1 ~sels:[ sel 2 Cmp_op.Gt (v_int 7000000) ] in
  Alcotest.(check bool) "BigCity not <=S pop>7M" true
    (sub c_bigcity c_pop7m' = Subsume_schema.Not_subsumed)

let test_schema_subsumption_no_constraints () =
  let bare =
    Schema.make_exn
      [ { Schema.name = "R"; attrs = [ "a"; "b" ] };
        { Schema.name = "S"; attrs = [ "a" ] } ]
  in
  Alcotest.(check bool) "class" true
    (Subsume_schema.classify bare = Subsume_schema.No_constraints);
  let r1 = proj "R" 1 and r1_sel = proj "R" 1 ~sels:[ sel 2 Cmp_op.Lt (v_int 3) ] in
  Alcotest.(check bool) "sel <= plain" true
    (Subsume_schema.subsumes bare r1_sel r1);
  Alcotest.(check bool) "plain not <= sel" true
    (Subsume_schema.refutes bare r1 r1_sel);
  Alcotest.(check bool) "R1 not <= S1" true
    (Subsume_schema.refutes bare r1 (proj "S" 1));
  (* Condition implication on the projected attribute. *)
  let lt3 = proj "R" 1 ~sels:[ sel 1 Cmp_op.Lt (v_int 3) ] in
  let le3 = proj "R" 1 ~sels:[ sel 1 Cmp_op.Le (v_int 3) ] in
  Alcotest.(check bool) "<3 <= <=3" true (Subsume_schema.subsumes bare lt3 le3);
  Alcotest.(check bool) "<=3 not <= <3" true (Subsume_schema.refutes bare le3 lt3);
  (* Nominals: {c} <= {c}, {c} not <= projections, meets with nominal. *)
  let n5 = Ls.nominal (v_int 5) in
  Alcotest.(check bool) "{5} <= {5}" true (Subsume_schema.subsumes bare n5 n5);
  Alcotest.(check bool) "{5} not <= R1" true (Subsume_schema.refutes bare n5 r1);
  Alcotest.(check bool) "{5} n {6} unsat => subsumed by anything" true
    (Subsume_schema.subsumes bare
       (Ls.meet n5 (Ls.nominal (v_int 6)))
       (proj "S" 1));
  Alcotest.(check bool) "R1 n {5} <= {5}" true
    (Subsume_schema.subsumes bare (Ls.meet r1 n5) n5);
  Alcotest.(check bool) "R1 sel=5 on proj attr <= {5}" true
    (Subsume_schema.subsumes bare
       (proj "R" 1 ~sels:[ sel 1 Cmp_op.Eq (v_int 5) ])
       n5);
  Alcotest.(check bool) "everything <= top" true
    (Subsume_schema.subsumes bare r1 Ls.top)

let test_schema_subsumption_fds () =
  (* R(a, b) with FD a -> b: selecting a = 5 determines b, so
     pi_b(sigma_{a=5, b>=0}(R))'s interplay is unaffected, but e.g.
     pi_a(sigma_{a=5}(R)) <= {5} holds regardless. A genuinely FD-powered
     subsumption: pi_b(sigma_{a=5}(R)) has at most one element... we test
     that the FD filter discards canonical instances violating the FD:
     pi_1(sigma_{2>=3}(R)) n pi_1(sigma_{2<=1}(R)) is unsatisfiable under
     FD 1->2 (same a would need two b's), hence subsumed by anything. *)
  let fd_schema =
    Schema.make_exn
      ~fds:[ Fd.make ~rel:"R" ~lhs:[ 1 ] ~rhs:[ 2 ] ]
      [ { Schema.name = "R"; attrs = [ "a"; "b" ] };
        { Schema.name = "S"; attrs = [ "a" ] } ]
  in
  Alcotest.(check bool) "class" true
    (Subsume_schema.classify fd_schema = Subsume_schema.Fds_only);
  let hi = proj "R" 1 ~sels:[ sel 2 Cmp_op.Ge (v_int 3) ] in
  let lo = proj "R" 1 ~sels:[ sel 2 Cmp_op.Le (v_int 1) ] in
  Alcotest.(check bool) "contradictory-under-FD meet subsumed by S" true
    (Subsume_schema.subsumes fd_schema (Ls.meet hi lo) (proj "S" 1));
  (* Without the FD the same meet is satisfiable (two tuples) and not
     subsumed. *)
  let no_fd =
    Schema.make_exn
      [ { Schema.name = "R"; attrs = [ "a"; "b" ] };
        { Schema.name = "S"; attrs = [ "a" ] } ]
  in
  Alcotest.(check bool) "without FD not subsumed" true
    (Subsume_schema.refutes no_fd (Ls.meet hi lo) (proj "S" 1));
  (* FDs do not create spurious subsumptions. *)
  Alcotest.(check bool) "R1 not <= S1 under FD" true
    (Subsume_schema.refutes fd_schema (proj "R" 1) (proj "S" 1))

let test_schema_subsumption_inds () =
  let ind_schema =
    Schema.make_exn
      ~inds:
        [ Ind.make ~lhs_rel:"R" ~lhs_attrs:[ 1 ] ~rhs_rel:"S" ~rhs_attrs:[ 2 ];
          Ind.make ~lhs_rel:"S" ~lhs_attrs:[ 2 ] ~rhs_rel:"T" ~rhs_attrs:[ 1 ] ]
      [ { Schema.name = "R"; attrs = [ "a"; "b" ] };
        { Schema.name = "S"; attrs = [ "a"; "b" ] };
        { Schema.name = "T"; attrs = [ "a" ] } ]
  in
  Alcotest.(check bool) "class" true
    (Subsume_schema.classify ind_schema = Subsume_schema.Inds_only);
  Alcotest.(check bool) "R1 <= S2 (direct IND)" true
    (Subsume_schema.subsumes ind_schema (proj "R" 1) (proj "S" 2));
  Alcotest.(check bool) "R1 <= T1 (transitive)" true
    (Subsume_schema.subsumes ind_schema (proj "R" 1) (proj "T" 1));
  Alcotest.(check bool) "S1 not <= T1" true
    (Subsume_schema.refutes ind_schema (proj "S" 1) (proj "T" 1));
  (* With a selection on the left: still sound (sel shrinks the lhs). *)
  Alcotest.(check bool) "sel(R)1 <= S2" true
    (Subsume_schema.subsumes ind_schema
       (proj "R" 1 ~sels:[ sel 2 Cmp_op.Gt (v_int 0) ])
       (proj "S" 2));
  (* With a selection on the right: cannot conclude; counter-model search
     should refute. *)
  Alcotest.(check bool) "R1 vs sel(S)2 refuted" true
    (Subsume_schema.refutes ind_schema (proj "R" 1)
       (proj "S" 2 ~sels:[ sel 1 Cmp_op.Eq (v_int 0) ]))

(* ------------------------------------------------------------------ *)
(* lub (Lemmas 5.1, 5.2)                                              *)
(* ------------------------------------------------------------------ *)

let test_lub_basic () =
  let x = Value_set.of_strings [ "New York"; "Tokyo" ] in
  let l = Lub.lub cities_h x in
  (match Semantics.extension l cities with
   | Semantics.All -> Alcotest.fail "lub should be finite here"
   | Semantics.Fin s ->
     Alcotest.(check bool) "X within lub" true (Value_set.subset x s));
  Alcotest.(check bool) "BigCity conjunct found" true
    (List.mem (Ls.Proj { rel = "BigCity"; attr = 1; sels = [] })
       (Ls.conjuncts l));
  Alcotest.(check bool) "selection-free" true (Ls.is_selection_free l);
  (* Singleton: the nominal makes the lub exactly the singleton. *)
  let la = Lub.lub cities_h (Value_set.singleton (v_str "Amsterdam")) in
  Alcotest.(check bool) "singleton lub = {Amsterdam}" true
    (Semantics.ext_equal (Semantics.extension la cities)
       (Semantics.Fin (Value_set.of_strings [ "Amsterdam" ])));
  (* A constant outside the active domain: only the nominal (and top). *)
  let lout = Lub.lub cities_h (Value_set.singleton (v_str "Paris")) in
  Alcotest.(check bool) "out-of-adom lub is nominal" true
    (Ls.equal lout (Ls.nominal (v_str "Paris")))

let test_lub_minimality () =
  (* Lemma 5.1(2): no selection-free concept with extension containing X is
     strictly below the lub. Check against every atomic candidate. *)
  let x = Value_set.of_strings [ "Amsterdam"; "Berlin" ] in
  let l = Lub.lub cities_h x in
  let lub_ext = Semantics.extension l cities in
  List.iter
    (fun name ->
       match Instance.relation cities name with
       | None -> ()
       | Some r ->
         for attr = 1 to Relation.arity r do
           let c = proj name attr in
           let c_ext = Semantics.extension c cities in
           if Value_set.subset x (match c_ext with
               | Semantics.Fin s -> s
               | Semantics.All -> Value_set.empty)
           then
             Alcotest.(check bool)
               (Printf.sprintf "lub <= pi_%d(%s)" attr name)
               true
               (Semantics.ext_subset lub_ext c_ext)
         done)
    (Instance.relation_names cities)

let test_lub_sigma () =
  let x = Value_set.of_strings [ "New York"; "Tokyo" ] in
  let l = Lub.lub_sigma cities_h x in
  (match Semantics.extension l cities with
   | Semantics.All -> Alcotest.fail "lub_sigma should be finite"
   | Semantics.Fin s ->
     Alcotest.(check bool) "X within lub_sigma" true (Value_set.subset x s);
     (* With selections we can carve out exactly the big cities:
        population >= 8,337,000 covers NY and Tokyo only. *)
     Alcotest.(check bool) "lub_sigma is exactly {NY, Tokyo}" true
       (Value_set.equal s x));
  (* lub_sigma is at least as specific as lub. *)
  let plain = Lub.lub cities_h x in
  Alcotest.(check bool) "lub_sigma <= lub" true
    (Subsume_inst.subsumes cities l plain)

let test_lub_sigma_candidates () =
  let x = Value_set.of_strings [ "Berlin" ] in
  let cands =
    Lub.atomic_selection_candidates cities_h ~rel:"Cities" ~attr:1 x
  in
  Alcotest.(check bool) "some candidate" true (cands <> []);
  List.iter
    (fun c ->
       let cext = Semantics.conjunct_ext c (Subsume_memo.index cities_h) in
       Alcotest.(check bool) "candidate contains X" true
         (Value_set.for_all (fun v -> Semantics.ext_mem v cext) x))
    cands

(* The witness-box loop checks the handle's deadline per constant, not
   only at the memoised [lub_sigma] entry or when it evaluates the final
   boxes: here no box survives ("Atlantis" has no witness), so only the
   loop's own check can trip. *)
let test_lub_sigma_candidates_deadline () =
  let h = Subsume_memo.inst cities in
  Subsume_memo.set_inst_deadline h (Some (Whynot_obs.Obs.now_s () -. 1.));
  Alcotest.check_raises "expired deadline trips the box loop"
    Subsume_memo.Deadline_exceeded (fun () ->
      ignore
        (Lub.atomic_selection_candidates h ~rel:"Cities" ~attr:1
           (Value_set.of_strings [ "Atlantis"; "Berlin" ])))

(* qcheck: lub properties on random instances. *)
let random_instance_gen =
  QCheck2.Gen.(
    let row = pair (int_range 0 5) (int_range 0 5) in
    map
      (fun (rows_r, rows_s) ->
         let add rel inst (a, b) =
           Instance.add_fact rel [ v_int a; v_int b ] inst
         in
         let inst = List.fold_left (add "R") Instance.empty rows_r in
         List.fold_left (add "S") inst rows_s)
      (pair (list_size (int_range 1 6) row) (list_size (int_range 0 4) row)))

let subset_gen inst =
  let adom = Value_set.elements (Instance.adom inst) in
  QCheck2.Gen.(
    map
      (fun idxs ->
         Value_set.of_list
           (List.filteri (fun i _ -> List.mem i idxs) adom))
      (list_size (int_range 1 3) (int_range 0 (max 0 (List.length adom - 1)))))

let prop_lub_contains =
  QCheck2.Test.make ~name:"lub contains X, lub_sigma <= lub" ~count:100
    QCheck2.Gen.(random_instance_gen >>= fun inst ->
                 map (fun x -> (inst, x)) (subset_gen inst))
    (fun (inst, x) ->
       Value_set.is_empty x
       ||
       let h = Subsume_memo.inst inst in
       let l = Lub.lub h x in
       let ls = Lub.lub_sigma h x in
       Value_set.for_all (fun v -> Semantics.mem v l inst) x
       && Value_set.for_all (fun v -> Semantics.mem v ls inst) x
       && Subsume_inst.subsumes inst ls l)

let prop_lub_sigma_minimal =
  QCheck2.Test.make
    ~name:"lub_sigma minimal vs random atomic selection concepts" ~count:100
    QCheck2.Gen.(
      random_instance_gen >>= fun inst ->
      map2 (fun x (a, b) -> (inst, x, a, b)) (subset_gen inst)
        (pair (int_range 0 4) (int_range 0 4)))
    (fun (inst, x, a, b) ->
       Value_set.is_empty x
       ||
       let ls = Lub.lub_sigma (Subsume_memo.inst inst) x in
       let lse = Semantics.extension ls inst in
       (* Random atomic concept with a selection interval [a..b] on attr 2. *)
       let c =
         proj "R" 1
           ~sels:[ sel 2 Cmp_op.Ge (v_int (min a b)); sel 2 Cmp_op.Le (v_int (max a b)) ]
       in
       let cext = Semantics.extension c inst in
       (not (Value_set.for_all (fun v -> Semantics.ext_mem v cext) x))
       || Semantics.ext_subset lse cext)

(* Thirty-six binary relations give 72 positions: a position mask takes
   two words. P01-P30 hold every constant in both columns, so only the
   query's P00 and the random P31-P35, whose positions are bits 62-71,
   tell constants apart. Selection-free Algorithm 2 (both orders, with
   and without shortening, and its attempt trace) and CHECK-MGE on masks
   must still give what the column-scan oracle gives. *)
let test_lub_wide_masks () =
  let module Incremental = Whynot_core.Incremental in
  let module Oracle = Whynot_proptest.Oracle in
  let rng = Random.State.make [| 62 |] in
  let random_facts k n inst =
    List.fold_left
      (fun inst _ ->
         Instance.add_fact (Printf.sprintf "P%02d" k)
           [ v_int (Random.State.int rng 10); v_int (Random.State.int rng 10) ]
           inst)
      inst (List.init n Fun.id)
  in
  let diagonal k inst =
    List.fold_left
      (fun inst v ->
         Instance.add_fact (Printf.sprintf "P%02d" k) [ v_int v; v_int v ] inst)
      inst (List.init 10 Fun.id)
  in
  let inst =
    List.fold_left
      (fun inst k ->
         if k = 0 then random_facts k 14 inst
         else if k <= 30 then diagonal k inst
         else random_facts k 5 inst)
      Instance.empty (List.init 36 Fun.id)
  in
  let h = Subsume_memo.inst inst in
  Alcotest.(check int) "positions" 72
    (Array.length (Subsume_memo.positions h));
  let query =
    Cq.make
      ~head:[ Cq.Var "x"; Cq.Var "y" ]
      ~atoms:
        [
          { Cq.rel = "P00"; args = [ Cq.Var "x"; Cq.Var "z" ] };
          { Cq.rel = "P00"; args = [ Cq.Var "z"; Cq.Var "y" ] };
        ]
      ()
  in
  let answers = Cq.eval query inst in
  let missing =
    List.concat_map (fun a -> List.map (fun b -> [ v_int a; v_int b ])
                        (List.init 10 Fun.id)) (List.init 10 Fun.id)
    |> List.filter (fun m -> not (Relation.mem (Tuple.of_list m) answers))
    |> List.filteri (fun k _ -> k mod 16 = 0)
  in
  let same = List.equal Ls.equal in
  List.iter
    (fun m ->
       let wn = Whynot_core.Whynot.make_exn ~instance:inst ~query ~missing:m () in
       List.iter
         (fun order ->
            List.iter
              (fun shorten ->
                 Alcotest.(check bool) "one_mge = oracle" true
                   (same
                      (Incremental.one_mge ~handle:h ~order ~shorten wn)
                      (fst (Oracle.lub_one_mge_with_trace ~order ~shorten wn))))
              [ true; false ];
            let e, trace = Incremental.one_mge_with_trace ~order wn in
            let e', trace' =
              Oracle.lub_one_mge_with_trace ~order ~shorten:false wn
            in
            Alcotest.(check bool) "traced one_mge = oracle" true (same e e');
            Alcotest.(check bool) "trace = oracle" true
              (List.equal
                 (fun (j, b, a) (j', b', a') ->
                    j = j' && Value.equal b b' && a = a')
                 trace trace'))
         [ `Ascending; `Descending ];
       let mge = Incremental.one_mge ~handle:h wn in
       let nominals = Incremental.trivial_explanation wn in
       List.iter
         (fun e ->
            Alcotest.(check bool) "check_mge = oracle"
              (Oracle.lub_check_mge wn e)
              (Incremental.check_mge ~handle:h wn e))
         (mge :: nominals :: List.map (fun _ -> Ls.top) mge
          :: List.mapi
               (fun j a -> List.mapi (fun i c -> if i = j then a else c) mge)
               nominals))
    missing;
  Alcotest.(check int) "questions" 5 (List.length missing)

(* ------------------------------------------------------------------ *)
(* Irredundancy (Prop 6.2)                                            *)
(* ------------------------------------------------------------------ *)

let test_irredundant () =
  (* pi_name(Cities) is redundant next to the european selection. *)
  let c = Ls.meet c_european c_city in
  let m = Irredundant.minimise cities_h c in
  Alcotest.(check bool) "equivalent" true (Subsume_inst.equivalent cities c m);
  Alcotest.(check bool) "irredundant" true (Irredundant.is_irredundant cities_h m);
  Alcotest.(check int) "one conjunct left" 1 (List.length (Ls.conjuncts m));
  Alcotest.(check bool) "original redundant" false
    (Irredundant.is_irredundant cities_h c)

let prop_minimise_sound =
  QCheck2.Test.make ~name:"minimise preserves extension & is irredundant"
    ~count:100
    QCheck2.Gen.(
      random_instance_gen >>= fun inst ->
      map (fun x -> (inst, x)) (subset_gen inst))
    (fun (inst, x) ->
       Value_set.is_empty x
       ||
       let h = Subsume_memo.inst inst in
       let c = Lub.lub h x in
       let m = Irredundant.minimise h c in
       Subsume_inst.equivalent inst c m && Irredundant.is_irredundant h m)

(* ------------------------------------------------------------------ *)
(* Counting (Prop 4.2)                                                *)
(* ------------------------------------------------------------------ *)

let test_counting () =
  let s = cities_schema in
  (* 13 positions: Cities(4) + TC(2) + BigCity(1) + EuropeanCountry(1) +
     Reachable(2) = 10... recount: 4+2+1+1+2 = 10. *)
  Alcotest.(check int) "positions" 10 (List.length (Schema.positions s));
  Alcotest.(check int) "minimal count" (1 + 5 + 10) (Count.count_minimal s ~k:5);
  Alcotest.(check bool) "selection-free = 2^10 * 6 + 1" true
    (Count.count_selection_free s ~k:5 = (1024. *. 6.) +. 1.);
  Alcotest.(check bool) "growth: min < sel-free < full" true
    (float_of_int (Count.count_minimal s ~k:5)
     < Count.count_selection_free s ~k:5
     && Count.count_selection_free s ~k:5 < Count.count_full s ~k:5);
  (* Doubling K squares-ish the full count but only linearly affects the
     minimal one. *)
  let m1 = Count.count_minimal s ~k:2 and m2 = Count.count_minimal s ~k:4 in
  Alcotest.(check bool) "minimal linear in k" true (m2 - m1 = 2)

let test_enumerate_selection_free () =
  let inst =
    Instance.of_facts [ ("R", [ [ v_int 1; v_int 2 ] ]) ]
  in
  let k = Value_set.of_list [ v_int 1; v_int 2 ] in
  let all = Count.enumerate_selection_free inst k in
  (* 2 positions, 2 nominal options + none: 4 * 3 = 12 concepts. *)
  Alcotest.(check int) "enumeration size" 12 (List.length all);
  let distinct = List.sort_uniq Ls.compare all in
  Alcotest.(check int) "all distinct" 12 (List.length distinct)

(* ------------------------------------------------------------------ *)
(* Soundness of the schema-level deciders on random legal instances    *)
(* ------------------------------------------------------------------ *)

(* Random instances satisfying FD 1->2 on R: at most one b per a. *)
let fd_instance_gen =
  QCheck2.Gen.(
    map
      (fun pairs ->
         List.fold_left
           (fun inst (a, b) ->
              let r = Instance.relation_or_empty inst ~arity:2 "R0" in
              if Value_set.mem (v_int a) (Relation.column 1 r) then inst
              else Instance.add_fact "R0" [ v_int a; v_int b ] inst)
           Instance.empty pairs)
      (list_size (int_range 1 6) (pair (int_range 0 4) (int_range 0 4))))

let prop_fd_decider_sound =
  QCheck2.Test.make ~name:"FD decider sound on random legal instances"
    ~count:100
    QCheck2.Gen.(triple (int_range 0 200) (int_range 0 200) fd_instance_gen)
    (fun (s1, s2, inst) ->
       let schema = Whynot_workload.Generate.fd_schema ~positions:2 in
       let c1 =
         Whynot_workload.Generate.random_selection_concept ~seed:s1 schema
           ~conjuncts:1 ()
       in
       let c2 =
         Whynot_workload.Generate.random_selection_concept ~seed:s2 schema
           ~conjuncts:1 ()
       in
       match Subsume_schema.decide schema c1 c2 with
       | Subsume_schema.Subsumed -> Subsume_inst.subsumes inst c1 c2
       | Subsume_schema.Not_subsumed | Subsume_schema.Unknown -> true)

let prop_ind_decider_sound =
  QCheck2.Test.make ~name:"IND decider sound on chased instances" ~count:60
    QCheck2.Gen.(pair (int_range 2 5) (list_size (int_range 1 4) (pair (int_range 0 3) (int_range 0 3))))
    (fun (n, rows) ->
       let schema = Whynot_workload.Generate.ind_chain_schema ~n_relations:n in
       (* Seed R0 and chase to a legal instance. *)
       let seed_inst =
         List.fold_left
           (fun inst (a, b) -> Instance.add_fact "R0" [ v_int a; v_int b ] inst)
           Instance.empty rows
       in
       match Subsume_schema.chase_to_legal_instance schema seed_inst with
       | None -> true (* chase gave up; nothing to check *)
       | Some inst ->
         let c1 = proj "R0" 1 and c2 = proj (Printf.sprintf "R%d" (n - 1)) 1 in
         (not (Subsume_schema.subsumes schema c1 c2))
         || Subsume_inst.subsumes inst c1 c2)

(* Internal consistency of the containment engine: when cq_in_ucq says NO,
   some canonical instantiation must be a concrete counterexample. *)
let prop_containment_refutation_witnessed =
  QCheck2.Test.make ~name:"containment refutations have witnesses" ~count:80
    QCheck2.Gen.(pair (int_range 0 500) (int_range 0 500))
    (fun (s1, s2) ->
       let schema = Whynot_workload.Generate.wide_schema ~positions:4 in
       let c1 =
         Whynot_workload.Generate.random_selection_concept ~seed:s1 schema
           ~conjuncts:1 ()
       in
       let c2 =
         Whynot_workload.Generate.random_selection_concept ~seed:s2 schema
           ~conjuncts:1 ()
       in
       let q1 = To_query.query schema c1 and q2 = To_query.query schema c2 in
       Whynot_relational.Containment.cq_in_cq q1 q2
       || List.exists
            (fun (inst, head) ->
               not
                 (Relation.mem head
                    (Cq.eval q2 inst)))
            (Whynot_relational.Containment.canonical_instantiations q1
               ~extra_constants:(Cq.constants q2)))

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_lub_contains;
      prop_lub_sigma_minimal;
      prop_minimise_sound;
      prop_fd_decider_sound;
      prop_ind_decider_sound;
      prop_containment_refutation_witnessed;
    ]

let () =
  Alcotest.run "concept"
    [
      ( "semantics",
        [
          Alcotest.test_case "figure 5 extensions" `Quick test_figure5_extensions;
          Alcotest.test_case "top" `Quick test_top_semantics;
          Alcotest.test_case "normalisation" `Quick test_normalisation;
        ] );
      ( "subsume-inst",
        [ Alcotest.test_case "basics + example 4.9" `Quick test_subsume_inst ] );
      ( "subsume-schema",
        [
          Alcotest.test_case "example 4.9" `Quick test_example_4_9_schema_subsumptions;
          Alcotest.test_case "no constraints" `Quick test_schema_subsumption_no_constraints;
          Alcotest.test_case "FDs" `Quick test_schema_subsumption_fds;
          Alcotest.test_case "INDs" `Quick test_schema_subsumption_inds;
        ] );
      ( "lub",
        [
          Alcotest.test_case "selection-free" `Quick test_lub_basic;
          Alcotest.test_case "minimality" `Quick test_lub_minimality;
          Alcotest.test_case "with selections" `Quick test_lub_sigma;
          Alcotest.test_case "candidates" `Quick test_lub_sigma_candidates;
          Alcotest.test_case "candidates check the deadline" `Quick
            test_lub_sigma_candidates_deadline;
          Alcotest.test_case "masks beyond one word" `Quick test_lub_wide_masks;
        ] );
      ( "irredundant",
        [ Alcotest.test_case "minimise" `Quick test_irredundant ] );
      ( "count",
        [
          Alcotest.test_case "formulas" `Quick test_counting;
          Alcotest.test_case "enumeration" `Quick test_enumerate_selection_free;
        ] );
      ("properties", qcheck_cases);
    ]
