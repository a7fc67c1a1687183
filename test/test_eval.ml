(* Edge cases of the planned/indexed CQ evaluation kernel: unsafe queries,
   constants in heads and atom positions, comparison-only queries, empty
   atom lists, repeated variables inside one atom, zero-arity relations,
   index ownership and reuse, and the satellite fixes (Tuple.append,
   Relation.product, Instance.restrict, Cq.freeze). Where it sharpens the
   check, the planned route is also pinned against the retained naive
   oracle on the same input. *)

open Whynot_relational
module Oracle = Whynot_proptest.Oracle
module Obs = Whynot_obs.Obs

let vi n = Value.Int n
let vs s = Value.Str s
let var v = Cq.Var v
let const v = Cq.Const v
let atom rel args = { Cq.rel; args }

let rel_t = Alcotest.testable Relation.pp Relation.equal

(* Answers must agree with the naive oracle *and* with the explicitly
   expected tuples. *)
let check_eval name q inst expected =
  let planned = Cq.eval q inst in
  Alcotest.check rel_t (name ^ ": planned vs expected") expected planned;
  Alcotest.check rel_t (name ^ ": planned vs naive")
    (Oracle.naive_eval q inst) planned;
  Alcotest.(check bool)
    (name ^ ": holds agrees") (not (Relation.is_empty planned))
    (Cq.holds q inst);
  Alcotest.(check bool)
    (name ^ ": naive holds agrees")
    (Cq.holds q inst) (Oracle.naive_holds q inst)

let inst_r =
  Instance.of_facts
    [ ("R", [ [ vi 1; vi 1 ]; [ vi 1; vi 2 ]; [ vi 2; vi 3 ] ]) ]

let rel_of ~arity rows = Relation.of_value_lists ~arity rows

(* --- unsafe queries --- *)

let test_unsafe_head () =
  (* y occurs in no atom: every binding projects to nothing. *)
  let q = Cq.make ~head:[ var "x"; var "y" ] ~atoms:[ atom "R" [ var "x"; var "x" ] ] () in
  check_eval "unsafe head" q inst_r (Relation.empty ~arity:2);
  Alcotest.(check (list (list (pair string (testable Value.pp Value.equal)))))
    "unsafe head assignments" [] (Cq.eval_assignments q inst_r)

let test_unsafe_comparison () =
  (* The compared variable never occurs in an atom: no binding survives. *)
  let q =
    Cq.make ~head:[ var "x" ]
      ~atoms:[ atom "R" [ var "x"; var "z" ] ]
      ~comparisons:[ { Cq.subject = "w"; op = Cmp_op.Eq; value = vi 1 } ]
      ()
  in
  check_eval "unsafe comparison" q inst_r (Relation.empty ~arity:1)

(* --- constants in heads and atom positions --- *)

let test_const_in_head () =
  let q =
    Cq.make
      ~head:[ const (vs "tag"); var "x" ]
      ~atoms:[ atom "R" [ var "x"; const (vi 3) ] ]
      ()
  in
  check_eval "constant head+atom" q inst_r
    (rel_of ~arity:2 [ [ vs "tag"; vi 2 ] ])

let test_const_only_head () =
  let q = Cq.make ~head:[ const (vi 7) ] ~atoms:[ atom "R" [ var "x"; var "y" ] ] () in
  check_eval "all-constant head" q inst_r (rel_of ~arity:1 [ [ vi 7 ] ])

let test_const_atom_no_match () =
  let q = Cq.make ~head:[ var "x" ] ~atoms:[ atom "R" [ var "x"; const (vi 99) ] ] () in
  check_eval "constant filters all" q inst_r (Relation.empty ~arity:1)

(* --- comparison-only and empty-atom queries --- *)

let test_comparison_only () =
  (* atoms = [], comparisons <> []: nothing binds the subject. *)
  let q =
    Cq.make ~head:[] ~atoms:[]
      ~comparisons:[ { Cq.subject = "x"; op = Cmp_op.Gt; value = vi 0 } ]
      ()
  in
  check_eval "comparison-only" q inst_r (Relation.empty ~arity:0)

let test_empty_query_boolean () =
  (* The trivially true Boolean query. *)
  let q = Cq.make ~head:[] ~atoms:[] () in
  check_eval "empty boolean" q inst_r (rel_of ~arity:0 [ [] ]);
  Alcotest.(check bool) "empty boolean holds" true (Cq.holds q inst_r);
  Alcotest.(check (list (list (pair string (testable Value.pp Value.equal)))))
    "empty boolean assignments" [ [] ] (Cq.eval_assignments q inst_r)

let test_empty_atoms_const_head () =
  let q = Cq.make ~head:[ const (vi 4); const (vs "a") ] ~atoms:[] () in
  check_eval "no atoms, constant head" q inst_r
    (rel_of ~arity:2 [ [ vi 4; vs "a" ] ])

let test_empty_atoms_var_head () =
  let q = Cq.make ~head:[ var "x" ] ~atoms:[] () in
  check_eval "no atoms, variable head" q inst_r (Relation.empty ~arity:1)

(* --- repeated variables inside one atom --- *)

let test_repeated_var_in_atom () =
  let q = Cq.make ~head:[ var "x" ] ~atoms:[ atom "R" [ var "x"; var "x" ] ] () in
  check_eval "diagonal" q inst_r (rel_of ~arity:1 [ [ vi 1 ] ])

let test_repeated_var_joined () =
  (* x repeats within the second atom *and* joins with the first. *)
  let q =
    Cq.make ~head:[ var "y" ]
      ~atoms:
        [ atom "R" [ var "y"; var "x" ]; atom "R" [ var "x"; var "x" ] ]
      ()
  in
  check_eval "diagonal join" q inst_r (rel_of ~arity:1 [ [ vi 1 ] ])

(* --- zero-arity relations --- *)

let test_zero_arity () =
  let nullary = rel_of ~arity:0 [ [] ] in
  let inst = Instance.add_relation "Z" nullary Instance.empty in
  let q = Cq.make ~head:[] ~atoms:[ atom "Z" [] ] () in
  check_eval "nullary present" q inst (rel_of ~arity:0 [ [] ]);
  let empty_inst = Instance.add_relation "Z" (Relation.empty ~arity:0) Instance.empty in
  check_eval "nullary empty" q empty_inst (Relation.empty ~arity:0);
  check_eval "nullary absent" q Instance.empty (Relation.empty ~arity:0)

(* --- comparisons pushed into the join --- *)

let test_comparison_pushdown () =
  let q =
    Cq.make ~head:[ var "x"; var "y" ]
      ~atoms:[ atom "R" [ var "x"; var "y" ] ]
      ~comparisons:
        [
          { Cq.subject = "y"; op = Cmp_op.Ge; value = vi 2 };
          { Cq.subject = "y"; op = Cmp_op.Lt; value = vi 3 };
        ]
      ()
  in
  check_eval "two comparisons, one subject" q inst_r
    (rel_of ~arity:2 [ [ vi 1; vi 2 ] ])

let test_arity_mismatch_raises () =
  (* An atom wider than the stored tuples fails on both routes. *)
  let q = Cq.make ~head:[ var "z" ] ~atoms:[ atom "R" [ var "x"; var "y"; var "z" ] ] () in
  Alcotest.check_raises "planned raises"
    (Invalid_argument "Tuple.get: attribute 3 out of range 1..2") (fun () ->
      ignore (Cq.eval q inst_r));
  Alcotest.check_raises "naive raises"
    (Invalid_argument "Tuple.get: attribute 3 out of range 1..2") (fun () ->
      ignore (Oracle.naive_eval q inst_r))

(* --- index ownership and reuse --- *)

let counter_value snap name =
  Option.value ~default:0 (List.assoc_opt name snap)

let join_inst () =
  Instance.of_facts
    [
      ("R", List.init 50 (fun k -> [ vi k; vi (k + 1) ]));
      ("S", List.init 50 (fun k -> [ vi (2 * k) ]));
    ]

let join_q =
  Cq.make ~head:[ var "x"; var "y" ]
    ~atoms:[ atom "S" [ var "x" ]; atom "R" [ var "x"; var "y" ] ]
    ()

let test_handle_reuse_and_probes () =
  let idx = Eval_index.of_instance (join_inst ()) in
  let first, d1 = Obs.delta (fun () -> Cq.Plan.eval idx join_q) in
  Alcotest.(check int) "first run compiles a plan" 1
    (counter_value d1 "eval.plans.built");
  Alcotest.(check bool) "first run builds an index" true
    (counter_value d1 "eval.index.builds" >= 1);
  let second, d2 = Obs.delta (fun () -> Cq.Plan.eval idx join_q) in
  Alcotest.check rel_t "replay agrees" first second;
  Alcotest.(check int) "replay compiles its own plan"
    1 (counter_value d2 "eval.plans.built");
  Alcotest.(check int) "replay builds nothing"
    0 (counter_value d2 "eval.index.builds");
  Alcotest.(check bool) "replay probes the index" true
    (counter_value d2 "eval.index.probes" >= 1)

(* [of_instance] hands out a fresh handle every time: nothing is shared
   behind the owner's back, so a second owner builds its own indexes. *)
let test_handles_are_owned () =
  let inst = join_inst () in
  let run () =
    let idx, d = Obs.delta (fun () -> Eval_index.of_instance inst) in
    Alcotest.(check int) "one handle per call" 1
      (counter_value d "eval.index.handles");
    Alcotest.(check int) "creating a handle builds nothing" 0
      (counter_value d "eval.index.builds");
    let answers, d = Obs.delta (fun () -> Cq.Plan.eval idx join_q) in
    (idx, answers, counter_value d "eval.index.builds")
  in
  let h1, a1, builds1 = run () in
  let h2, a2, builds2 = run () in
  Alcotest.(check bool) "distinct handles" false (h1 == h2);
  Alcotest.check rel_t "same answers" a1 a2;
  Alcotest.(check bool) "the first handle builds its indexes" true
    (builds1 >= 1);
  Alcotest.(check int) "the second handle builds them again" builds1 builds2

let test_plan_pp () =
  let idx = Eval_index.of_instance inst_r in
  let q =
    Cq.make ~head:[ var "y" ]
      ~atoms:[ atom "R" [ const (vi 1); var "y" ] ]
      ()
  in
  let txt = Format.asprintf "%a" Cq.Plan.pp (Cq.Plan.of_query idx q) in
  let contains needle =
    let n = String.length needle in
    let rec scan i =
      i + n <= String.length txt
      && (String.sub txt i n = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "pp mentions the probe" true (contains "probe R")

(* --- Eval_index selections vs full scans --- *)

let test_select_column_vs_scan () =
  let rows = List.init 40 (fun k -> [ vi (k mod 7); vi k; vs "c" ]) in
  let inst = Instance.of_facts [ ("T", rows) ] in
  let idx = Eval_index.of_instance inst in
  let r = Option.get (Instance.relation inst "T") in
  List.iter
    (fun op ->
       let sels = [ (2, op, vi 20) ] in
       let indexed = Eval_index.select_column idx ~rel:"T" ~attr:1 ~sels in
       let scanned = Relation.column 1 (Relation.select sels r) in
       Alcotest.(check bool)
         (Printf.sprintf "select_column %s" (Cmp_op.to_string op))
         true
         (Value_set.equal indexed scanned))
    Cmp_op.all;
  Alcotest.(check bool) "column_values = scan" true
    (Value_set.equal
       (Eval_index.column_values idx ~rel:"T" ~attr:1)
       (Relation.column 1 r));
  Alcotest.(check bool) "absent relation" true
    (Value_set.is_empty (Eval_index.column_values idx ~rel:"U" ~attr:1))

(* --- satellite fixes --- *)

let test_tuple_append_product () =
  let t1 = Tuple.of_list [ vi 1; vs "a" ] and t2 = Tuple.of_list [ vi 2 ] in
  Alcotest.(check bool) "append" true
    (Tuple.equal (Tuple.append t1 t2) (Tuple.of_list [ vi 1; vs "a"; vi 2 ]));
  let r1 = rel_of ~arity:1 [ [ vi 1 ]; [ vi 2 ] ] in
  let r2 = rel_of ~arity:2 [ [ vs "x"; vs "y" ] ] in
  Alcotest.check rel_t "product"
    (rel_of ~arity:3 [ [ vi 1; vs "x"; vs "y" ]; [ vi 2; vs "x"; vs "y" ] ])
    (Relation.product r1 r2)

let test_instance_restrict () =
  let inst =
    Instance.of_facts
      [ ("A", [ [ vi 1 ] ]); ("B", [ [ vi 2 ] ]); ("C", [ [ vi 3 ] ]) ]
  in
  let restricted = Instance.restrict [ "A"; "C"; "missing" ] inst in
  Alcotest.(check (list string)) "restrict keeps named" [ "A"; "C" ]
    (List.sort compare (Instance.relation_names restricted))

let test_freeze_batches () =
  let fresh v = vs ("?" ^ v) in
  let q =
    Cq.make ~head:[ var "x" ]
      ~atoms:
        [
          atom "R" [ var "x"; var "y" ];
          atom "R" [ var "y"; const (vi 5) ];
          atom "S" [ var "y" ];
        ]
      ()
  in
  let frozen, head = Cq.freeze ~fresh q in
  Alcotest.(check bool) "head" true (Tuple.equal head (Tuple.of_list [ vs "?x" ]));
  Alcotest.check rel_t "R facts"
    (rel_of ~arity:2 [ [ vs "?x"; vs "?y" ]; [ vs "?y"; vi 5 ] ])
    (Instance.relation_or_empty frozen ~arity:2 "R");
  Alcotest.check rel_t "S facts"
    (rel_of ~arity:1 [ [ vs "?y" ] ])
    (Instance.relation_or_empty frozen ~arity:1 "S")

let () =
  Alcotest.run "eval"
    [
      ( "planner-edge-cases",
        [
          Alcotest.test_case "unsafe head" `Quick test_unsafe_head;
          Alcotest.test_case "unsafe comparison" `Quick test_unsafe_comparison;
          Alcotest.test_case "constant in head" `Quick test_const_in_head;
          Alcotest.test_case "all-constant head" `Quick test_const_only_head;
          Alcotest.test_case "constant filters" `Quick test_const_atom_no_match;
          Alcotest.test_case "comparison-only" `Quick test_comparison_only;
          Alcotest.test_case "empty boolean" `Quick test_empty_query_boolean;
          Alcotest.test_case "no atoms, const head" `Quick test_empty_atoms_const_head;
          Alcotest.test_case "no atoms, var head" `Quick test_empty_atoms_var_head;
          Alcotest.test_case "repeated var in atom" `Quick test_repeated_var_in_atom;
          Alcotest.test_case "repeated var joined" `Quick test_repeated_var_joined;
          Alcotest.test_case "zero-arity relations" `Quick test_zero_arity;
          Alcotest.test_case "comparison pushdown" `Quick test_comparison_pushdown;
          Alcotest.test_case "arity mismatch raises" `Quick test_arity_mismatch_raises;
        ] );
      ( "caching",
        [
          Alcotest.test_case "handle reuse + probes" `Quick test_handle_reuse_and_probes;
          Alcotest.test_case "handles are owned" `Quick test_handles_are_owned;
          Alcotest.test_case "plan pp" `Quick test_plan_pp;
        ] );
      ( "index-selections",
        [
          Alcotest.test_case "select_column vs scan" `Quick test_select_column_vs_scan;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "append + product" `Quick test_tuple_append_product;
          Alcotest.test_case "restrict" `Quick test_instance_restrict;
          Alcotest.test_case "freeze batches" `Quick test_freeze_batches;
        ] );
    ]
