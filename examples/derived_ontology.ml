(* Ontologies derived from the schema or the instance (§4.2, Figure 5,
   Example 4.9), and the incremental search of §5.2.

   When no external ontology is available, concepts are built directly from
   the schema in the language L_S (projections of selections, nominals,
   intersections). We print the Figure-5 concepts with their SQL-ish
   rendering and extensions, replay the subsumption claims of Example 4.9
   under both ⊑_S and ⊑_I, and compute most-general explanations with
   Algorithm 2.

   Run with: dune exec examples/derived_ontology.exe *)

open Whynot_relational
open Whynot_concept
open Whynot_core
module Cities = Whynot_workload.Cities

let section title = Format.printf "@.== %s ==@." title
let schema = Cities.schema
let inst = Cities.instance
let sel attr op value = { Ls.attr; op; value }

let figure5 =
  [
    Ls.proj ~rel:"Cities" ~attr:1 ();
    Ls.proj ~rel:"Cities" ~attr:1 ~sels:[ sel 4 Cmp_op.Eq (Value.str "Europe") ] ();
    Ls.proj ~rel:"Cities" ~attr:1 ~sels:[ sel 4 Cmp_op.Eq (Value.str "N.America") ] ();
    Ls.proj ~rel:"Cities" ~attr:1 ~sels:[ sel 2 Cmp_op.Gt (Value.int 1000000) ] ();
    Ls.proj ~rel:"BigCity" ~attr:1 ();
    Ls.nominal (Value.str "Santa Cruz");
    Ls.meet
      (Ls.proj ~rel:"Cities" ~attr:1 ~sels:[ sel 2 Cmp_op.Lt (Value.int 1000000) ] ())
      (Ls.proj ~rel:"Reachable" ~attr:2 ~sels:[ sel 1 Cmp_op.Eq (Value.str "Amsterdam") ] ());
  ]

let pp_ext ppf c =
  match Semantics.extension c inst with
  | Semantics.All -> Format.pp_print_string ppf "Const (everything)"
  | Semantics.Fin s -> Value_set.pp ppf s

let () =
  section "Figure 5: concepts specified in L_S";
  List.iter
    (fun c ->
       Format.printf "@[<v2>%a@,SQL: %a@,ext = %a@]@.@."
         (Ls.pp ~schema ()) c (Ls.pp_sql ~schema ()) c pp_ext c)
    figure5;

  section "Example 4.9: subsumptions w.r.t. the schema";
  let big = Ls.proj ~rel:"BigCity" ~attr:1 () in
  let city = Ls.proj ~rel:"Cities" ~attr:1 () in
  let euro = List.nth figure5 1 in
  let pop7m =
    Ls.proj ~rel:"Cities" ~attr:1 ~sels:[ sel 2 Cmp_op.Gt (Value.int 7000000) ] ()
  in
  let tc_from = Ls.proj ~rel:"Train-Connections" ~attr:1 () in
  let claims =
    [
      ("european <=S city", euro, city);
      ("pop>7M <=S BigCity", pop7m, big);
      ("BigCity <=S city", big, city);
      ("BigCity <=S TC[city_from]", big, tc_from);
    ]
  in
  List.iter
    (fun (label, c1, c2) ->
       Format.printf "%s : %a@." label Subsume_schema.pp_verdict
         (Subsume_schema.decide schema c1 c2))
    claims;

  section "Subsumption that holds w.r.t. I but not w.r.t. S";
  let from_a =
    Ls.proj ~rel:"Reachable" ~attr:2 ~sels:[ sel 1 Cmp_op.Eq (Value.str "Amsterdam") ] ()
  in
  let from_b =
    Ls.proj ~rel:"Reachable" ~attr:2 ~sels:[ sel 1 Cmp_op.Eq (Value.str "Berlin") ] ()
  in
  Format.printf "reach-from-Amsterdam <=I reach-from-Berlin : %b@."
    (Subsume_inst.subsumes inst from_a from_b);
  Format.printf "reach-from-Amsterdam <=S reach-from-Berlin : %a@."
    Subsume_schema.pp_verdict
    (Subsume_schema.decide schema from_a from_b);

  section "Algorithm 2: a most-general explanation w.r.t. O_I";
  let wn =
    Whynot.make_exn ~schema ~instance:inst ~query:Cities.two_hop_query
      ~missing:Cities.missing_tuple ()
  in
  let e_sf = Incremental.one_mge ~variant:Incremental.Selection_free wn in
  Format.printf "selection-free (Theorem 5.3):@.";
  List.iteri
    (fun idx c -> Format.printf "  position %d: %a@." (idx + 1) (Ls.pp ~schema ()) c)
    e_sf;
  let e_sig = Incremental.one_mge ~variant:Incremental.With_selections wn in
  Format.printf "with selections (Theorem 5.4):@.";
  List.iteri
    (fun idx c -> Format.printf "  position %d: %a@." (idx + 1) (Ls.pp ~schema ()) c)
    e_sig;

  section "Irredundancy (Proposition 6.2)";
  let redundant = Ls.meet euro city in
  Format.printf "%a  --minimise-->  %a@." (Ls.pp ~schema ()) redundant
    (Ls.pp ~schema ())
    (Irredundant.minimise (Subsume_memo.inst inst) redundant);

  section "The trivial explanation and its generality";
  let o = Ontology.of_instance inst in
  let trivial = Incremental.trivial_explanation wn in
  Format.printf "trivial: %a@." (Explanation.pp o) trivial;
  Format.printf "trivial <= selection-free MGE: %b@."
    (Explanation.less_general o trivial e_sf)
