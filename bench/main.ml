(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md §3 and EXPERIMENTS.md).

   The paper is a theory paper, so its "tables and figures" are worked
   examples (Figures 1-5, Examples 3.4/4.5/4.9) and a complexity table
   (Table 1). For each experiment id this harness prints:
   - the qualitative result the paper reports (who is the MGE, which
     subsumptions hold, ...), recomputed from scratch; and
   - timing rows over a parameter sweep exhibiting the complexity shape
     (polynomial rows stay flat-ish/polynomial, exponential rows blow up).

   Run with: dune exec bench/main.exe *)

(* Bind the facade before [open Whynot_core] shadows the [Whynot] name
   with the core question module. *)
module Wire_json = Whynot.Json

open Bechamel
open Whynot_relational
open Whynot_core
module Cities = Whynot_workload.Cities
module Retail = Whynot_workload.Retail
module Generate = Whynot_workload.Generate

(* --- tiny measurement kit on top of bechamel --- *)

module Obs = Whynot_obs.Obs

(* [--quick] runs the CI smoke sweep: the same experiments with a fraction
   of the measurement quota and the heaviest tail of each parameter sweep
   dropped. The JSON report records which mode produced it. *)
let quick = Array.exists (fun a -> a = "--quick") Sys.argv

let ok = function Ok v -> v | Error e -> failwith (Whynot_error.to_string e)

let sweep xs =
  match xs with
  | (_ :: _ :: _) when quick -> List.filteri (fun i _ -> i < List.length xs - 1) xs
  | xs -> xs

let ols =
  Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]

let cfg =
  if quick then
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) ~kde:None
      ~stabilize:false ()
  else
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:false ()

(* [None] when bechamel's OLS fit produced no estimate (or a non-finite
   one): the caller logs a warning and the row stays out of the JSON
   report, rather than silently serialising [NaN]. *)
let measure_ns name f =
  let test = Test.make ~name (Staged.stage f) in
  match Test.elements test with
  | [ elt ] ->
    let bm = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
    (match Analyze.OLS.estimates (Analyze.one ols Toolkit.Instance.monotonic_clock bm) with
     | Some (e :: _) when Float.is_finite e -> Some e
     | Some _ | None -> None)
  | _ -> None

let pp_time ppf = function
  | None -> Format.pp_print_string ppf "n/a"
  | Some ns ->
    if ns < 1e3 then Format.fprintf ppf "%.0f ns" ns
    else if ns < 1e6 then Format.fprintf ppf "%.1f us" (ns /. 1e3)
    else if ns < 1e9 then Format.fprintf ppf "%.2f ms" (ns /. 1e6)
    else Format.fprintf ppf "%.2f s" (ns /. 1e9)

let header id title =
  Format.printf "@.============================================================@.";
  Format.printf "[%s] %s@." id title;
  Format.printf "============================================================@."

let row fmt = Format.printf fmt

(* --- the machine-readable report (BENCH_whynot.json) --- *)

type bench_row = {
  r_id : string;
  r_label : string;
  r_params : (string * float) list;
  r_ns : float;
  r_counters : (string * int) list;
}

let bench_rows : bench_row list ref = ref []

(* Measure [f], then run it once more under an {!Whynot_obs.Obs} delta so
   the row carries the per-call counter profile (cache hits, chase steps,
   candidates explored, ...). Returns the estimate so experiments can
   derive ratios (e.g. the MEMO speedup rows). *)
let timed_ns ?(params = []) id label f =
  let ns = measure_ns (id ^ "/" ^ label) f in
  row "  %-42s %a@." label pp_time ns;
  (match ns with
   | None ->
     Printf.eprintf
       "bench: warning: no OLS estimate for %s/%s; row excluded from JSON\n%!"
       id label
   | Some r_ns ->
     let (), r_counters =
       Obs.delta (fun () -> ignore (Sys.opaque_identity (f ())))
     in
     bench_rows :=
       { r_id = id; r_label = label; r_params = params; r_ns; r_counters }
       :: !bench_rows);
  ns

let timed ?params id label f = ignore (timed_ns ?params id label f)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_number x =
  (* JSON has no NaN/infinity; the row filter keeps them out of reach,
     this is a belt-and-braces guard. *)
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.6g" x

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\": %s" (json_escape k) v)
         fields)
  ^ "}"

let write_report path =
  let rows = List.rev !bench_rows in
  let row_json r =
    json_obj
      [
        ("id", Printf.sprintf "\"%s\"" (json_escape r.r_id));
        ("label", Printf.sprintf "\"%s\"" (json_escape r.r_label));
        ( "params",
          json_obj (List.map (fun (k, v) -> (k, json_number v)) r.r_params) );
        ("ns_per_op", json_number r.r_ns);
        ( "counters",
          json_obj (List.map (fun (k, v) -> (k, string_of_int v)) r.r_counters)
        );
      ]
  in
  let oc = open_out path in
  output_string oc
    (Printf.sprintf
       "{\n\
        \"schema_version\": 1,\n\
        \"suite\": \"whynot-bench\",\n\
        \"quick\": %b,\n\
        \"rows\": [\n\
        %s\n\
        ]\n\
        }\n"
       quick
       (String.concat ",\n" (List.map row_json rows)));
  close_out oc;
  Format.printf "@.wrote %s (%d rows)@." path (List.length rows)

(* ================================================================== *)
(* EX3.4 / FIG1-3: hand-ontology explanations                          *)
(* ================================================================== *)

let hand_ontology =
  Ontology.of_extensions ~name:"figure3"
    ~subsumptions:Cities.hand_hasse
    ~extensions:
      (List.map
         (fun (c, ext) -> (c, Value_set.of_strings ext))
         Cities.hand_extensions)

let whynot_cities =
  Whynot.make_exn ~schema:Cities.schema ~instance:Cities.instance
    ~query:Cities.two_hop_query ~missing:Cities.missing_tuple ()

let ex_3_4 () =
  header "EX3.4" "Figures 1-3 + Example 3.4: why-not with a hand ontology";
  row "answers |q(I)| = %d (paper: 4)@."
    (Relation.cardinal whynot_cities.Whynot.answers);
  let mges = ok @@ Exhaustive.all_mges hand_ontology whynot_cities in
  List.iter
    (fun e ->
       row "MGE: %s@."
         (Format.asprintf "%a" (Explanation.pp hand_ontology) e))
    mges;
  row "paper's E4 = <European-City, US-City> is among them: %b@."
    (List.exists (fun e -> e = [ "European-City"; "US-City" ]) mges);
  timed "EX3.4" "Algorithm 1 (all MGEs, Figure 3 ontology)" (fun () ->
      ok @@ Exhaustive.all_mges hand_ontology whynot_cities)

(* ================================================================== *)
(* EX4.5 / FIG4: OBDA-induced ontology                                 *)
(* ================================================================== *)

let ex_4_5 () =
  header "EX4.5" "Figure 4 + Example 4.5: why-not with an OBDA ontology";
  let induced = Whynot_obda.Induced.prepare Cities.obda_spec Cities.instance in
  let o = Ontology.of_obda induced in
  row "basic concepts in T: %d (paper: 13)@."
    (List.length (Whynot_obda.Induced.concepts induced));
  let mges = ok @@ Exhaustive.all_mges o whynot_cities in
  List.iter
    (fun e -> row "MGE: %s@." (Format.asprintf "%a" (Explanation.pp o) e))
    mges;
  row "paper's E1 = <EU-City, N.A.-City> is most general: %b@."
    (ok @@ Exhaustive.check_mge o whynot_cities
       [ Whynot_dllite.Dl.Atom "EU-City"; Whynot_dllite.Dl.Atom "N.A.-City" ]);
  timed "EX4.5" "induced-ontology preparation (Thm 4.2)" (fun () ->
      Whynot_obda.Induced.prepare Cities.obda_spec Cities.instance);
  timed "EX4.5" "Algorithm 1 over O_B" (fun () ->
      ok @@ Exhaustive.all_mges o whynot_cities)

(* ================================================================== *)
(* FIG5 / EX4.9: derived ontologies                                    *)
(* ================================================================== *)

let ex_4_9 () =
  header "EX4.9" "Figure 5 + Example 4.9: derived ontologies O_S / O_I";
  let open Whynot_concept in
  let sel attr op value = { Ls.attr; op; value } in
  let big = Ls.proj ~rel:"BigCity" ~attr:1 () in
  let city = Ls.proj ~rel:"Cities" ~attr:1 () in
  let euro =
    Ls.proj ~rel:"Cities" ~attr:1 ~sels:[ sel 4 Cmp_op.Eq (Value.str "Europe") ] ()
  in
  let pop7m =
    Ls.proj ~rel:"Cities" ~attr:1 ~sels:[ sel 2 Cmp_op.Gt (Value.int 7000000) ] ()
  in
  let tc_from = Ls.proj ~rel:"Train-Connections" ~attr:1 () in
  List.iter
    (fun (label, c1, c2) ->
       row "%-34s : %s@." label
         (Format.asprintf "%a" Subsume_schema.pp_verdict
            (Subsume_schema.decide Cities.schema c1 c2)))
    [
      ("european <=S city", euro, city);
      ("pop>7M <=S BigCity", pop7m, big);
      ("BigCity <=S city", big, city);
      ("BigCity <=S TC[city_from]", big, tc_from);
      ("BigCity <=S pop>7M (refuted)", big, pop7m);
    ];
  let e_sf = Incremental.one_mge ~variant:Incremental.Selection_free whynot_cities in
  row "Algorithm 2 (selection-free) MGE: %s@."
    (Format.asprintf "%a"
       (Explanation.pp (Ontology.of_instance Cities.instance)) e_sf);
  timed "EX4.9" "subsumption w.r.t. S (mixed schema)" (fun () ->
      Subsume_schema.decide Cities.schema big tc_from);
  timed "EX4.9" "Algorithm 2 selection-free (Figure 2)" (fun () ->
      Incremental.one_mge ~variant:Incremental.Selection_free whynot_cities);
  timed "EX4.9" "Algorithm 2 with selections (Figure 2)" (fun () ->
      Incremental.one_mge ~variant:Incremental.With_selections whynot_cities)

(* ================================================================== *)
(* EX-RETAIL: the introduction's scenario                              *)
(* ================================================================== *)

let ex_retail () =
  header "EX-RETAIL" "Introduction scenario: bluetooth headsets in SF stores";
  let instance, query, missing = Retail.whynot_headsets () in
  let wn = Whynot.make_exn ~schema:Retail.schema ~instance ~query ~missing () in
  let o =
    Ontology.of_extensions ~name:"retail"
      ~subsumptions:Retail.hand_ontology_subsumptions
      ~extensions:
        (List.map
           (fun (c, ext) -> (c, Value_set.of_strings ext))
           Retail.hand_ontology_extensions)
  in
  List.iter
    (fun e -> row "MGE: %s@." (Format.asprintf "%a" (Explanation.pp o) e))
    (ok @@ Exhaustive.all_mges o wn);
  timed "EX-RETAIL" "Algorithm 1 (retail ontology)" (fun () ->
      ok @@ Exhaustive.all_mges o wn)

(* ================================================================== *)
(* TAB1: complexity of concept subsumption w.r.t. a schema             *)
(* ================================================================== *)

let tab1 () =
  header "TAB1" "Table 1: concept subsumption per constraint class";

  row "-- no constraints (conjunct-wise containment; tractable here) --@.";
  List.iter
    (fun positions ->
       let schema = Generate.wide_schema ~positions in
       let c1 = Generate.random_selection_free_concept ~seed:1 schema ~conjuncts:3 () in
       let c2 = Generate.random_selection_free_concept ~seed:2 schema ~conjuncts:2 () in
       timed ~params:[ ("positions", float_of_int positions) ] "TAB1"
         (Printf.sprintf "none / positions=%d" positions) (fun () ->
           Whynot_concept.Subsume_schema.decide schema c1 c2))
    (sweep [ 8; 16; 32; 64 ]);

  row "-- FDs (PTIME row; canonical instantiations + FD filter) --@.";
  List.iter
    (fun conjuncts ->
       let schema = Generate.fd_schema ~positions:8 in
       let c1 = Generate.random_selection_concept ~seed:3 schema ~conjuncts () in
       let c2 = Generate.random_selection_concept ~seed:4 schema ~conjuncts:1 () in
       timed ~params:[ ("conjuncts", float_of_int conjuncts) ] "TAB1"
         (Printf.sprintf "FDs / lhs conjuncts=%d" conjuncts) (fun () ->
           Whynot_concept.Subsume_schema.decide schema c1 c2))
    (sweep [ 1; 2; 3 ]);

  row "-- INDs, selection-free (PTIME row; positional reachability) --@.";
  List.iter
    (fun n ->
       let schema = Generate.ind_chain_schema ~n_relations:n in
       let c1 = Whynot_concept.Ls.proj ~rel:"R0" ~attr:1 () in
       let c2 =
         Whynot_concept.Ls.proj ~rel:(Printf.sprintf "R%d" (n - 1)) ~attr:1 ()
       in
       timed ~params:[ ("chain", float_of_int n) ] "TAB1"
         (Printf.sprintf "INDs / chain length=%d" n) (fun () ->
           Whynot_concept.Subsume_schema.decide schema c1 c2))
    (sweep [ 8; 32; 128 ]);

  row "-- UCQ views (NP/Pi2p row; unfolding + containment) --@.";
  List.iter
    (fun d ->
       let schema = Generate.ucq_view_schema ~n_disjuncts:d in
       let v = Whynot_concept.Ls.proj ~rel:"V" ~attr:1 () in
       let base = Whynot_concept.Ls.proj ~rel:"R0" ~attr:1 () in
       timed ~params:[ ("disjuncts", float_of_int d) ] "TAB1"
         (Printf.sprintf "UCQ views / disjuncts=%d" d) (fun () ->
           Whynot_concept.Subsume_schema.decide schema v base))
    (sweep [ 2; 8; 32 ]);

  row "-- nested UCQ views (coNEXPTIME row; unfolding doubles per level) --@.";
  List.iter
    (fun depth ->
       let schema = Generate.nested_view_schema ~depth in
       let v =
         Whynot_concept.Ls.proj ~rel:(Printf.sprintf "V%d" depth) ~attr:1 ()
       in
       let base = Whynot_concept.Ls.proj ~rel:"R0" ~attr:1 () in
       timed ~params:[ ("depth", float_of_int depth) ] "TAB1"
         (Printf.sprintf "nested views / depth=%d" depth) (fun () ->
           Whynot_concept.Subsume_schema.decide schema v base))
    (sweep [ 1; 2; 3; 4 ])

(* ================================================================== *)
(* ALG1 / THM5.1: exhaustive search and existence                      *)
(* ================================================================== *)

let alg1 () =
  header "ALG1" "Theorem 5.2: Exhaustive Search (Algorithm 1) scaling";
  row "-- ontology size sweep (set-cover gadget, arity 2) --@.";
  List.iter
    (fun n_sets ->
       let sc =
         Whynot_setcover.Setcover.random ~seed:5 ~n_elements:8 ~n_sets
           ~density:0.4 ()
       in
       let g = Whynot_setcover.Reduction.build sc ~slots:2 in
       timed ~params:[ ("n_sets", float_of_int n_sets) ] "ALG1"
         (Printf.sprintf "all MGEs / concepts=%d" n_sets) (fun () ->
           ok @@ Exhaustive.all_mges g.Whynot_setcover.Reduction.ontology
             g.Whynot_setcover.Reduction.whynot))
    (sweep [ 4; 8; 16 ]);
  row "-- query arity sweep (exponent of Theorem 5.2) --@.";
  List.iter
    (fun slots ->
       let sc =
         Whynot_setcover.Setcover.random ~seed:6 ~n_elements:8 ~n_sets:6
           ~density:0.4 ()
       in
       let g = Whynot_setcover.Reduction.build sc ~slots in
       timed ~params:[ ("arity", float_of_int slots) ] "ALG1"
         (Printf.sprintf "all MGEs / arity=%d" slots) (fun () ->
           ok @@ Exhaustive.all_mges g.Whynot_setcover.Reduction.ontology
             g.Whynot_setcover.Reduction.whynot))
    (sweep [ 1; 2; 3 ]);
  row "-- D3 ablation: candidate pruning --@.";
  let sc =
    Whynot_setcover.Setcover.random ~seed:7 ~n_elements:8 ~n_sets:10
      ~density:0.4 ()
  in
  let g = Whynot_setcover.Reduction.build sc ~slots:2 in
  timed "ALG1" "pruned (all_mges)" (fun () ->
      ok @@ Exhaustive.all_mges g.Whynot_setcover.Reduction.ontology
        g.Whynot_setcover.Reduction.whynot);
  timed "ALG1" "literal Algorithm 1 (all_mges_unpruned)" (fun () ->
      ok @@ Exhaustive.all_mges_unpruned g.Whynot_setcover.Reduction.ontology
        g.Whynot_setcover.Reduction.whynot);
  row "-- Figure 2 over O_I[K], one concept per extension class --@.";
  let pool = Whynot.constant_pool whynot_cities in
  (* Each call builds the class list on a fresh handle, so the search
     starts cold too. *)
  let build () = Ontology.of_instance_finite Cities.instance pool in
  let classes = List.length (Option.get (build ()).Ontology.concepts) in
  row "  %d classes of %d syntactic concepts@." classes
    (List.length
       (Whynot_concept.Count.enumerate_selection_free Cities.instance pool));
  timed ~params:[ ("classes", float_of_int classes) ] "ALG1"
    "Figure 2 O_I[K]: build + cold all_mges" (fun () ->
      ok @@ Exhaustive.all_mges (build ()) whynot_cities)

let existence () =
  header "THM5.1" "NP-hardness gadget: EXISTENCE-OF-EXPLANATION vs SET COVER";
  List.iter
    (fun n_sets ->
       let sc =
         Whynot_setcover.Setcover.random ~seed:8 ~n_elements:12 ~n_sets
           ~density:0.25 ()
       in
       let g = Whynot_setcover.Reduction.build sc ~slots:3 in
       let exists =
         ok @@ Exhaustive.exists_explanation g.Whynot_setcover.Reduction.ontology
           g.Whynot_setcover.Reduction.whynot
       in
       let cover = Whynot_setcover.Setcover.exists_cover_of_size sc 3 in
       row "  n_sets=%-3d explanation? %-5b cover<=3? %-5b (must agree)@."
         n_sets exists cover;
       timed ~params:[ ("n_sets", float_of_int n_sets) ] "THM5.1"
         (Printf.sprintf "existence / sets=%d" n_sets) (fun () ->
           ok @@ Exhaustive.exists_explanation g.Whynot_setcover.Reduction.ontology
             g.Whynot_setcover.Reduction.whynot))
    (sweep [ 8; 16; 32 ])

(* ================================================================== *)
(* ALG2: incremental search                                            *)
(* ================================================================== *)

let alg2 () =
  header "ALG2" "Theorem 5.3: Incremental Search (selection-free) scaling";
  List.iter
    (fun n ->
       let gi = Generate.cities_like ~n_cities:n ~n_countries:(max 2 (n / 5))
           ~n_connections:(2 * n) () in
       let wn = Generate.cities_whynot gi in
       timed ~params:[ ("cities", float_of_int n) ] "ALG2"
         (Printf.sprintf "one MGE / cities=%d" n) (fun () ->
           Incremental.one_mge ~variant:Incremental.Selection_free ~shorten:false wn);
       (* Proposition 5.2: CHECK-MGE of that MGE, also handle-less. *)
       if n = 40 then begin
         let e =
           Incremental.one_mge ~variant:Incremental.Selection_free
             ~shorten:false wn
         in
         timed ~params:[ ("cities", float_of_int n) ] "ALG2"
           (Printf.sprintf "check MGE / cities=%d" n) (fun () ->
             Incremental.check_mge wn e)
       end)
    (sweep [ 20; 40; 80 ]);
  row "-- D4 ablation: constant-offer order --@.";
  let gi = Generate.cities_like ~n_cities:40 ~n_countries:8 ~n_connections:80 () in
  let wn = Generate.cities_whynot gi in
  timed "ALG2" "ascending adom order" (fun () ->
      Incremental.one_mge ~shorten:false ~order:`Ascending wn);
  timed "ALG2" "descending adom order" (fun () ->
      Incremental.one_mge ~shorten:false ~order:`Descending wn)

let alg2_sigma () =
  header "ALG2s" "Theorem 5.4: Incremental Search with selections";
  (* Bounded arity 2: polynomial; the rows sweep shows the polynomial
     growth, the arity effect is visible against ALG2 above. *)
  let make_wn rows =
    let inst =
      List.fold_left
        (fun inst k ->
           Instance.add_fact "R"
             [ Value.int k; Value.int ((k + 1) mod rows) ]
             inst)
        Whynot_relational.Instance.empty
        (List.init rows (fun k -> k))
    in
    let q =
      Cq.make
        ~head:[ Cq.Var "x"; Cq.Var "y" ]
        ~atoms:
          [
            { Cq.rel = "R"; args = [ Cq.Var "x"; Cq.Var "z" ] };
            { Cq.rel = "R"; args = [ Cq.Var "z"; Cq.Var "y" ] };
          ]
        ()
    in
    Whynot.make_exn ~instance:inst ~query:q
      ~missing:[ Value.int 0; Value.int 1 ]
      ()
  in
  List.iter
    (fun rows ->
       let wn = make_wn rows in
       timed ~params:[ ("rows", float_of_int rows) ] "ALG2s"
         (Printf.sprintf "one MGE (sigma) / rows=%d" rows) (fun () ->
           Incremental.one_mge ~variant:Incremental.With_selections
             ~shorten:false wn))
    (sweep [ 6; 10; 14 ]);
  row "-- D2 ablation: lub antichain pruning --@.";
  let wn = make_wn 10 in
  let x =
    Value_set.of_list [ Value.int 0; Value.int 2; Value.int 4 ]
  in
  (* A fresh handle per call: a kept one would answer from its lub cache. *)
  let lub_sigma ~prune x =
    let h = Whynot_concept.Subsume_memo.inst wn.Whynot.instance in
    Whynot_concept.Lub.lub_sigma ~prune h x
  in
  timed "ALG2s" "lub_sigma pruned" (fun () -> lub_sigma ~prune:true x);
  timed "ALG2s" "lub_sigma unpruned" (fun () -> lub_sigma ~prune:false x)

(* ================================================================== *)
(* P4.2: concept counting                                              *)
(* ================================================================== *)

let p4_2 () =
  header "P4.2" "Proposition 4.2: number of concepts per fragment";
  let open Whynot_concept in
  List.iter
    (fun positions ->
       let schema = Generate.wide_schema ~positions in
       row "  positions=%-3d  L_min=%-6d sel-free=%-12.0f full=10^%.0f@." positions
         (Count.count_minimal schema ~k:5)
         (Count.count_selection_free schema ~k:5)
         (Count.count_full_log10 schema ~k:5))
    [ 4; 8; 12; 16 ];
  List.iter
    (fun positions ->
       let n = (positions + 1) / 2 in
       let inst =
         List.fold_left
           (fun inst k ->
              Whynot_relational.Instance.add_fact (Printf.sprintf "R%d" k)
                [ Value.int 0; Value.int 1 ]
                inst)
           Whynot_relational.Instance.empty
           (List.init n (fun k -> k))
       in
       timed ~params:[ ("positions", float_of_int positions) ] "P4.2"
         (Printf.sprintf "materialise O_I[K] / positions=%d" positions)
         (fun () ->
            Count.enumerate_selection_free inst
              (Value_set.of_list [ Value.int 0; Value.int 1 ])))
    (sweep [ 4; 8; 12 ])

(* ================================================================== *)
(* P6.2 / P6.4: irredundancy and cardinality preference                *)
(* ================================================================== *)

let p6_2 () =
  header "P6.2" "Proposition 6.2: polynomial irredundancy";
  let open Whynot_concept in
  List.iter
    (fun conjuncts ->
       let c =
         Ls.meet_all
           (List.init conjuncts (fun k ->
                Generate.random_selection_free_concept ~seed:k Cities.schema
                  ~conjuncts:1 ()))
       in
       timed ~params:[ ("conjuncts", float_of_int conjuncts) ] "P6.2"
         (Printf.sprintf "minimise / conjuncts<=%d" conjuncts)
         (fun () -> Irredundant.minimise (Subsume_memo.inst Cities.instance) c))
    (sweep [ 4; 8; 16 ])

let p6_4 () =
  header "P6.4" "Proposition 6.4: card-maximal explanations, exact vs greedy";
  (* Crafted instance where the greedy heuristic is strictly suboptimal:
     greedy grabs the singleton {1} first and is then forced into the
     4-element completion, while the optimum partitions the universe. *)
  let crafted =
    Whynot_setcover.Setcover.make ~universe:[ 1; 2; 3; 4 ]
      ~sets:
        [ ("A", [ 1 ]); ("E", [ 1; 2; 3; 4 ]); ("F", [ 1; 2 ]); ("G", [ 3; 4 ]) ]
  in
  let gc = Whynot_setcover.Reduction.build crafted ~slots:2 in
  let oc = gc.Whynot_setcover.Reduction.ontology in
  let wnc = gc.Whynot_setcover.Reduction.whynot in
  let degc = function
    | None -> -1
    | Some e -> Option.value ~default:(-1) (Cardinality.degree oc wnc e)
  in
  row "  crafted: exact degree=%d, greedy degree=%d (greedy suboptimal)@."
    (degc (ok @@ Cardinality.maximal oc wnc))
    (degc (ok @@ Cardinality.greedy oc wnc));
  List.iter
    (fun n_sets ->
       let sc =
         Whynot_setcover.Setcover.random ~seed:9 ~n_elements:10 ~n_sets
           ~density:0.45 ()
       in
       let g = Whynot_setcover.Reduction.build sc ~slots:3 in
       let o = g.Whynot_setcover.Reduction.ontology in
       let wn = g.Whynot_setcover.Reduction.whynot in
       let deg = function
         | None -> -1
         | Some e -> Option.value ~default:(-1) (Cardinality.degree o wn e)
       in
       let exact = ok @@ Cardinality.maximal o wn
       and greedy = ok @@ Cardinality.greedy o wn in
       row "  n_sets=%-3d exact degree=%-4d greedy degree=%-4d@."
         n_sets (deg exact) (deg greedy);
       timed ~params:[ ("n_sets", float_of_int n_sets) ] "P6.4"
         (Printf.sprintf "exact / sets=%d" n_sets) (fun () ->
           ok @@ Cardinality.maximal o wn);
       timed ~params:[ ("n_sets", float_of_int n_sets) ] "P6.4"
         (Printf.sprintf "greedy / sets=%d" n_sets) (fun () ->
           ok @@ Cardinality.greedy o wn))
    (sweep [ 6; 10; 14 ])

(* ================================================================== *)
(* D1: DL-LiteR reasoning                                              *)
(* ================================================================== *)

let dllite () =
  header "THM4.1" "DL-LiteR: PTIME saturation and subsumption (D1)";
  List.iter
    (fun n_atoms ->
       let tb =
         Generate.random_tbox ~seed:10 ~n_atoms ~n_roles:(n_atoms / 4)
           ~n_axioms:(2 * n_atoms) ()
       in
       timed ~params:[ ("atoms", float_of_int n_atoms) ] "THM4.1"
         (Printf.sprintf "saturate / atoms=%d" n_atoms) (fun () ->
           Whynot_dllite.Reasoner.saturate tb);
       let r = Whynot_dllite.Reasoner.saturate tb in
       let u = Whynot_dllite.Reasoner.universe r in
       match u with
       | b1 :: b2 :: _ ->
         timed "THM4.1" (Printf.sprintf "subsumes query / atoms=%d" n_atoms)
           (fun () -> Whynot_dllite.Reasoner.subsumes r b1 b2);
         (* D1 ablation: the same query without the precomputed closure. *)
         timed "THM4.1" (Printf.sprintf "on-demand query / atoms=%d" n_atoms)
           (fun () -> Whynot_dllite.Ondemand.subsumes tb b1 b2)
       | _ -> ())
    (sweep [ 8; 32; 128 ])

(* ================================================================== *)
(* OBDA: induced ontology scaling                                      *)
(* ================================================================== *)

let obda_scaling () =
  header "THM4.2" "OBDA: computing the induced ontology scales polynomially";
  List.iter
    (fun n ->
       let _, inst =
         Generate.cities_like ~n_cities:n ~n_countries:(max 2 (n / 5))
           ~n_connections:(2 * n) ()
       in
       timed ~params:[ ("cities", float_of_int n) ] "THM4.2"
         (Printf.sprintf "retrieve+prepare / cities=%d" n)
         (fun () ->
            let induced = Whynot_obda.Induced.prepare Cities.obda_spec inst in
            Whynot_obda.Induced.extension induced
              (Whynot_dllite.Dl.Atom "City")))
    (sweep [ 20; 40; 80 ])

(* ================================================================== *)
(* Extensions: PerfectRef rewriting and the Datalog engine             *)
(* ================================================================== *)

let rewrite_bench () =
  header "REWRITE" "PerfectRef: certain answers over the ontology (§7)";
  let induced = Whynot_obda.Induced.prepare Cities.obda_spec Cities.instance in
  let atomic name =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ { Cq.rel = name; args = [ Cq.Var "x" ] } ]
      ()
  in
  let join =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:
        [
          { Cq.rel = "hasCountry"; args = [ Cq.Var "x"; Cq.Var "y" ] };
          { Cq.rel = "hasContinent"; args = [ Cq.Var "y"; Cq.Var "z" ] };
        ]
      ()
  in
  let tbox = Cities.obda_tbox in
  row "rewriting sizes: City(x) -> %d disjunct(s); join -> %d disjunct(s)@."
    (List.length (Whynot_obda.Rewrite.rewrite tbox (atomic "City")).Ucq.disjuncts)
    (List.length (Whynot_obda.Rewrite.rewrite tbox join).Ucq.disjuncts);
  timed "REWRITE" "rewrite City(x)" (fun () ->
      Whynot_obda.Rewrite.rewrite tbox (atomic "City"));
  timed "REWRITE" "rewrite join (needs reduce)" (fun () ->
      Whynot_obda.Rewrite.rewrite tbox join);
  timed "REWRITE" "certain answers of the join" (fun () ->
      Whynot_obda.Rewrite.certain_answers induced join)

let datalog_bench () =
  header "DATALOG" "Datalog engine: views vs semi-naive, recursion";
  let views = Whynot_relational.Schema.views Cities.schema in
  let prog = Whynot_datalog.Program.of_views views in
  let base = Cities.base_instance in
  timed "DATALOG" "Figure-1 views via View.materialise" (fun () ->
      Whynot_relational.View.materialise views base);
  timed "DATALOG" "Figure-1 views via semi-naive Datalog" (fun () ->
      Whynot_datalog.Program.eval prog base);
  let var v = Cq.Var v in
  let tc =
    Whynot_datalog.Program.make_exn
      [
        Whynot_datalog.Program.rule
          ~head:{ Cq.rel = "T"; args = [ var "x"; var "y" ] }
          [ Whynot_datalog.Program.Pos { Cq.rel = "E"; args = [ var "x"; var "y" ] } ];
        Whynot_datalog.Program.rule
          ~head:{ Cq.rel = "T"; args = [ var "x"; var "y" ] }
          [
            Whynot_datalog.Program.Pos { Cq.rel = "T"; args = [ var "x"; var "z" ] };
            Whynot_datalog.Program.Pos { Cq.rel = "E"; args = [ var "z"; var "y" ] };
          ];
      ]
  in
  List.iter
    (fun n ->
       let chain =
         List.fold_left
           (fun inst k ->
              Whynot_relational.Instance.add_fact "E"
                [ Value.int k; Value.int (k + 1) ]
                inst)
           Whynot_relational.Instance.empty
           (List.init n (fun k -> k))
       in
       timed ~params:[ ("chain", float_of_int n) ] "DATALOG"
         (Printf.sprintf "transitive closure / chain=%d" n)
         (fun () -> Whynot_datalog.Program.eval tc chain))
    (sweep [ 8; 16; 32 ])

(* ================================================================== *)
(* MEMO: the memoised subsumption layer, cold vs warm                  *)
(* ================================================================== *)

let memo_bench () =
  header "MEMO" "Memoised subsumption: cold vs warm Incremental Search";
  (* Cold: every measured call creates a fresh memo handle, so the
     active domain, its position masks and every extension are recomputed
     from scratch — one run on its own.
     Warm: one handle is kept across calls, as an engine keeps its handle
     across the requests of a session. *)
  List.iter
    (fun n ->
       let gi =
         Generate.cities_like ~n_cities:n ~n_countries:(max 2 (n / 5))
           ~n_connections:(2 * n) ()
       in
       let wn = Generate.cities_whynot gi in
       let run handle =
         Incremental.one_mge ~handle ~variant:Incremental.Selection_free
           ~shorten:false wn
       in
       let fresh () = Whynot_concept.Subsume_memo.inst wn.Whynot.instance in
       let cold =
         timed_ns
           ~params:[ ("cities", float_of_int n); ("cached", 0.) ]
           "MEMO"
           (Printf.sprintf "cold (uncached) / cities=%d" n)
           (fun () -> run (fresh ()))
       in
       let warm =
         let h = fresh () in
         timed_ns
           ~params:[ ("cities", float_of_int n); ("cached", 1.) ]
           "MEMO"
           (Printf.sprintf "warm (memoised) / cities=%d" n)
           (fun () -> run h)
       in
       match (cold, warm) with
       | Some c, Some w when w > 0. ->
         row "  speedup (cold/warm) / cities=%-18d %.1fx@." n (c /. w)
       | _ -> ())
    (sweep [ 20; 40; 80 ]);
  row "-- schema-level verdict caching --@.";
  let big = Whynot_concept.Ls.proj ~rel:"BigCity" ~attr:1 () in
  let tc_from = Whynot_concept.Ls.proj ~rel:"Train-Connections" ~attr:1 () in
  let cold_schema =
    timed_ns
      ~params:[ ("cached", 0.) ]
      "MEMO" "decide w.r.t. S, cold (uncached)"
      (fun () ->
         let h = Whynot_concept.Subsume_memo.schema Cities.schema in
         Whynot_concept.Subsume_memo.decide h big tc_from)
  in
  let warm_schema =
    let h = Whynot_concept.Subsume_memo.schema Cities.schema in
    timed_ns
      ~params:[ ("cached", 1.) ]
      "MEMO" "decide w.r.t. S, warm (memoised)"
      (fun () -> Whynot_concept.Subsume_memo.decide h big tc_from)
  in
  match (cold_schema, warm_schema) with
  | Some c, Some w when w > 0. ->
    row "  speedup (cold/warm) schema decide          %.0fx@." (c /. w)
  | _ -> ()

(* ================================================================== *)
(* EVAL: planned/indexed CQ evaluation vs the naive oracle             *)
(* ================================================================== *)

let eval_bench () =
  header "EVAL" "Planned/indexed CQ evaluation kernel vs naive join";
  row "  planned = Cq.Plan.eval over one Eval_index handle (warm indexes)@.";
  row "  naive   = the retained pre-planner oracle (scan per atom)@.";
  let speedup label naive planned =
    match (naive, planned) with
    | Some n, Some p when p > 0. ->
      row "  speedup planned vs naive %-22s %.1fx@." label (n /. p)
    | _ -> ()
  in
  row "-- Cities two-hop join, instance size sweep --@.";
  List.iter
    (fun n_cities ->
       let _, inst =
         Generate.cities_like ~n_cities ~n_countries:(max 2 (n_cities / 5))
           ~n_connections:(2 * n_cities) ()
       in
       let q =
         Cq.make
           ~head:[ Cq.Var "x"; Cq.Var "y" ]
           ~atoms:
             [
               { Cq.rel = "Train-Connections"; args = [ Cq.Var "x"; Cq.Var "z" ] };
               { Cq.rel = "Train-Connections"; args = [ Cq.Var "z"; Cq.Var "y" ] };
             ]
           ()
       in
       (* Take the handle once and warm its pattern indexes so the
          planned row measures the steady state the deciders run in. *)
       let idx = Eval_index.of_instance inst in
       ignore (Cq.Plan.eval idx q);
       let params k = [ ("cities", float_of_int n_cities); ("kernel", k) ] in
       let planned =
         timed_ns ~params:(params 1.) "EVAL"
           (Printf.sprintf "two-hop planned / cities=%d" n_cities)
           (fun () -> Cq.Plan.eval idx q)
       in
       let naive =
         timed_ns ~params:(params 0.) "EVAL"
           (Printf.sprintf "two-hop naive / cities=%d" n_cities)
           (fun () -> Whynot_proptest.Oracle.naive_eval q inst)
       in
       speedup (Printf.sprintf "/ cities=%d" n_cities) naive planned)
    (sweep [ 40; 80; 160; 320 ]);
  row "-- Retail three-way join (category constant, qty > 0), stock sweep --@.";
  List.iter
    (fun n_stock ->
       let inst =
         Generate.retail_like ~n_products:(max 10 (n_stock / 10))
           ~n_stores:50 ~n_stock ()
       in
       let q = Generate.retail_join_query ~category:"audio" in
       (* Create the index handle once, query it repeatedly. *)
       let idx = Eval_index.of_instance inst in
       ignore (Cq.Plan.eval idx q);
       let params k = [ ("stock", float_of_int n_stock); ("kernel", k) ] in
       let planned =
         timed_ns ~params:(params 1.) "EVAL"
           (Printf.sprintf "retail join planned / stock=%d" n_stock)
           (fun () -> Cq.Plan.eval idx q)
       in
       let naive =
         timed_ns ~params:(params 0.) "EVAL"
           (Printf.sprintf "retail join naive / stock=%d" n_stock)
           (fun () -> Whynot_proptest.Oracle.naive_eval q inst)
       in
       speedup (Printf.sprintf "/ stock=%d" n_stock) naive planned)
    (sweep [ 500; 1000; 2000; 4000 ]);
  row "-- Boolean short-circuit: holds on the first witness --@.";
  let _, inst =
    Generate.cities_like ~n_cities:160 ~n_countries:32 ~n_connections:320 ()
  in
  let q_bool =
    Cq.make ~head:[]
      ~atoms:
        [
          { Cq.rel = "Train-Connections"; args = [ Cq.Var "x"; Cq.Var "z" ] };
          { Cq.rel = "Train-Connections"; args = [ Cq.Var "z"; Cq.Var "y" ] };
        ]
      ()
  in
  let idx = Eval_index.of_instance inst in
  ignore (Cq.Plan.eval idx q_bool);
  let holds_t =
    timed_ns ~params:[ ("cities", 160.); ("kernel", 1.) ] "EVAL"
      "boolean holds (short-circuit)"
      (fun () -> Cq.Plan.holds idx q_bool)
  in
  let eval_t =
    timed_ns ~params:[ ("cities", 160.); ("kernel", 1.) ] "EVAL"
      "boolean via full eval"
      (fun () -> not (Relation.is_empty (Cq.Plan.eval idx q_bool)))
  in
  speedup "holds vs full eval" eval_t holds_t

(* ================================================================== *)
(* SERVE: the wire server under load                                   *)
(* ================================================================== *)

(* Rows measured by the load generator rather than bechamel: the
   quantity of interest is tail latency under concurrency, which an OLS
   fit over repeated single-threaded runs cannot see. [ns_per_op] is the
   mean per-request wall clock; the percentiles travel in [params]. *)
let raw_row id label ~params ~ns ~counters =
  row "  %-42s %a@." label pp_time (Some ns);
  bench_rows :=
    { r_id = id; r_label = label; r_params = params; r_ns = ns;
      r_counters = counters }
    :: !bench_rows

module Server = Whynot_server.Server

let serve_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* One blocking request/response exchange; returns the reply's error
   code ([""] for a result envelope). The reply JSON goes through the
   wire decoder, so the generator measures the full codec path. *)
let serve_rpc fd rdbuf line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd data !off (len - !off)
  done;
  let chunk = Bytes.create 8192 in
  let rec next_line () =
    let s = Buffer.contents rdbuf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear rdbuf;
      Buffer.add_substring rdbuf s (i + 1) (String.length s - i - 1);
      String.sub s 0 i
    | None ->
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then failwith "server closed the connection";
      Buffer.add_subbytes rdbuf chunk 0 n;
      next_line ()
  in
  let reply = next_line () in
  match Wire_json.of_string reply with
  | Error _ -> failwith ("unparsable reply: " ^ reply)
  | Ok j ->
    (match Wire_json.member "error" j with
     | Some e ->
       (match Option.bind (Wire_json.member "code" e) Wire_json.to_string_opt
        with
        | Some c -> c
        | None -> "error")
     | None -> "")

let percentile_us sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) - 1 in
    sorted.(max 0 (min (n - 1) rank)) /. 1e3
  end

let serve_phase ~label ~port ~clients ~requests ~request_of ~session_of =
  (* [clients] threads, each with its own connection and session, each
     issuing [requests] requests back to back. Returns per-request
     latencies (ns) plus the client-observed shed/timeout counts. *)
  let latencies = Array.make (clients * requests) 0. in
  let shed = Atomic.make 0 and timeouts = Atomic.make 0 in
  let t_start = Obs.now_s () in
  let client i () =
    let fd = serve_connect port in
    let rdbuf = Buffer.create 1024 in
    let session = session_of i in
    (* Session management must succeed even when the measured phase sheds
       aggressively, or the shed totals would double-count management
       requests: retry until admitted, counting each shed reply. *)
    let rec admitted line =
      if serve_rpc fd rdbuf line = "overloaded" then begin
        Atomic.incr shed;
        Thread.delay 0.005;
        admitted line
      end
    in
    admitted
      (Printf.sprintf
         "{\"op\":\"create\",\"session\":\"%s\",\"workload\":\"cities\"}"
         session);
    for k = 0 to requests - 1 do
      let t0 = Obs.now_s () in
      let code = serve_rpc fd rdbuf (request_of session k) in
      latencies.((i * requests) + k) <- (Obs.now_s () -. t0) *. 1e9;
      if code = "overloaded" then Atomic.incr shed
      else if code = "timeout" then Atomic.incr timeouts
    done;
    admitted (Printf.sprintf "{\"op\":\"close\",\"session\":\"%s\"}" session);
    Unix.close fd
  in
  let threads = List.init clients (fun i -> Thread.create (client i) ()) in
  List.iter Thread.join threads;
  let wall_s = Obs.now_s () -. t_start in
  Array.sort compare latencies;
  let total = clients * requests in
  let mean_ns = Array.fold_left ( +. ) 0. latencies /. float_of_int total in
  ( label,
    [
      ("clients", float_of_int clients);
      ("requests", float_of_int total);
      ("p50_us", percentile_us latencies 50.);
      ("p95_us", percentile_us latencies 95.);
      ("p99_us", percentile_us latencies 99.);
      ("rps", float_of_int total /. wall_s);
      ("shed", float_of_int (Atomic.get shed));
      ("timeouts", float_of_int (Atomic.get timeouts));
    ],
    mean_ns )

let serve_bench () =
  header "SERVE" "wire server under load (throughput, tails, shedding)";
  let base =
    { Server.default_config with
      port = 0; access_log = false; default_deadline_ms = 0 }
  in
  let n = if quick then 20 else 100 in
  let counter_subset counters =
    List.filter
      (fun (name, _) ->
         String.length name >= 7 && String.sub name 0 7 = "server.")
      counters
  in
  let run_phase server ~label ~clients ~requests ~request_of ~session_of =
    let port = Server.port server in
    let result = ref None in
    let (), counters =
      Obs.delta (fun () ->
        result :=
          Some
            (serve_phase ~label ~port ~clients ~requests ~request_of
               ~session_of))
    in
    let label, params, mean_ns = Option.get !result in
    let counters = counter_subset counters in
    let ctr name =
      float_of_int (Option.value (List.assoc_opt name counters) ~default:0)
    in
    raw_row "SERVE" label
      ~params:
        (params
         @ [ ("shed_ctr", ctr "server.shed");
             ("timeout_ctr", ctr "server.timeouts") ])
      ~ns:mean_ns ~counters
  in
  (* Phase 1: sustained one_mge traffic, no artificial limits. *)
  (match Server.start base with
   | Error msg -> row "  server failed to start: %s@." msg
   | Ok server ->
     run_phase server
       ~label:(Printf.sprintf "one_mge, 4 clients x %d" n)
       ~clients:4 ~requests:n
       ~request_of:(fun session _ ->
         Printf.sprintf "{\"op\":\"one_mge\",\"session\":\"%s\"}" session)
       ~session_of:(Printf.sprintf "load-%d");
     (* Phase 2: every request carries an already-expired deadline. *)
     run_phase server
       ~label:(Printf.sprintf "one_mge deadline_ms=0, 2 clients x %d" n)
       ~clients:2 ~requests:n
       ~request_of:(fun session _ ->
         Printf.sprintf
           "{\"op\":\"one_mge\",\"session\":\"%s\",\"deadline_ms\":0}"
           session)
       ~session_of:(Printf.sprintf "ttl-%d");
     Server.initiate_shutdown server;
     Server.wait server);
  (* Phase 3: more clients than execution slots — load shedding. *)
  match
    Server.start { base with max_inflight = 1; debug_ops = true }
  with
  | Error msg -> row "  server failed to start: %s@." msg
  | Ok server ->
    run_phase server
      ~label:
        (Printf.sprintf "debug_sleep(5ms) max_inflight=1, 4 clients x %d"
           (n / 2))
      ~clients:4 ~requests:(n / 2)
      ~request_of:(fun session _ ->
        Printf.sprintf
          "{\"op\":\"debug_sleep\",\"session\":\"%s\",\"ms\":5}" session)
      ~session_of:(Printf.sprintf "shed-%d");
    Server.initiate_shutdown server;
    Server.wait server

let () =
  Format.printf "why-not explanations: benchmark harness@.";
  Format.printf "(experiment ids refer to DESIGN.md / EXPERIMENTS.md)@.";
  if quick then Format.printf "(--quick: CI smoke sweep)@.";
  ex_3_4 ();
  ex_4_5 ();
  ex_4_9 ();
  ex_retail ();
  tab1 ();
  alg1 ();
  existence ();
  alg2 ();
  alg2_sigma ();
  memo_bench ();
  eval_bench ();
  p4_2 ();
  p6_2 ();
  p6_4 ();
  dllite ();
  obda_scaling ();
  rewrite_bench ();
  datalog_bench ();
  serve_bench ();
  write_report "BENCH_whynot.json";
  Format.printf "@.done.@."
