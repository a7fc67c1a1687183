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
module Engine = Whynot.Engine

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

(* --- the sampling profiler ---

   [--profile ID/LABEL] measures nothing: it runs the call of the row
   [timed_ns] would time under that name in a loop for five seconds
   under [ITIMER_PROF], prints the source lines its samples found most
   often, and exits. A SIGPROF handler records each sample with
   [Printexc.get_callstack], so samples land at OCaml safe points, and a
   C call ([caml_compare], [snprintf]) is charged to the line of its
   OCaml caller. *)

let profile_row =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if String.equal Sys.argv.(i) "--profile" then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let profile_seconds = 5.

let samples : Printexc.raw_backtrace list ref = ref []

let take_sample (_ : int) = samples := Printexc.get_callstack 64 :: !samples

(* A sample's frames as "file:line function", innermost first, without
   the handler's own. *)
let sample_frames raw =
  match Printexc.backtrace_slots raw with
  | None -> []
  | Some slots ->
    Array.to_list slots
    |> List.filter_map (fun slot ->
        match (Printexc.Slot.location slot, Printexc.Slot.name slot) with
        | _, Some name when String.ends_with ~suffix:".take_sample" name ->
          None
        | Some loc, name ->
          Some
            (Printf.sprintf "%s:%d %s" loc.Printexc.filename
               loc.Printexc.line_number
               (Option.value ~default:"?" name))
        | None, _ -> None)

let print_top title counts total =
  Printf.printf "%s (of %d samples):\n" title total;
  Hashtbl.fold (fun k n acc -> (n, k) :: acc) counts []
  |> List.sort (fun (n, k) (n', k') ->
      match Int.compare n' n with 0 -> String.compare k k' | c -> c)
  |> List.filteri (fun i _ -> i < 25)
  |> List.iter (fun (n, k) ->
      Printf.printf "  %5.1f%%  %s\n"
        (100. *. float_of_int n /. float_of_int total)
        k)

let profile name f =
  let calls = ref 0 in
  let tick = { Unix.it_interval = 0.001; it_value = 0.001 } in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle take_sample);
  ignore (Unix.setitimer Unix.ITIMER_PROF tick);
  let stop = Unix.gettimeofday () +. profile_seconds in
  while Unix.gettimeofday () < stop do
    for _ = 1 to 100 do ignore (Sys.opaque_identity (f ())) done;
    calls := !calls + 100
  done;
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. });
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  let leaf = Hashtbl.create 64 and inclusive = Hashtbl.create 256 in
  let bump counts k =
    Hashtbl.replace counts k
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  List.iter
    (fun raw ->
       let frames = sample_frames raw in
       (match frames with leaf_frame :: _ -> bump leaf leaf_frame | [] -> ());
       List.iter (bump inclusive) (List.sort_uniq String.compare frames))
    !samples;
  let total = List.length !samples in
  Printf.printf "profile of %s: %d calls in %.1f s\n" name !calls
    profile_seconds;
  print_top "leaf share" leaf total;
  print_top "inclusive share" inclusive total

(* Measure [f], then run it once more under an {!Whynot_obs.Obs} delta so
   the row carries the per-call counter profile (cache hits, chase steps,
   candidates explored, ...). Returns the estimate so experiments can
   derive ratios (e.g. the MEMO speedup rows). [counters] go on the row
   after the profile's own. Under [--profile], samples the named row
   and measures no other. *)
let timed_ns ?(params = []) ?(counters = []) id label f =
  match profile_row with
  | Some name ->
    if String.equal name (id ^ "/" ^ label) then begin
      profile name f;
      exit 0
    end;
    None
  | None ->
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
         { r_id = id; r_label = label; r_params = params; r_ns;
           r_counters = r_counters @ counters }
         :: !bench_rows);
    ns

let timed ?params id label f = ignore (timed_ns ?params id label f)

(* A timed row that carries the minor-heap words one call of [f]
   allocates (the mean over 1000 calls) as [gc.minor_words]. *)
let timed_words ?params id label f =
  let minor_words =
    let n = 1000 and w0 = Gc.minor_words () in
    for _ = 1 to n do ignore (Sys.opaque_identity (f ())) done;
    int_of_float ((Gc.minor_words () -. w0) /. float_of_int n)
  in
  match
    timed_ns ?params ~counters:[ ("gc.minor_words", minor_words) ] id label f
  with
  | None -> ()
  | Some _ -> row "    %d minor words per call@." minor_words

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

(* Theorem 5.1(2)'s reduction is faithful when an explanation of the
   3-slot gadget exists exactly when the instance has a cover of at most
   3 sets. A failed check is printed and makes the run exit 1. The
   seed-3 instances ([no_cover]) have no such cover (their smallest has
   4 sets, while their three largest sets hold 14-15 elements
   together), so there both answers must also be no. *)
let existence_failures = ref []

let existence () =
  header "THM5.1" "NP-hardness gadget: EXISTENCE-OF-EXPLANATION vs SET COVER";
  let instance ~seed ~n_sets ~label ~no_cover =
    let sc =
      Whynot_setcover.Setcover.random ~seed ~n_elements:12 ~n_sets
        ~density:0.25 ()
    in
    let g = Whynot_setcover.Reduction.build sc ~slots:3 in
    let exists =
      ok @@ Exhaustive.exists_explanation g.Whynot_setcover.Reduction.ontology
        g.Whynot_setcover.Reduction.whynot
    in
    let cover = Whynot_setcover.Setcover.exists_cover_of_size sc 3 in
    let agree = exists = cover && not (no_cover && cover) in
    row "  seed=%d n_sets=%-3d explanation? %-5b cover<=3? %-5b %s@." seed
      n_sets exists cover
      (if agree then "ok" else "FAIL");
    if not agree then
      existence_failures := label :: !existence_failures;
    timed ~params:[ ("n_sets", float_of_int n_sets) ] "THM5.1" label
      (fun () ->
        ok @@ Exhaustive.exists_explanation g.Whynot_setcover.Reduction.ontology
          g.Whynot_setcover.Reduction.whynot)
  in
  List.iter
    (fun n_sets ->
      instance ~seed:8 ~n_sets ~no_cover:false
        ~label:(Printf.sprintf "existence / sets=%d" n_sets))
    (sweep [ 8; 16; 32 ]);
  List.iter
    (fun n_sets ->
      instance ~seed:3 ~n_sets ~no_cover:true
        ~label:(Printf.sprintf "existence / sets=%d, no cover" n_sets))
    (sweep [ 8; 16 ])

(* ================================================================== *)
(* ALG2: incremental search                                            *)
(* ================================================================== *)

(* The frontier alone, as Algorithm 2 drives it on the 40-city
   question over one warm handle: [make] on the nominal tuple, then the
   search's first accepted absorption through [accepts] and [replace].
   Memberships are those of the selection-free lubs: an id for a
   nominal, one mask inclusion for a mask. The row carries the minor
   words of one call as [gc.minor_words]. *)
let frontier_bench () =
  let module F = Explanation.Frontier in
  let module Subsume_memo = Whynot_concept.Subsume_memo in
  let gi =
    Generate.cities_like ~seed:1 ~n_cities:40 ~n_countries:8
      ~n_connections:80 ()
  in
  let wn = Generate.cities_whynot gi in
  let h = Subsume_memo.inst wn.Whynot.instance in
  let q =
    F.ids ~answers:(F.encode ~handle:h wn.Whynot.answers) ~handle:h wn
  in
  let posmasks = Subsume_memo.posmasks h in
  let member = function
    | `Id x -> Int.equal x
    | `Mask m -> Whynot_concept.Lub.covers h m
  in
  let start = List.init (Whynot.arity wn) (fun j -> `Id (F.missing_id q j)) in
  let make () = Option.get (F.make q member start) in
  let first_absorption =
    let f = make () in
    let rec go j i =
      if i = Array.length posmasks then go (j + 1) 0
      else
        let c =
          `Mask (Bits.inter posmasks.(F.missing_id q j) posmasks.(i))
        in
        if (not (F.mem f j i)) && F.accepts f j c then (j, c) else go j (i + 1)
    in
    go 0 0
  in
  let call () =
    let f = make () in
    let j, c = first_absorption in
    if F.accepts f j c then F.replace f j c;
    f
  in
  timed_words ~params:[ ("cities", 40.) ] "ALG2"
    "Frontier.make + replace / cities=40" call

(* Figure 2 as a warm server session answers it: one engine over the
   cities instance and its question built once, then [one_mge], and
   [check_mge] of its reply. *)
let figure2_bench () =
  let engine =
    ok (Engine.create ~schema:Cities.schema ~instance:Cities.instance ())
  in
  let wn =
    ok
      (Engine.question engine ~query:Cities.two_hop_query
         ~missing:Cities.missing_tuple ())
  in
  let one_mge () = ok (Engine.one_mge engine wn) in
  let e = one_mge () in
  timed_words "ALG2" "Figure 2 one_mge (engine, warm)" one_mge;
  timed_words "ALG2" "Figure 2 check_mge (engine, warm)" (fun () ->
      ok (Engine.check_mge engine wn e))

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
  frontier_bench ();
  figure2_bench ();
  row "-- D4 ablation: constant-offer order --@.";
  let gi = Generate.cities_like ~n_cities:40 ~n_countries:8 ~n_connections:80 () in
  let wn = Generate.cities_whynot gi in
  timed "ALG2" "ascending adom order" (fun () ->
      Incremental.one_mge ~shorten:false ~order:`Ascending wn);
  timed "ALG2" "descending adom order" (fun () ->
      Incremental.one_mge ~shorten:false ~order:`Descending wn);
  (* As a server session runs: one warm engine with a deadline armed,
     and a call is one pass over 240 distinct questions (pairs of
     cities outside the answers) over one query, one_mge and then
     check_mge of its reply for each. A pass rather than one question
     per call, so the row's counters do not depend on how many calls
     the measurement made. *)
  row "-- a warm engine, distinct questions, deadline armed --@.";
  let schema, instance = gi in
  let engine = ok (Engine.create ~schema ~instance ()) in
  let query = wn.Whynot.query in
  let cities =
    Value_set.elements
      (Relation.column 1
         (Instance.relation_or_empty instance ~arity:4 "Cities"))
  in
  let questions =
    List.concat_map (fun a -> List.map (fun b -> [ a; b ]) cities) cities
    |> List.filter (fun m ->
        not (Relation.mem (Tuple.of_list m) wn.Whynot.answers))
    |> List.filteri (fun k _ -> k mod 6 = 0)
    |> List.map (fun missing -> ok (Engine.question engine ~query ~missing ()))
  in
  let n = List.length questions in
  Engine.set_deadline engine (Some (Obs.now_s () +. 1e6));
  let pass () =
    List.iter
      (fun wn ->
         let e = ok (Engine.one_mge engine wn) in
         ignore (ok (Engine.check_mge engine wn e)))
      questions
  in
  pass ();
  match
    timed_ns
      ~params:[ ("cities", 40.); ("questions", float_of_int n) ]
      "ALG2" "warm distinct questions, deadline armed / cities=40" pass
  with
  | Some ns ->
    row "  per question (one_mge + check_mge) %.1f us@."
      (ns /. 1e3 /. float_of_int n)
  | None -> ()

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
  (* The ALG2 40-city question: Lemma 5.2's lubs over a key column and
     four-attribute witness boxes. *)
  let gi = Generate.cities_like ~n_cities:40 ~n_countries:8 ~n_connections:80 () in
  let wn40 = Generate.cities_whynot gi in
  timed ~params:[ ("cities", 40.) ] "ALG2s" "one MGE (sigma) / cities=40"
    (fun () -> Incremental.one_mge ~variant:Incremental.With_selections wn40);
  row "-- D2 ablation: witness boxes vs the interval DFS --@.";
  let wn = make_wn 10 in
  let x =
    Value_set.of_list [ Value.int 0; Value.int 2; Value.int 4 ]
  in
  (* A fresh handle per call: a kept one would answer from its lub cache. *)
  timed "ALG2s" "lub_sigma (witness boxes)" (fun () ->
      Whynot_concept.Lub.lub_sigma
        (Whynot_concept.Subsume_memo.inst wn.Whynot.instance) x);
  timed "ALG2s" "interval DFS pruned" (fun () ->
      Whynot_proptest.Oracle.dfs_lub_sigma ~prune:true wn.Whynot.instance x);
  timed "ALG2s" "interval DFS unpruned" (fun () ->
      Whynot_proptest.Oracle.dfs_lub_sigma ~prune:false wn.Whynot.instance x)

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
(* DL-LiteR reasoning                                                  *)
(* ================================================================== *)

let dllite () =
  header "THM4.1" "DL-LiteR: PTIME saturation and subsumption";
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
           (fun () -> Whynot_dllite.Reasoner.subsumes r b1 b2)
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

(* ================================================================== *)
(* COLD: the handler path warm and after an idle gap                   *)
(* ================================================================== *)

module Protocol = Whynot_server.Protocol
module Handlers = Whynot_server.Handlers

(* The server's work for a one_mge + check_mge pair on a 40-city
   document, in-process and without sockets: [parse_request], then
   [Handlers.handle], then the reply line. Each one_mge asks about a distinct
   non-answer pair and its MGE goes back to check_mge. The same stream
   runs back to back and with a 10 ms sleep before each request, the
   sleep left out of the time: at a hundred arrivals a second every
   request finds the process this cold. Rows hold the mean per request;
   percentiles travel in [params]. *)
let cold_bench () =
  header "COLD" "handler path back to back vs after 10 ms idle (40 cities)";
  let schema, inst =
    Generate.cities_like ~seed:1 ~n_cities:40 ~n_countries:8
      ~n_connections:80 ()
  in
  let query = Cities.two_hop_query in
  let answers = Cq.eval query inst in
  let cities =
    Relation.to_list
      (Relation.project [ 1 ] (Instance.relation_or_empty inst ~arity:4 "Cities"))
    |> List.map (fun t -> Tuple.get t 1)
  in
  let pairs =
    List.concat_map
      (fun a ->
         List.filter_map
           (fun b ->
              if Relation.mem (Tuple.of_list [ a; b ]) answers then None
              else Some [ a; b ])
           cities)
      cities
    |> Array.of_list
  in
  let st = Random.State.make [| 7 |] in
  for i = Array.length pairs - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = pairs.(i) in
    pairs.(i) <- pairs.(j);
    pairs.(j) <- t
  done;
  let text =
    Whynot_proptest.Surface.document schema inst
    ^ "query q(x, y) := Train-Connections(x, z), Train-Connections(z, y)\n"
  in
  let n_pairs = min (Array.length pairs / 5) (if quick then 40 else 200) in
  let deps =
    {
      Handlers.registry =
        Whynot_server.Registry.create ~max_sessions:2;
      domains_default = 1;
      domains_max = 1;
      default_deadline_ms = 0;
      max_deadline_ms = 0;
      debug_ops = false;
      started_at_s = Obs.now_s ();
    }
  in
  let line fields = Wire_json.to_string (Wire_json.Obj fields) in
  (* One request through the server's path: the reply's result, and
     the reply line as the socket would carry it. *)
  let serve l =
    match Protocol.parse_request l with
    | Error m -> failwith ("COLD: " ^ m)
    | Ok req ->
      (match Handlers.handle deps req with
       | Ok json -> (json, Protocol.ok_reply req json)
       | Error (code, m) -> failwith ("COLD: " ^ code ^ ": " ^ m))
  in
  (* With [twin], a second session of the same document takes the same
     request, untimed, right before each timed one: the code is warm and
     only the timed session's data is cold. *)
  let run ?(twin = false) ~label ~session ~offset ~idle_s () =
    let create session =
      ignore
        (serve
           (line
              [
                ("op", Wire_json.String "create");
                ("session", Wire_json.String session);
                ("document", Wire_json.String text);
              ]))
    in
    let twin_session = session ^ "-twin" in
    create session;
    if twin then create twin_session;
    let times = Array.make (2 * n_pairs) 0. in
    let timed k request =
      if idle_s > 0. then Unix.sleepf idle_s;
      if twin then ignore (serve (request twin_session));
      let l = request session in
      let t0 = Obs.now_s () in
      let json, reply = serve l in
      ignore (Sys.opaque_identity reply);
      if k >= 0 then times.(k) <- (Obs.now_s () -. t0) *. 1e9;
      json
    in
    let pair ~k missing =
      let missing = Wire_json.List (List.map Protocol.json_of_value missing) in
      let reply =
        timed (2 * k) (fun session ->
            line
              [
                ("op", Wire_json.String "one_mge");
                ("session", Wire_json.String session);
                ("missing", missing);
              ])
      in
      let mge = Option.get (Wire_json.member "mge" reply) in
      ignore
        (timed ((2 * k) + 1) (fun session ->
             line
               [
                 ("op", Wire_json.String "check_mge");
                 ("session", Wire_json.String session);
                 ("missing", missing);
                 ("explanation", mge);
               ]))
    in
    (* Three untimed pairs from the far end of the stream first, so the
       back-to-back run times warm requests only. *)
    for i = 1 to 3 do
      pair ~k:(-1) pairs.(Array.length pairs - i)
    done;
    for i = 0 to n_pairs - 1 do
      pair ~k:i pairs.((offset + i) mod Array.length pairs)
    done;
    List.iter
      (fun session ->
         ignore
           (serve
              (line
                 [
                   ("op", Wire_json.String "close");
                   ("session", Wire_json.String session);
                 ])))
      (if twin then [ session; twin_session ] else [ session ]);
    let mean_ns = Array.fold_left ( +. ) 0. times /. float_of_int (2 * n_pairs) in
    Array.sort compare times;
    raw_row "COLD" label
      ~params:
        [
          ("requests", float_of_int (2 * n_pairs));
          ("idle_ms", idle_s *. 1e3);
          ("p50_us", percentile_us times 50.);
          ("p90_us", percentile_us times 90.);
        ]
      ~ns:mean_ns ~counters:[];
    row "    p50 %.1f us, p90 %.1f us@." (percentile_us times 50.)
      (percentile_us times 90.)
  in
  (* The same pairs through the public functions the handlers call, one
     clock read per stage: [parse_request]; the session lookup and
     [Engine.question]; the op; reading the explanation's concepts
     (check_mge only); the reply's rendering, envelope and line. A row
     holds a stage's median over its requests. *)
  let stages ~mode ~session ~offset ~idle_s =
    let names =
      [ "parse_request"; "question"; "one_mge"; "check_mge"; "concept intake";
        "render+reply" ]
    in
    let times = List.map (fun name -> (name, ref [])) names in
    ignore
      (serve
         (line
            [
              ("op", Wire_json.String "create");
              ("session", Wire_json.String session);
              ("document", Wire_json.String text);
            ]));
    let s, read_concept =
      Option.get
        (Whynot_server.Registry.find_reading deps.registry session
           ~now:(Obs.now_s ()))
    in
    let engine = s.Whynot_server.Registry.engine in
    let query = Option.get s.Whynot_server.Registry.query in
    let timing = ref false in
    (* Stages take a few microseconds: a nanosecond clock. *)
    let ns () = Int64.to_float (Monotonic_clock.now ()) in
    let stage name f =
      let t0 = ns () in
      let v = f () in
      if !timing then begin
        let l = List.assoc name times in
        l := (ns () -. t0) :: !l
      end;
      v
    in
    let request l k =
      if idle_s > 0. then Unix.sleepf idle_s;
      let req =
        stage "parse_request" (fun () ->
            Result.get_ok (Protocol.parse_request l))
      in
      let wn =
        stage "question" (fun () ->
            ignore
              (Whynot_server.Registry.find_reading deps.registry session
                 ~now:(Obs.now_s ()));
            let missing =
              Result.get_ok
                (Protocol.values_of_json
                   (Option.get (Protocol.list_param req "missing")))
            in
            Result.get_ok (Engine.question engine ~query ~missing ()))
      in
      let result = k req wn in
      stage "render+reply" (fun () ->
          ignore
            (Sys.opaque_identity (Protocol.ok_reply req result)));
      result
    in
    let pair missing =
      let missing = Wire_json.List (List.map Protocol.json_of_value missing) in
      let fields op rest =
        line
          ([ ("op", Wire_json.String op); ("session", Wire_json.String session);
             ("missing", missing) ]
           @ rest)
      in
      let reply =
        request (fields "one_mge" []) (fun _ wn ->
            let e =
              stage "one_mge" (fun () ->
                  Result.get_ok (Engine.one_mge engine wn))
            in
            Wire_json.Obj
              [
                ("missing", missing);
                ("mge", Handlers.json_of_explanation s.Whynot_server.Registry.schema e);
              ])
      in
      let mge = Option.get (Wire_json.member "mge" reply) in
      ignore
        (request (fields "check_mge" [ ("explanation", mge) ]) (fun req wn ->
             let e =
               stage "concept intake" (fun () ->
                   List.map
                     (fun j ->
                        Result.get_ok
                          (read_concept (Option.get (Wire_json.to_string_opt j))))
                     (Option.get (Protocol.list_param req "explanation")))
             in
             let ok =
               stage "check_mge" (fun () ->
                   Result.get_ok (Engine.check_mge engine wn e))
             in
             Wire_json.Obj [ ("is_mge", Wire_json.Bool ok) ]))
    in
    for i = 1 to 3 do
      pair pairs.(Array.length pairs - i)
    done;
    timing := true;
    for i = 0 to n_pairs - 1 do
      pair pairs.((offset + i) mod Array.length pairs)
    done;
    ignore
      (serve
         (line
            [
              ("op", Wire_json.String "close");
              ("session", Wire_json.String session);
            ]));
    List.iter
      (fun (name, l) ->
         let a = Array.of_list !l in
         Array.sort compare a;
         let p50 = percentile_us a 50. in
         raw_row "COLD"
           (Printf.sprintf "stage %s, %s (median)" name mode)
           ~params:
             [
               ("requests", float_of_int (Array.length a));
               ("idle_ms", idle_s *. 1e3);
               ("p50_us", p50);
               ("p90_us", percentile_us a 90.);
             ]
           ~ns:(p50 *. 1e3) ~counters:[])
      times
  in
  (* Distinct pairs in each run, so none reuses another's questions. *)
  run ~label:"one_mge + check_mge, back to back" ~session:"warm" ~offset:0
    ~idle_s:0. ();
  run ~label:"one_mge + check_mge, 10 ms idle before each" ~session:"cold"
    ~offset:n_pairs ~idle_s:0.01 ();
  run ~twin:true
    ~label:"one_mge + check_mge, 10 ms idle, code warm (twin session first)"
    ~session:"data-cold" ~offset:(2 * n_pairs) ~idle_s:0.01 ();
  stages ~mode:"back to back" ~session:"warm-stages" ~offset:(3 * n_pairs)
    ~idle_s:0.;
  stages ~mode:"10 ms idle" ~session:"cold-stages" ~offset:(4 * n_pairs)
    ~idle_s:0.01

(* ================================================================== *)
(* INTAKE: one session's create, document to instance and views        *)
(* ================================================================== *)

(* [create] of a [Generate.cities_like] document as the server takes
   it: [Protocol.parse_request], then [Handlers.handle_at], each create
   followed by an untimed close. A row holds the median over its
   creates, and the minor words one create allocates. *)
let intake_bench () =
  header "INTAKE" "create: parse, relations built once, views materialised";
  List.iter
    (fun (n_cities, reps) ->
       let schema, inst =
         Generate.cities_like ~seed:1 ~n_cities
           ~n_countries:(max 2 (n_cities / 5)) ~n_connections:(2 * n_cities) ()
       in
       let text =
         Whynot_proptest.Surface.document schema inst
         ^ "query q(x, y) := Train-Connections(x, z), Train-Connections(z, y)\n"
       in
       let deps =
         {
           Handlers.registry = Whynot_server.Registry.create ~max_sessions:2;
           domains_default = 1;
           domains_max = 1;
           default_deadline_ms = 0;
           max_deadline_ms = 0;
           debug_ops = false;
           started_at_s = Obs.now_s ();
         }
       in
       let line op extra =
         Wire_json.to_string
           (Wire_json.Obj
              ([ ("op", Wire_json.String op);
                 ("session", Wire_json.String "intake") ]
               @ extra))
       in
       let create = line "create" [ ("document", Wire_json.String text) ]
       and close = line "close" [] in
       let serve l =
         match Protocol.parse_request l with
         | Error m -> failwith ("INTAKE: " ^ m)
         | Ok req ->
           (match Handlers.handle_at deps req ~now:(Obs.now_s ()) with
            | Ok _ -> ()
            | Error (code, m) -> failwith ("INTAKE: " ^ code ^ ": " ^ m))
       in
       serve create;
       serve close;
       let times = Array.make reps 0. and words = ref 0. in
       for k = 0 to reps - 1 do
         let w0 = Gc.minor_words () in
         let t0 = Unix.gettimeofday () in
         serve create;
         times.(k) <- (Unix.gettimeofday () -. t0) *. 1e9;
         words := Gc.minor_words () -. w0;
         serve close
       done;
       Array.sort compare times;
       raw_row "INTAKE"
         (Printf.sprintf "create, %d cities (median)" n_cities)
         ~params:
           [
             ("n_cities", float_of_int n_cities);
             ("bytes", float_of_int (String.length text));
             ("creates", float_of_int reps);
             ("minor_words", !words);
             ("best_us", times.(0) /. 1e3);
           ]
         ~ns:(percentile_us times 50. *. 1e3) ~counters:[];
       row "    %.0f minor words per create, best %.1f us@." !words
         (times.(0) /. 1e3))
    (if quick then [ (40, 20); (160, 10); (640, 5); (2560, 3) ]
     else [ (40, 200); (160, 100); (640, 30); (2560, 10) ])

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
  cold_bench ();
  intake_bench ();
  match profile_row with
  | Some name ->
    Printf.eprintf "bench: no row %S to profile\n" name;
    exit 2
  | None ->
    write_report "BENCH_whynot.json";
    (match List.rev !existence_failures with
     | [] -> Format.printf "@.done.@."
     | labels ->
       Printf.eprintf "bench: THM5.1 explanation/cover check failed on: %s\n"
         (String.concat "; " labels);
       exit 1)
