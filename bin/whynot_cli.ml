(* Command-line interface: load a why-not document (schema, facts, query,
   why-not tuple, optional ontologies) and explain the missing tuple
   through the [Whynot.Engine] facade.

   Every subcommand prints one JSON envelope on stdout,

     {"schema_version": 2, "command": "...", "result": ...}
     {"schema_version": 2, "command": "...", "error": {"code", "message"}}

   and exits 0 (ok), 1 (the question has no explanation / the tuple is not
   an answer), or 2 (error). Logs and --stats tables go to stderr so the
   envelope stays machine-readable.

   See `examples/data/cities.whynot` for the input format, and the Parser
   module documentation for the grammar. *)

(* Bind the facade before [open Whynot_core] shadows the [Whynot] name
   with the core question module. *)
module Engine = Whynot.Engine
module Json = Whynot.Json

open Cmdliner
open Whynot_relational
open Whynot_core
module Parser = Whynot_text.Parser

let ( let* ) = Result.bind

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ~app:Format.err_formatter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let dump_stats stats =
  if stats then Format.eprintf "@.-- stats --@.%a" Whynot_obs.Obs.pp ()

(* Run one subcommand body: [f ()] returns [Ok (result_json, exit_code)] or
   an engine error; either way exactly one envelope is printed. *)
let wrap command f =
  match f () with
  | Ok (result, code) ->
    print_endline (Json.to_string (Json.envelope ~command result));
    code
  | Error err ->
    print_endline (Json.to_string (Json.error_envelope ~command err));
    2

let json_of_value = function
  | Value.Int n -> Json.Int n
  | Value.Real x -> Json.Float x
  | Value.Str s -> Json.String s

let json_of_tuple t = Json.List (List.map json_of_value (Tuple.to_list t))

let json_of_explanation (o : _ Ontology.t) e =
  Json.List
    (List.map
       (fun c -> Json.String (Format.asprintf "%a" o.Ontology.pp c))
       e)

(* --- common flags --- *)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"After the command, print the engine's observability \
                 counters to stderr (subsumption calls vs cache hits, \
                 candidates explored, ...).")

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

(* --- check --- *)

let check_cmd =
  let run path =
    wrap "check" @@ fun () ->
    let* doc = Parser.parse_file path in
    let* schema = Parser.schema_of doc in
    let inst = Parser.instance_of doc in
    let constraints =
      match Schema.satisfies schema inst with
      | Ok () -> Json.Obj [ ("satisfied", Json.Bool true) ]
      | Error msg ->
        Json.Obj
          [ ("satisfied", Json.Bool false); ("violation", Json.String msg) ]
    in
    let whynot =
      match Parser.whynot_of doc with
      | Ok wn -> Json.String (Format.asprintf "%a" Whynot.pp wn)
      | Error e -> Json.String (Whynot_error.to_string e)
    in
    let hand =
      match Parser.hand_ontology_of doc with
      | Some o ->
        Json.Int (List.length (Option.value ~default:[] o.Ontology.concepts))
      | None -> Json.Null
    in
    let* obda = Parser.obda_spec_of doc in
    let obda_json =
      match obda with
      | Some spec ->
        Json.Obj
          [
            ( "tbox_axioms",
              Json.Int (Whynot_dllite.Tbox.size (Whynot_obda.Spec.tbox spec)) );
            ( "mappings",
              Json.Int (List.length (Whynot_obda.Spec.mappings spec)) );
          ]
      | None -> Json.Null
    in
    Ok
      ( Json.Obj
          [
            ("relations", Json.Int (List.length (Schema.relations schema)));
            ("fds", Json.Int (List.length (Schema.fds schema)));
            ("inds", Json.Int (List.length (Schema.inds schema)));
            ( "views",
              Json.Int
                (List.length
                   (Whynot_relational.View.defs (Schema.views schema))) );
            ("facts", Json.Int (Instance.fact_count inst));
            ("adom", Json.Int (Value_set.cardinal (Instance.adom inst)));
            ("constraints", constraints);
            ("whynot", whynot);
            ("hand_ontology_concepts", hand);
            ("obda", obda_json);
          ],
        0 )
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and validate a why-not document.")
    Term.(const run $ path_arg)

(* --- answers --- *)

let answers_cmd =
  let run path =
    wrap "answers" @@ fun () ->
    let* doc = Parser.parse_file path in
    match doc.Parser.query with
    | None -> Error (`Missing_input "no query in document")
    | Some (name, q) ->
      let inst = Parser.instance_of doc in
      let result = Cq.eval q inst in
      let tuples = ref [] in
      Relation.iter (fun t -> tuples := json_of_tuple t :: !tuples) result;
      Ok
        ( Json.Obj
            [
              ("query", Json.String name);
              ("count", Json.Int (Relation.cardinal result));
              ("answers", Json.List (List.rev !tuples));
            ],
          0 )
  in
  Cmd.v
    (Cmd.info "answers" ~doc:"Evaluate the document's query.")
    Term.(const run $ path_arg)

(* --- explain --- *)

type ontology_choice =
  | Hand
  | Obda
  | From_instance
  | From_schema

let ontology_conv =
  Arg.enum
    [ ("hand", Hand); ("obda", Obda); ("instance", From_instance);
      ("schema", From_schema) ]

let with_engine ?schema ~instance f =
  let* engine = Engine.create ?schema ~instance () in
  let finish r =
    let* () = Engine.close engine in
    r
  in
  match f engine with
  | r -> finish r
  | exception exn ->
    ignore (Engine.close engine);
    raise exn

let mges_result ~ontology_name o mges =
  Ok
    ( Json.Obj
        [
          ("ontology", Json.String ontology_name);
          ("count", Json.Int (List.length mges));
          ("mges", Json.List (List.map (json_of_explanation o) mges));
        ],
      if mges = [] then 1 else 0 )

let explain_cmd =
  let run path choice selections all verbose stats =
    setup_logs verbose;
    let code =
      wrap "explain" @@ fun () ->
      let* doc = Parser.parse_file path in
      let* wn = Parser.whynot_of doc in
      let take mges = if all then mges else
          match mges with [] -> [] | e :: _ -> [ e ] in
      match choice with
      | Hand ->
        (match Parser.hand_ontology_of doc with
         | None ->
           Error (`Missing_input "no hand ontology in document (ext items)")
         | Some o ->
           with_engine ~instance:wn.Whynot.instance @@ fun engine ->
           let* mges = Engine.all_mges_finite engine o wn in
           mges_result ~ontology_name:"hand" o (take mges))
      | Obda ->
        let* obda = Parser.obda_spec_of doc in
        (match obda with
         | None -> Error (`Missing_input "no OBDA specification in document")
         | Some spec ->
           let induced =
             Whynot_obda.Induced.prepare spec wn.Whynot.instance
           in
           (match Whynot_obda.Induced.consistent induced with
            | Ok () -> ()
            | Error msg ->
              Format.eprintf
                "warning: retrieved assertions inconsistent: %s@." msg);
           let o = Ontology.of_obda induced in
           with_engine ~instance:wn.Whynot.instance @@ fun engine ->
           let* mges = Engine.all_mges_finite engine o wn in
           mges_result ~ontology_name:"O_B" o (take mges))
      | From_instance ->
        let variant =
          if selections then Incremental.With_selections
          else Incremental.Selection_free
        in
        with_engine ~instance:wn.Whynot.instance @@ fun engine ->
        let* e = Engine.one_mge ~variant engine wn in
        let o = Ontology.of_instance wn.Whynot.instance in
        Ok
          ( Json.Obj
              [
                ("ontology", Json.String "O_I");
                ("count", Json.Int 1);
                ("mges", Json.List [ json_of_explanation o e ]);
              ],
            0 )
      | From_schema ->
        let* schema = Parser.schema_of doc in
        with_engine ~schema ~instance:wn.Whynot.instance
        @@ fun engine ->
        let* mges = Engine.all_mges_schema engine wn in
        let o =
          Schema_mge.ontology ~handle:(Engine.instance_handle engine)
            `Minimal schema wn
        in
        mges_result ~ontology_name:"O_S[K]-min" o (take mges)
    in
    dump_stats stats;
    code
  in
  let choice =
    Arg.(value & opt ontology_conv From_instance
         & info [ "o"; "ontology" ]
             ~doc:"Ontology to explain with: $(b,hand), $(b,obda), \
                   $(b,instance) (O_I, default) or $(b,schema) (O_S).")
  in
  let selections =
    Arg.(value & flag
         & info [ "selections" ]
             ~doc:"With $(b,--ontology=instance): allow selections in \
                   concepts (Theorem 5.4 variant of Algorithm 2).")
  in
  let all =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"With finite ontologies: report every most-general \
                   explanation instead of one.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Compute most-general explanation(s) for the document's why-not \
             question. Exits 1 when no explanation exists.")
    Term.(const run $ path_arg $ choice $ selections $ all $ verbose_arg
          $ stats_arg)

(* --- subsume --- *)

type wrt =
  | Wrt_instance
  | Wrt_schema

let subsume_cmd =
  let run path wrt c1_src c2_src verbose stats =
    setup_logs verbose;
    let code =
      wrap "subsume" @@ fun () ->
      let* doc = Parser.parse_file path in
      let read_concept = Parser.concept_reader doc in
      let* c1 = read_concept c1_src in
      let* c2 = read_concept c2_src in
      let* schema = Parser.schema_of doc in
      let inst = Parser.instance_of doc in
      let pp_c = Whynot_concept.Ls.pp ~schema () in
      let str_c c = Format.asprintf "%a" pp_c c in
      let wrt_name, verdict =
        match wrt with
        | Wrt_instance ->
          ( "instance",
            Json.Bool (Whynot_concept.Subsume_inst.subsumes inst c1 c2) )
        | Wrt_schema ->
          ( "schema",
            Json.String
              (Format.asprintf "%a" Whynot_concept.Subsume_schema.pp_verdict
                 (Whynot_concept.Subsume_schema.decide schema c1 c2)) )
      in
      Ok
        ( Json.Obj
            [
              ("c1", Json.String (str_c c1));
              ("c2", Json.String (str_c c2));
              ("wrt", Json.String wrt_name);
              ("verdict", verdict);
            ],
          0 )
    in
    dump_stats stats;
    code
  in
  let c1 = Arg.(required & pos 1 (some string) None & info [] ~docv:"CONCEPT1") in
  let c2 = Arg.(required & pos 2 (some string) None & info [] ~docv:"CONCEPT2") in
  let wrt =
    Arg.(value
         & opt (enum [ ("instance", Wrt_instance); ("schema", Wrt_schema) ])
             Wrt_instance
         & info [ "wrt" ]
             ~doc:"Compare w.r.t. the $(b,instance) (⊑_I, default) or the \
                   $(b,schema) (⊑_S).")
  in
  Cmd.v
    (Cmd.info "subsume"
       ~doc:"Decide concept subsumption, e.g. \
             'Cities.name[continent = \"Europe\"]' 'Cities.name'.")
    Term.(const run $ path_arg $ wrt $ c1 $ c2 $ verbose_arg $ stats_arg)

(* --- why (the dual problem) --- *)

let why_cmd =
  let run path tuple_src selections stats =
    let code =
      wrap "why" @@ fun () ->
      let* doc = Parser.parse_file path in
      let* witness = Parser.values_of_string tuple_src in
      match doc.Parser.query with
      | None -> Error (`Missing_input "no query in document")
      | Some (_, q) ->
        let inst = Parser.instance_of doc in
        let* why = Why.make ~instance:inst ~query:q ~witness () in
        let variant =
          if selections then Incremental.With_selections
          else Incremental.Selection_free
        in
        let e = Why.one_mge ~variant why in
        let o = Ontology.of_instance inst in
        Ok
          ( Json.Obj
              [
                ("witness", Json.List (List.map json_of_value witness));
                ("explanation", json_of_explanation o e);
              ],
            0 )
    in
    dump_stats stats;
    code
  in
  let tuple =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"TUPLE" ~doc:"e.g. '\"Amsterdam\", \"Rome\"'")
  in
  let selections =
    Arg.(value & flag & info [ "selections" ] ~doc:"Allow selections.")
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:"Explain why a tuple IS an answer (the dual problem, §7).")
    Term.(const run $ path_arg $ tuple $ selections $ stats_arg)

(* --- provenance --- *)

let provenance_cmd =
  let run path tuple_src =
    wrap "provenance" @@ fun () ->
    let* doc = Parser.parse_file path in
    let* values = Parser.values_of_string tuple_src in
    match doc.Parser.query with
    | None -> Error (`Missing_input "no query in document")
    | Some (name, q) ->
      let inst = Parser.instance_of doc in
      let tuple = Tuple.of_list values in
      let ws = Provenance.witnesses q inst tuple in
      let schema = Result.to_option (Parser.schema_of doc) in
      let witness_json w =
        Json.List
          (List.map
             (fun (rel, t) ->
                let base =
                  [ ("relation", Json.String rel); ("tuple", json_of_tuple t) ]
                in
                let derivation =
                  match schema with
                  | None -> []
                  | Some schema ->
                    let views = Schema.views schema in
                    if View.is_view views rel then
                      match Provenance.derive_one views inst rel t with
                      | Some d ->
                        [ ( "derivation",
                            Json.String
                              (Format.asprintf "%a" Provenance.pp_derivation d)
                          ) ]
                      | None -> []
                    else []
                in
                Json.Obj (base @ derivation))
             w.Provenance.facts)
      in
      Ok
        ( Json.Obj
            [
              ("query", Json.String name);
              ("tuple", Json.List (List.map json_of_value values));
              ("is_answer", Json.Bool (ws <> []));
              ("witnesses", Json.List (List.map witness_json ws));
            ],
          if ws = [] then 1 else 0 )
  in
  let tuple =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TUPLE")
  in
  Cmd.v
    (Cmd.info "provenance"
       ~doc:"Show why-provenance (witnesses and derivations) for a tuple \
             that IS an answer. Exits 1 when it is not an answer.")
    Term.(const run $ path_arg $ tuple)

(* --- eval (Datalog rules) --- *)

let eval_cmd =
  let run path =
    wrap "eval" @@ fun () ->
    let* doc = Parser.parse_file path in
    let* prog = Parser.program_of doc in
    match prog with
    | None -> Error (`Missing_input "no rule items in document")
    | Some prog ->
      let inst = Parser.instance_of doc in
      let out = Whynot_datalog.Program.eval prog inst in
      let relations =
        List.filter_map
          (fun p ->
             match Instance.relation out p with
             | None -> None
             | Some r ->
               let tuples = ref [] in
               Relation.iter (fun t -> tuples := json_of_tuple t :: !tuples) r;
               Some (p, Json.List (List.rev !tuples)))
          (Whynot_datalog.Program.idb_predicates prog)
      in
      Ok (Json.Obj [ ("relations", Json.Obj relations) ], 0)
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Evaluate the document's Datalog rules (semi-naive, stratified \
             negation) and print the derived relations.")
    Term.(const run $ path_arg)

let main =
  Cmd.group
    (Cmd.info "whynot" ~version:"2.0.0"
       ~doc:"High-level why-not explanations using ontologies (PODS 2015).")
    [ check_cmd; answers_cmd; explain_cmd; subsume_cmd; why_cmd;
      provenance_cmd; eval_cmd ]

let () = exit (Cmd.eval' main)
