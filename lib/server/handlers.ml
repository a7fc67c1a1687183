(* One handler per wire operation. Handlers never touch sockets: they
   turn a parsed request into [Ok result_json] or [Error (code, message)]
   and let the server layer do the enveloping and metering. *)

open Whynot_relational
module Obs = Whynot_obs.Obs
module Parser = Whynot_text.Parser
module Engine = Whynot.Engine
module Ls = Whynot_concept.Ls
module Wjson = Protocol.Wjson

type deps = {
  registry : Registry.t;
  domains_default : int;
  domains_max : int;
  default_deadline_ms : int;
  max_deadline_ms : int;
  debug_ops : bool;
  started_at_s : float;
}

let c_sessions_created =
  Obs.counter "server.sessions.created" ~doc:"sessions opened over the wire"

let c_sessions_closed =
  Obs.counter "server.sessions.closed"
    ~doc:"sessions closed (explicitly, swept, or drained)"

let c_sessions_swept =
  Obs.counter "server.sessions.swept" ~doc:"sessions evicted by the idle TTL"

let known_ops =
  [
    "ping"; "create"; "question"; "one_mge"; "all_mges"; "check_mge";
    "stats"; "close"; "debug_sleep";
  ]

(* --- small helpers --- *)

let err code fmt = Printf.ksprintf (fun m -> Error (code, m)) fmt

let of_result = function
  | Ok v -> Ok v
  | Error e -> Error (Whynot_error.code e, Whynot_error.message e)

let ( let* ) r k = match r with Ok v -> k v | Error _ as e -> e

(* Concepts travel the wire in the text format's grammar
   ([Cities.name[population >= 5000000] & {"Rome"}]) so a client can feed
   a response concept straight back into [check_mge]. The renderer is the
   inverse of [Parser.concept_reader] over the session's schema. *)

let attr_label schema ~rel attr =
  match Schema.attr_name schema ~rel attr with
  | Some name -> name
  | None -> string_of_int attr

let render_concept schema c =
  match Ls.conjuncts c with
  | [] -> "top"
  | conjuncts ->
    conjuncts
    |> List.map (function
         | Ls.Nominal v -> "{" ^ Value.to_string v ^ "}"
         | Ls.Proj { rel; attr; sels } ->
           let proj = rel ^ "." ^ attr_label schema ~rel attr in
           (match sels with
            | [] -> proj
            | _ ->
              proj ^ "["
              ^ String.concat ", "
                  (List.map
                     (fun (s : Ls.selection) ->
                        String.concat " "
                          [
                            attr_label schema ~rel s.Ls.attr;
                            Cmp_op.to_string s.Ls.op;
                            Value.to_string s.Ls.value;
                          ])
                     sels)
              ^ "]"))
    |> String.concat " & "

let json_of_explanation schema e =
  Wjson.List (List.map (fun c -> Wjson.String (render_concept schema c)) e)

let variant_of req =
  match Protocol.str_param req "variant" with
  | None | Some "selection-free" -> Ok Whynot_core.Incremental.Selection_free
  | Some "with-selections" -> Ok Whynot_core.Incremental.With_selections
  | Some other ->
    err "missing-input"
      "unknown variant %S (expected \"selection-free\" or \"with-selections\")"
      other

(* --- session lifecycle --- *)

let empty_doc relations fds inds views =
  {
    Parser.relations;
    fds;
    inds;
    views;
    facts = [];
    query = None;
    whynot_tuple = None;
    concepts = [];
    extensions = [];
    tbox_axioms = [];
    mappings = [];
    rules = [];
  }

let workload_parts = function
  | "cities" ->
    Ok
      ( Whynot_workload.Cities.schema,
        Whynot_workload.Cities.instance,
        Some Whynot_workload.Cities.two_hop_query,
        Some Whynot_workload.Cities.missing_tuple )
  | "retail" ->
    Ok
      ( Whynot_workload.Retail.schema,
        Whynot_workload.Retail.instance,
        Some Whynot_workload.Retail.in_stock_query,
        Some Whynot_workload.Retail.missing_tuple )
  | other ->
    err "missing-input" "unknown workload %S (expected \"cities\" or \"retail\")"
      other

let handle_create deps req =
  let* name =
    match req.Protocol.session with
    | Some n when n <> "" -> Ok n
    | _ -> err "missing-input" "\"create\" requires a non-empty \"session\" name"
  in
  (* ["domains"] is range-checked and echoed; every engine runs on one
     domain. *)
  let* domains =
    match Protocol.int_param req "domains" with
    | None -> Ok deps.domains_default
    | Some d when d >= 1 && d <= deps.domains_max -> Ok d
    | Some d ->
      err "invalid-config" "\"domains\" must be between 1 and %d, got %d"
        deps.domains_max d
  in
  let* schema, instance, query, default_missing, doc, source =
    match
      (Protocol.str_param req "workload", Protocol.str_param req "document")
    with
    | Some _, Some _ ->
      err "missing-input" "\"workload\" and \"document\" are mutually exclusive"
    | Some w, None ->
      let* schema, instance, query, missing = workload_parts w in
      let doc =
        empty_doc (Schema.relations schema) (Schema.fds schema)
          (Schema.inds schema)
          (View.defs (Schema.views schema))
      in
      (* Workload sessions share the immutable instance; each engine owns
         its memo handles and the eval indexes they read through. *)
      Ok (schema, instance, query, missing, doc, Registry.Workload w)
    | None, Some text ->
      let* doc = of_result (Parser.parse text) in
      let* schema = of_result (Parser.schema_of doc) in
      Ok
        ( schema,
          Parser.instance_of doc,
          Option.map snd doc.Parser.query,
          doc.Parser.whynot_tuple,
          doc,
          Registry.Inline )
    | None, None ->
      err "missing-input" "\"create\" requires a \"workload\" or a \"document\""
  in
  let* engine = of_result (Engine.create ~schema ~instance ()) in
  let now = Obs.now_s () in
  let session =
    {
      Registry.name;
      doc;
      schema;
      engine;
      query;
      default_missing;
      source;
      created_at_s = now;
      lock = Mutex.create ();
      last_used_s = now;
    }
  in
  match Registry.add deps.registry session with
  | Ok () ->
    Obs.incr c_sessions_created;
    Ok
      (Wjson.Obj
         [
           ("session", Wjson.String name);
           ("domains", Wjson.Int domains);
           ( "relations",
             Wjson.Int (List.length (Schema.relations schema)) );
           ("has_query", Wjson.Bool (query <> None));
         ])
  | Error reason ->
    (* The engine never made it into the table: close it here. *)
    ignore (Engine.close engine);
    (match reason with
     | `Exists -> err "session-exists" "session %S already exists" name
     | `Full -> err "session-limit" "the server's session table is full")

let close_session ~swept (s : Registry.session) =
  Mutex.protect s.Registry.lock (fun () ->
    ignore (Engine.close s.Registry.engine));
  Obs.incr c_sessions_closed;
  if swept then Obs.incr c_sessions_swept

(* --- session-scoped dispatch --- *)

let deadline_of deps req =
  let requested = Protocol.int_param req "deadline_ms" in
  let ms =
    match requested with
    | Some ms -> Some ms
    | None ->
      if deps.default_deadline_ms > 0 then Some deps.default_deadline_ms
      else None
  in
  match ms with
  | None -> None
  | Some ms ->
    let ms =
      if deps.max_deadline_ms > 0 then min ms deps.max_deadline_ms else ms
    in
    Some (Obs.now_s () +. (float_of_int (max ms 0) /. 1000.))

(* [k s read_concept]: the session and its concept reader. *)
let with_session deps req k =
  match req.Protocol.session with
  | None -> err "missing-input" "\"%s\" requires a \"session\"" req.Protocol.op
  | Some name -> (
    match Registry.find_reading deps.registry name with
    | None -> err "unknown-session" "no session named %S" name
    | Some (s, read_concept) ->
      Mutex.protect s.Registry.lock (fun () ->
        Engine.set_deadline s.Registry.engine (deadline_of deps req);
        Fun.protect
          ~finally:(fun () -> Engine.set_deadline s.Registry.engine None)
          (fun () -> k s read_concept)))

let question_of (s : Registry.session) req =
  let* missing =
    match Protocol.list_param req "missing" with
    | Some js -> (
      match Protocol.values_of_json js with
      | Ok vs -> Ok vs
      | Error m -> Error ("missing-input", m))
    | None -> (
      match s.Registry.default_missing with
      | Some vs -> Ok vs
      | None ->
        err "missing-input"
          "no \"missing\" tuple given and the session has no default")
  in
  let* query =
    match s.Registry.query with
    | Some q -> Ok q
    | None ->
      err "missing-input"
        "the session's document declares no query; \"question\" needs one"
  in
  let* wn =
    of_result (Engine.question s.Registry.engine ~query ~missing ())
  in
  Ok (wn, missing)

let handle_question deps req =
  with_session deps req (fun s _ ->
    let* wn, missing = question_of s req in
    Ok
      (Wjson.Obj
         [
           ("missing", Wjson.List (List.map Protocol.json_of_value missing));
           ("answers", Wjson.Int (Relation.cardinal wn.Whynot_core.Whynot.answers));
           ( "constants",
             Wjson.Int
               (Value_set.cardinal
                  (Engine.constant_pool s.Registry.engine wn)) );
         ]))

let handle_one_mge deps req =
  with_session deps req (fun s _ ->
    let* wn, missing = question_of s req in
    let* variant = variant_of req in
    let* mge =
      of_result (Engine.one_mge ~variant s.Registry.engine wn)
    in
    Ok
      (Wjson.Obj
         [
           ("missing", Wjson.List (List.map Protocol.json_of_value missing));
           ("mge", json_of_explanation s.Registry.schema mge);
         ]))

let handle_all_mges deps req =
  with_session deps req (fun s _ ->
    let* wn, _missing = question_of s req in
    let* mges = of_result (Engine.all_mges s.Registry.engine wn) in
    Ok
      (Wjson.Obj
         [
           ("count", Wjson.Int (List.length mges));
           ( "mges",
             Wjson.List
               (List.map (json_of_explanation s.Registry.schema) mges) );
         ]))

let handle_check_mge deps req =
  with_session deps req (fun s read_concept ->
    let* wn, _missing = question_of s req in
    let* variant = variant_of req in
    let* concept_srcs =
      match Protocol.list_param req "explanation" with
      | None ->
        err "missing-input"
          "\"check_mge\" requires an \"explanation\" (a list of concepts)"
      | Some js ->
        let rec strings acc = function
          | [] -> Ok (List.rev acc)
          | Wjson.String s :: rest -> strings (s :: acc) rest
          | j :: _ ->
            err "missing-input" "concepts must be strings, found %s"
              (Wjson.to_string j)
        in
        strings [] js
    in
    let* explanation =
      List.fold_left
        (fun acc src ->
           let* acc = acc in
           let* c = of_result (read_concept src) in
           Ok (c :: acc))
        (Ok []) concept_srcs
      |> Result.map List.rev
    in
    let* is_mge =
      of_result
        (Engine.check_mge ~variant s.Registry.engine wn explanation)
    in
    Ok (Wjson.Obj [ ("is_mge", Wjson.Bool is_mge) ]))

let handle_close deps req =
  match req.Protocol.session with
  | None -> err "missing-input" "\"close\" requires a \"session\""
  | Some name -> (
    match Registry.remove deps.registry name with
    | None -> err "unknown-session" "no session named %S" name
    | Some s ->
      close_session ~swept:false s;
      Ok (Wjson.Obj [ ("closed", Wjson.Bool true) ]))

let handle_stats deps _req =
  let uptime_ms =
    int_of_float ((Obs.now_s () -. deps.started_at_s) *. 1000.)
  in
  let counters =
    List.map (fun (name, v) -> (name, Wjson.Int v)) (Obs.snapshot ())
  in
  Ok
    (Wjson.Obj
       [
         ("uptime_ms", Wjson.Int uptime_ms);
         ("sessions", Wjson.Int (Registry.count deps.registry));
         ("counters", Wjson.Obj counters);
       ])

let handle_debug_sleep deps req =
  if not deps.debug_ops then
    err "unknown-op" "unknown operation \"debug_sleep\""
  else begin
    let ms = Option.value (Protocol.int_param req "ms") ~default:100 in
    let ms = max 0 (min ms 60_000) in
    Thread.delay (float_of_int ms /. 1000.);
    match Protocol.str_param req "fail" with
    | Some msg -> failwith msg
    | None -> Ok (Wjson.Obj [ ("slept_ms", Wjson.Int ms) ])
  end

let handle deps req =
  match req.Protocol.op with
  | "ping" -> Ok (Wjson.Obj [ ("pong", Wjson.Bool true) ])
  | "create" -> handle_create deps req
  | "question" -> handle_question deps req
  | "one_mge" -> handle_one_mge deps req
  | "all_mges" -> handle_all_mges deps req
  | "check_mge" -> handle_check_mge deps req
  | "stats" -> handle_stats deps req
  | "close" -> handle_close deps req
  | "debug_sleep" -> handle_debug_sleep deps req
  | other -> err "unknown-op" "unknown operation %S" other
