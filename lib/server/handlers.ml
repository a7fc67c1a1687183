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

let op_names = Array.of_list known_ops

let rec scan_ops op i =
  if i = Array.length op_names then -1
  else if String.equal op_names.(i) op then i
  else scan_ops op (i + 1)

let op_index op = scan_ops op 0

(* --- small helpers --- *)

let err code fmt = Printf.ksprintf (fun m -> Error (code, m)) fmt

let error_of e = Error (Whynot_error.code e, Whynot_error.message e)
let of_result = function Ok v -> Ok v | Error e -> error_of e

let ( let* ) r k = match r with Ok v -> k v | Error _ as e -> e

(* Concepts travel the wire in the text format's grammar
   ([Cities.name[population >= 5000000] & {"Rome"}]) so a client can feed
   a response concept straight back into [check_mge]. *)

let rec json_of_concepts schema = function
  | [] -> []
  | c :: rest ->
    Wjson.String (Parser.render_concept schema c)
    :: json_of_concepts schema rest

let json_of_explanation schema e = Wjson.List (json_of_concepts schema e)

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
          Parser.instance_of ~schema doc,
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

(* --- session-scoped dispatch ---

   One direct path per op: the request's session, its question, the op,
   its result. The request's one clock reading [now] gives both the
   deadline and the session's [last_used_s]. *)

let deadline_of deps req ~now =
  match Protocol.int_param req "deadline_ms" with
  | None when deps.default_deadline_ms <= 0 -> None
  | requested ->
    let ms =
      match requested with Some ms -> ms | None -> deps.default_deadline_ms
    in
    let ms =
      if deps.max_deadline_ms > 0 then Int.min ms deps.max_deadline_ms else ms
    in
    Some (now +. (float_of_int (Int.max ms 0) /. 1000.))

let question_of (s : Registry.session) req =
  let missing =
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
  match missing with
  | Error _ as e -> e
  | Ok missing -> (
    match s.Registry.query with
    | None ->
      err "missing-input"
        "the session's document declares no query; \"question\" needs one"
    | Some query -> (
      match Engine.question s.Registry.engine ~query ~missing () with
      | Ok wn -> Ok (wn, missing)
      | Error e -> error_of e))

let missing_json missing =
  Wjson.List (List.map Protocol.json_of_value missing)

let question s _ _ wn missing =
  Ok
    (Wjson.Obj
       [
         ("missing", missing_json missing);
         ( "answers",
           Wjson.Int (Relation.cardinal wn.Whynot_core.Whynot.answers) );
         ( "constants",
           Wjson.Int
             (Value_set.cardinal (Engine.constant_pool s.Registry.engine wn)) );
       ])

let one_mge s _ req wn missing =
  match variant_of req with
  | Error _ as e -> e
  | Ok variant -> (
    match Engine.one_mge ~variant s.Registry.engine wn with
    | Ok mge ->
      Ok
        (Wjson.Obj
           [
             ("missing", missing_json missing);
             ("mge", json_of_explanation s.Registry.schema mge);
           ])
    | Error e -> error_of e)

let all_mges s _ _ wn _ =
  match Engine.all_mges s.Registry.engine wn with
  | Ok mges ->
    Ok
      (Wjson.Obj
         [
           ("count", Wjson.Int (List.length mges));
           ( "mges",
             Wjson.List
               (List.map (json_of_explanation s.Registry.schema) mges) );
         ])
  | Error e -> error_of e

(* The concepts of [check_mge]'s "explanation": every item must be a
   string, and then each is read by the session's reader. *)
let rec strings acc = function
  | [] -> Ok (List.rev acc)
  | Wjson.String s :: rest -> strings (s :: acc) rest
  | j :: _ ->
    err "missing-input" "concepts must be strings, found %s" (Wjson.to_string j)

let rec read_concepts read acc = function
  | [] -> Ok (List.rev acc)
  | src :: rest -> (
    match read src with
    | Ok c -> read_concepts read (c :: acc) rest
    | Error e -> error_of e)

let check_mge s read_concept req wn _ =
  match variant_of req with
  | Error _ as e -> e
  | Ok variant -> (
    match Protocol.list_param req "explanation" with
    | None ->
      err "missing-input"
        "\"check_mge\" requires an \"explanation\" (a list of concepts)"
    | Some js -> (
      match strings [] js with
      | Error _ as e -> e
      | Ok srcs -> (
        match read_concepts read_concept [] srcs with
        | Error _ as e -> e
        | Ok explanation -> (
          match Engine.check_mge ~variant s.Registry.engine wn explanation with
          | Ok is_mge -> Ok (Wjson.Obj [ ("is_mge", Wjson.Bool is_mge) ])
          | Error e -> error_of e))))

let release (s : Registry.session) =
  Engine.set_deadline s.Registry.engine None;
  Mutex.unlock s.Registry.lock

(* [op s read_concept req wn missing] runs under the session's lock with
   the request's deadline on its engine; both are released however it
   ends. *)
let in_session deps req ~now op =
  match req.Protocol.session with
  | None -> err "missing-input" "\"%s\" requires a \"session\"" req.Protocol.op
  | Some name -> (
    match Registry.find_reading deps.registry name ~now with
    | None -> err "unknown-session" "no session named %S" name
    | Some (s, read_concept) ->
      Mutex.lock s.Registry.lock;
      Engine.set_deadline s.Registry.engine (deadline_of deps req ~now);
      (match
         match question_of s req with
         | Ok (wn, missing) -> op s read_concept req wn missing
         | Error _ as e -> e
       with
       | r ->
         release s;
         r
       | exception e ->
         release s;
         raise e))

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
  let q = Gc.quick_stat () in
  let gc =
    [
      ("minor_heap_words", Wjson.Int (Gc.get ()).Gc.minor_heap_size);
      ("minor_collections", Wjson.Int q.Gc.minor_collections);
      ("major_collections", Wjson.Int q.Gc.major_collections);
      ("heap_words", Wjson.Int q.Gc.heap_words);
      ("top_heap_words", Wjson.Int q.Gc.top_heap_words);
    ]
  in
  Ok
    (Wjson.Obj
       [
         ("uptime_ms", Wjson.Int uptime_ms);
         ("sessions", Wjson.Int (Registry.count deps.registry));
         ("counters", Wjson.Obj counters);
         ("gc", Wjson.Obj gc);
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

let handle_at deps req ~now =
  match req.Protocol.op with
  | "one_mge" -> in_session deps req ~now one_mge
  | "check_mge" -> in_session deps req ~now check_mge
  | "question" -> in_session deps req ~now question
  | "all_mges" -> in_session deps req ~now all_mges
  | "ping" -> Ok (Wjson.Obj [ ("pong", Wjson.Bool true) ])
  | "create" -> handle_create deps req
  | "stats" -> handle_stats deps req
  | "close" -> handle_close deps req
  | "debug_sleep" -> handle_debug_sleep deps req
  | other -> err "unknown-op" "unknown operation %S" other

let handle deps req = handle_at deps req ~now:(Obs.now_s ())
