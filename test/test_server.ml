(* Integration tests for the wire server: real loopback TCP connections
   against an in-process [Whynot_server.Server], covering concurrent
   sessions, per-request deadlines, load shedding, malformed input,
   per-connection request caps, idle-TTL eviction, and graceful drain
   (both the API path and the SIGTERM path). *)

module Server = Whynot_server.Server
module Json = Whynot.Json

(* --- a tiny blocking line client --- *)

type client = { fd : Unix.file_descr; rdbuf : Buffer.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; rdbuf = Buffer.create 512 }

let disconnect c = try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()

let send_raw c line =
  let data = Bytes.of_string line in
  let len = Bytes.length data in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write c.fd data !off (len - !off)
  done

let recv_line c =
  let chunk = Bytes.create 4096 in
  let rec next () =
    let s = Buffer.contents c.rdbuf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear c.rdbuf;
      Buffer.add_substring c.rdbuf s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)
    | None -> (
      match Unix.read c.fd chunk 0 (Bytes.length chunk) with
      | 0 -> None
      | n ->
        Buffer.add_subbytes c.rdbuf chunk 0 n;
        next ()
      | exception Unix.Unix_error (ECONNRESET, _, _) -> None)
  in
  next ()

(* Send one request line, return the decoded reply. *)
let rpc c line =
  send_raw c (line ^ "\n");
  match recv_line c with
  | None -> Alcotest.fail ("connection closed while awaiting a reply to " ^ line)
  | Some reply -> (
    match Json.of_string reply with
    | Ok j -> j
    | Error _ -> Alcotest.failf "unparsable reply %S" reply)

let error_code j =
  match Json.member "error" j with
  | Some e -> Option.bind (Json.member "code" e) Json.to_string_opt
  | None -> None

let result_of j = Json.member "result" j

let check_ok what j =
  match result_of j with
  | Some r -> r
  | None -> Alcotest.failf "%s: expected a result, got %s" what (Json.to_string j)

let check_error what expected j =
  Alcotest.(check (option string)) what (Some expected) (error_code j)

let with_server ?(cfg = Server.default_config) f =
  let cfg = { cfg with port = 0; access_log = false } in
  match Server.start cfg with
  | Error msg -> Alcotest.failf "server failed to start: %s" msg
  | Ok server ->
    Fun.protect
      ~finally:(fun () ->
        Server.initiate_shutdown server;
        Server.wait server)
      (fun () -> f server)

(* --- the tests --- *)

let test_concurrent_sessions () =
  with_server @@ fun server ->
  let port = Server.port server in
  let failure = Atomic.make "" in
  let worker workload session () =
    try
      let c = connect port in
      Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
      let r =
        check_ok "create"
          (rpc c
             (Printf.sprintf
                "{\"op\":\"create\",\"session\":\"%s\",\"workload\":\"%s\"}"
                session workload))
      in
      (match Json.member "has_query" r with
       | Some (Json.Bool true) -> ()
       | _ -> failwith "workload session should carry a query");
      for _ = 1 to 3 do
        let r =
          check_ok "one_mge"
            (rpc c
               (Printf.sprintf "{\"op\":\"one_mge\",\"session\":\"%s\"}" session))
        in
        match Json.member "mge" r with
        | Some (Json.List (_ :: _)) -> ()
        | _ -> failwith "one_mge returned no concepts"
      done;
      ignore
        (check_ok "close"
           (rpc c (Printf.sprintf "{\"op\":\"close\",\"session\":\"%s\"}" session)))
    with e -> Atomic.set failure (session ^ ": " ^ Printexc.to_string e)
  in
  let threads =
    [
      Thread.create (worker "cities" "alpha") ();
      Thread.create (worker "retail" "beta") ();
      Thread.create (worker "cities" "gamma") ();
    ]
  in
  List.iter Thread.join threads;
  Alcotest.(check string) "all concurrent clients succeeded" "" (Atomic.get failure);
  Alcotest.(check int) "all sessions closed" 0 (Server.session_count server)

let test_deadline_timeout_connection_survives () =
  with_server @@ fun server ->
  let c = connect (Server.port server) in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  ignore
    (check_ok "create"
       (rpc c "{\"op\":\"create\",\"session\":\"s\",\"workload\":\"cities\"}"));
  check_error "expired deadline times out" "timeout"
    (rpc c "{\"op\":\"one_mge\",\"session\":\"s\",\"deadline_ms\":0}");
  (* Same connection, same session: both are still fully usable. *)
  let r =
    check_ok "question after timeout"
      (rpc c "{\"op\":\"question\",\"session\":\"s\"}")
  in
  (match Json.member "answers" r with
   | Some (Json.Int 4) -> ()
   | other ->
     Alcotest.failf "expected 4 answers, got %s"
       (match other with Some j -> Json.to_string j | None -> "nothing"));
  ignore (check_ok "one_mge after timeout" (rpc c "{\"op\":\"one_mge\",\"session\":\"s\"}"))

let test_overload_sheds () =
  with_server
    ~cfg:{ Server.default_config with max_inflight = 1; debug_ops = true }
  @@ fun server ->
  let port = Server.port server in
  let sleeper = connect port in
  let blocked = connect port in
  Fun.protect
    ~finally:(fun () -> disconnect sleeper; disconnect blocked)
  @@ fun () ->
  (* Occupy the single execution slot... *)
  send_raw sleeper "{\"op\":\"debug_sleep\",\"ms\":600}\n";
  Thread.delay 0.15;
  (* ...so a concurrent request is shed rather than queued. *)
  check_error "second request is shed" "overloaded"
    (rpc blocked "{\"op\":\"ping\"}");
  (match recv_line sleeper with
   | Some _ -> ()
   | None -> Alcotest.fail "sleeper lost its connection");
  (* Slot free again: the shed client retries successfully. *)
  ignore (check_ok "retry after shed" (rpc blocked "{\"op\":\"ping\"}"))

let test_malformed_input_keeps_serving () =
  with_server @@ fun server ->
  let c = connect (Server.port server) in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  check_error "garbage line" "parse" (rpc c "this is not json");
  check_error "non-object" "parse" (rpc c "[1,2,3]");
  check_error "missing op" "parse" (rpc c "{\"session\":\"s\"}");
  check_error "non-string op" "parse" (rpc c "{\"op\":42}");
  check_error "unknown op" "unknown-op" (rpc c "{\"op\":\"frobnicate\"}");
  check_error "unknown session" "unknown-session"
    (rpc c "{\"op\":\"one_mge\",\"session\":\"nope\"}");
  ignore (check_ok "server still serves" (rpc c "{\"op\":\"ping\"}"))

(* An exception escaping a handler (here injected through debug_sleep's
   [fail]; in the wild e.g. [Failure "failed to allocate domain"] from
   an engine create) is answered with [internal] and counted in
   server.errors, and the connection keeps serving. *)
let test_handler_exception_replies_internal () =
  with_server ~cfg:{ Server.default_config with debug_ops = true }
  @@ fun server ->
  let c = connect (Server.port server) in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  let errors () =
    match
      Option.bind
        (Json.member "counters" (check_ok "stats" (rpc c "{\"op\":\"stats\"}")))
        (Json.member "server.errors")
    with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.fail "stats lacks server.errors"
  in
  let before = errors () in
  check_error "raising handler" "internal"
    (rpc c
       "{\"op\":\"debug_sleep\",\"ms\":0,\"fail\":\"failed to allocate domain\"}");
  Alcotest.(check int) "counted in server.errors" (before + 1) (errors ());
  ignore (check_ok "same connection still serves" (rpc c "{\"op\":\"ping\"}"))

let test_request_cap_closes_connection () =
  with_server
    ~cfg:{ Server.default_config with max_requests_per_conn = 3 }
  @@ fun server ->
  let c = connect (Server.port server) in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  for i = 1 to 3 do
    ignore (check_ok (Printf.sprintf "ping %d within budget" i) (rpc c "{\"op\":\"ping\"}"))
  done;
  check_error "budget exhausted" "request-cap" (rpc c "{\"op\":\"ping\"}");
  Alcotest.(check bool) "connection closed after the cap" true
    (recv_line c = None);
  (* A fresh connection gets a fresh budget. *)
  let c2 = connect (Server.port server) in
  Fun.protect ~finally:(fun () -> disconnect c2) @@ fun () ->
  ignore (check_ok "fresh connection serves again" (rpc c2 "{\"op\":\"ping\"}"))

let test_idle_ttl_evicts () =
  with_server
    ~cfg:
      { Server.default_config with
        session_ttl_ms = 150; sweep_interval_ms = 50 }
  @@ fun server ->
  let c = connect (Server.port server) in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  ignore
    (check_ok "create"
       (rpc c "{\"op\":\"create\",\"session\":\"idle\",\"workload\":\"cities\"}"));
  ignore (check_ok "fresh session serves" (rpc c "{\"op\":\"question\",\"session\":\"idle\"}"));
  (* Wait out the TTL plus a couple of sweep intervals. *)
  let rec await_eviction deadline =
    if Server.session_count server = 0 then ()
    else if Whynot_obs.Obs.now_s () > deadline then
      Alcotest.fail "session was not swept within 2s"
    else begin
      Thread.delay 0.05;
      await_eviction deadline
    end
  in
  await_eviction (Whynot_obs.Obs.now_s () +. 2.);
  check_error "evicted session is gone" "unknown-session"
    (rpc c "{\"op\":\"question\",\"session\":\"idle\"}");
  (* The name is free again. *)
  ignore
    (check_ok "recreate after eviction"
       (rpc c "{\"op\":\"create\",\"session\":\"idle\",\"workload\":\"cities\"}"))

(* A session asking for 16 domains costs no domain: twelve of them, all
   held open on one connection, each create and answer. (OCaml caps a
   process at 128 domains, which 15 spawned workers per session used up
   at the ninth.) *)
let test_many_sixteen_domain_sessions () =
  with_server @@ fun server ->
  let c = connect (Server.port server) in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  let sessions = List.init 12 (Printf.sprintf "wide-%d") in
  List.iter
    (fun s ->
       let r =
         check_ok ("create " ^ s)
           (rpc c
              (Printf.sprintf
                 "{\"op\":\"create\",\"session\":\"%s\",\
                  \"workload\":\"cities\",\"domains\":16}"
                 s))
       in
       Alcotest.(check (option int)) ("domains echoed by " ^ s) (Some 16)
         (Option.bind (Json.member "domains" r) Json.to_int_opt))
    sessions;
  Alcotest.(check int) "all sessions live" 12 (Server.session_count server);
  List.iter
    (fun s ->
       let r =
         check_ok ("one_mge " ^ s)
           (rpc c (Printf.sprintf "{\"op\":\"one_mge\",\"session\":\"%s\"}" s))
       in
       match Json.member "mge" r with
       | Some (Json.List (_ :: _)) -> ()
       | _ -> Alcotest.failf "one_mge on %s returned no concepts" s)
    sessions

let test_graceful_drain () =
  let cfg = { Server.default_config with port = 0; access_log = false } in
  let server =
    match Server.start cfg with
    | Ok s -> s
    | Error msg -> Alcotest.failf "server failed to start: %s" msg
  in
  let port = Server.port server in
  let c = connect port in
  ignore
    (check_ok "create"
       (rpc c "{\"op\":\"create\",\"session\":\"d\",\"workload\":\"cities\"}"));
  Alcotest.(check int) "one live session" 1 (Server.session_count server);
  Server.initiate_shutdown server;
  Server.wait server;
  Alcotest.(check int) "drain closed every session" 0 (Server.session_count server);
  disconnect c;
  (* The listener is gone: new connections are refused. *)
  (match connect port with
   | c2 ->
     (* A race with socket teardown may accept then reset; reads must fail. *)
     let alive = try send_raw c2 "{\"op\":\"ping\"}\n"; recv_line c2 <> None
       with Unix.Unix_error (_, _, _) -> false
     in
     disconnect c2;
     Alcotest.(check bool) "stopped server serves nothing" false alive
   | exception Unix.Unix_error (ECONNREFUSED, _, _) -> ())

let test_sigterm_drains () =
  let cfg = { Server.default_config with port = 0; access_log = false } in
  let server =
    match Server.start cfg with
    | Ok s -> s
    | Error msg -> Alcotest.failf "server failed to start: %s" msg
  in
  Server.install_signal_handlers server;
  let c = connect (Server.port server) in
  ignore (check_ok "ping before SIGTERM" (rpc c "{\"op\":\"ping\"}"));
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  (* The handler only flips the shutdown flag; wait must then drain. *)
  Server.wait server;
  Alcotest.(check int) "SIGTERM drained the server" 0 (Server.session_count server);
  disconnect c

(* Two requests in one write: the second reply must follow the first at
   once, not wait for the client's delayed ACK of the first (~40 ms when
   Nagle's algorithm is left on for accepted sockets). *)
let test_pipelined_replies_not_held () =
  with_server @@ fun server ->
  let c = connect (Server.port server) in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  ignore (check_ok "warm-up" (rpc c "{\"op\":\"ping\"}"));
  let gap () =
    send_raw c "{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n";
    let next () =
      match recv_line c with
      | Some _ -> Whynot_obs.Obs.now_s ()
      | None -> Alcotest.fail "connection closed mid-pair"
    in
    let t1 = next () in
    next () -. t1
  in
  let gaps = List.sort compare (List.init 5 (fun _ -> gap ())) in
  let median_ms = List.nth gaps 2 *. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "median second-reply gap %.2f ms < 20 ms" median_ms)
    true (median_ms < 20.)

(* --- the why-not instance is built once per session --- *)

module Handlers = Whynot_server.Handlers
module Registry = Whynot_server.Registry
module Obs = Whynot_obs.Obs

(* Warm requests on a session reuse its legality verdict, answer set and
   memo handles, so they create no eval or memo handle, compile no plan
   and build no index. *)
let in_process_deps () =
  {
    Handlers.registry = Registry.create ~max_sessions:4;
    domains_default = 1;
    domains_max = 4;
    default_deadline_ms = 0;
    max_deadline_ms = 0;
    debug_ops = false;
    started_at_s = Obs.now_s ();
  }

(* One request, dispatched without a socket; fails the test on an error
   reply. *)
let handle_ok deps line =
  match Whynot_server.Protocol.parse_request line with
  | Error m -> Alcotest.failf "unparsable request %s: %s" line m
  | Ok req -> (
    match Handlers.handle deps req with
    | Ok result -> result
    | Error (code, m) -> Alcotest.failf "%s: %s: %s" line code m)

let test_warm_session_counter_budget () =
  let deps = in_process_deps () in
  let ok line = ignore (handle_ok deps line) in
  ok "{\"op\":\"create\",\"session\":\"b\",\"workload\":\"cities\"}";
  Fun.protect ~finally:(fun () -> ok "{\"op\":\"close\",\"session\":\"b\"}")
  @@ fun () ->
  let round () =
    ok "{\"op\":\"question\",\"session\":\"b\"}";
    ok "{\"op\":\"one_mge\",\"session\":\"b\"}"
  in
  round ();
  (* Read from the snapshot, not through [Obs.counter], which would
     register a deleted name and read 0. *)
  let read () =
    let snap = Obs.snapshot () in
    List.map
      (fun n ->
         match List.assoc_opt n snap with
         | Some v -> (n, v)
         | None -> Alcotest.failf "budget counter %s is not registered" n)
      [
        "eval.index.handles";
        "eval.plans.built";
        "eval.index.builds";
        "memo.handles.instance";
        "memo.handles.schema";
      ]
  in
  let before = read () in
  for _ = 1 to 50 do
    round ()
  done;
  List.iter2
    (fun (n, v0) (_, v1) ->
      Alcotest.(check int) (n ^ " added by 50 warm rounds") 0 (v1 - v0))
    before (read ())

(* O_I[K] lists each extension class by its shortest member, so the wire
   all_mges returns short representatives: Figure 2's one MGE is
   <top, BigCity.name>, a single conjunct where an equivalent meet of
   four projections would also be an MGE. *)
let test_all_mges_shortest_representatives () =
  let deps = in_process_deps () in
  let ok line = handle_ok deps line in
  ignore (ok "{\"op\":\"create\",\"session\":\"m\",\"workload\":\"cities\"}");
  Fun.protect
    ~finally:(fun () -> ignore (ok "{\"op\":\"close\",\"session\":\"m\"}"))
  @@ fun () ->
  match Json.member "mges" (ok "{\"op\":\"all_mges\",\"session\":\"m\"}") with
  | Some (Json.List [ Json.List [ Json.String "top"; Json.String c ] ]) ->
    Alcotest.(check bool)
      (Printf.sprintf "%s is one BigCity projection" c)
      true
      (String.starts_with ~prefix:"BigCity." c && not (String.contains c '&'))
  | reply ->
    Alcotest.failf "expected one MGE <top, _>, got %s"
      (Option.fold ~none:"no mges" ~some:Json.to_string reply)

(* The question reply's "constants" is |K| (Proposition 5.1), built from
   the session's cached active domain: it equals [Whynot.constant_pool]
   of the document's question, on its own missing tuple and on one with a
   constant outside the active domain. *)
let test_question_constants_equal_pool () =
  let deps = in_process_deps () in
  let forty_cities =
    let schema, instance =
      Whynot_workload.Generate.cities_like ~seed:1 ~n_cities:40
        ~n_countries:8 ~n_connections:80 ()
    in
    Whynot_proptest.Surface.document schema instance
    ^ "query q(x, y) := Train-Connections(x, z), Train-Connections(z, y)\n\
       whynot (\"city000\", \"city001\")\n"
  in
  let figure2 =
    (* dune runtest runs from the test build directory, dune exec from
       the project root. *)
    let path =
      List.find Sys.file_exists
        [ "../examples/data/cities.whynot"; "examples/data/cities.whynot" ]
    in
    In_channel.with_open_text path In_channel.input_all
  in
  List.iter
    (fun (name, text) ->
      let wn missing =
        let d = Result.get_ok (Whynot_text.Parser.parse text) in
        let wn = Result.get_ok (Whynot_text.Parser.whynot_of d) in
        let missing =
          Option.value missing ~default:(Whynot_core.Whynot.missing_values wn)
        in
        Whynot_core.Whynot.make_exn ~instance:wn.Whynot_core.Whynot.instance
          ~query:wn.Whynot_core.Whynot.query ~missing ()
      in
      let op fields =
        handle_ok deps
          (Json.to_string
             (Json.Obj (("session", Json.String name) :: fields)))
      in
      ignore
        (op [ ("op", Json.String "create"); ("document", Json.String text) ]);
      let close () = ignore (op [ ("op", Json.String "close") ]) in
      Fun.protect ~finally:close @@ fun () ->
      List.iter
        (fun missing ->
          let fields =
            match missing with
            | None -> []
            | Some vs ->
              [ ("missing",
                 Json.List
                   (List.map Whynot_server.Protocol.json_of_value vs)) ]
          in
          Alcotest.(check (option int))
            (name ^ " constants")
            (Some
               (Whynot_relational.Value_set.cardinal
                  (Whynot_core.Whynot.constant_pool (wn missing))))
            (match
               Json.member "constants"
                 (op (("op", Json.String "question") :: fields))
             with
             | Some (Json.Int n) -> Some n
             | _ -> None))
        [ None; Some Whynot_relational.Value.[ str "Atlantis"; str "Rome" ] ])
    [ ("figure2", figure2); ("forty-cities", forty_cities) ]

let fd_document ~legal =
  String.concat "\n"
    ([
       "relation Cities(name, population, country, continent)";
       "fd Cities: country -> continent";
       "fact Cities(\"Amsterdam\", 779808, \"Netherlands\", \"Europe\")";
     ]
     @ (if legal then []
        else [ "fact Cities(\"Utrecht\", 361924, \"Netherlands\", \"Asia\")" ])
     @ [ "query q(x) := Cities(x, y, z, w)"; "whynot (\"Rome\")" ])

let test_illegal_document_reports_schema_violation () =
  with_server @@ fun server ->
  let c = connect (Server.port server) in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  let create name ~legal =
    check_ok ("create " ^ name)
      (rpc c
         (Json.to_string
            (Json.Obj
               [
                 ("op", Json.String "create");
                 ("session", Json.String name);
                 ("document", Json.String (fd_document ~legal));
               ])))
    |> ignore
  in
  let question name =
    rpc c (Printf.sprintf "{\"op\":\"question\",\"session\":\"%s\"}" name)
  in
  create "legal" ~legal:true;
  ignore (check_ok "legal document" (question "legal"));
  create "illegal" ~legal:false;
  check_error "first question" "schema-violation" (question "illegal");
  check_error "second question" "schema-violation" (question "illegal");
  check_error "one_mge" "schema-violation"
    (rpc c "{\"op\":\"one_mge\",\"session\":\"illegal\"}")

(* A view the document never declares renders its attributes as a1..aN;
   check_mge must parse such a reply back. *)
let implicit_view_document =
  String.concat "\n"
    [
      "relation R(a, b)";
      "view V(x) := R(x, y), y >= 3";
      "fact R(1, 2)";
      "fact R(2, 3)";
      "fact R(4, 5)";
      "query q(x, y) := R(x, y)";
      "whynot (4, 2)";
    ]

let test_implicit_view_mge_round_trips () =
  with_server @@ fun server ->
  let c = connect (Server.port server) in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  let op fields = rpc c (Json.to_string (Json.Obj fields)) in
  ignore
    (check_ok "create"
       (op
          [
            ("op", Json.String "create");
            ("session", Json.String "v");
            ("document", Json.String implicit_view_document);
          ]));
  let mge =
    match
      Json.member "mge"
        (check_ok "one_mge"
           (op [ ("op", Json.String "one_mge"); ("session", Json.String "v") ]))
    with
    | Some (Json.List cs) -> cs
    | _ -> Alcotest.fail "one_mge replied without an \"mge\" list"
  in
  Alcotest.(check bool) "the MGE uses the implicit view" true
    (List.mem (Json.String "V.a1") mge);
  let reply =
    check_ok "check_mge"
      (op
         [
           ("op", Json.String "check_mge");
           ("session", Json.String "v");
           ("explanation", Json.List mge);
         ])
  in
  Alcotest.(check bool) "check_mge accepts the one_mge reply" true
    (Json.member "is_mge" reply = Some (Json.Bool true))

(* --- protocol unit checks (no sockets) --- *)

module Protocol = Whynot_server.Protocol

let test_protocol_envelopes () =
  let req =
    match Protocol.parse_request "{\"op\":\"ping\",\"id\":7,\"session\":\"s\"}" with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check string) "op parsed" "ping" req.Protocol.op;
  Alcotest.(check (option string)) "session parsed" (Some "s") req.Protocol.session;
  let ok = Protocol.ok_line req (Json.Obj [ ("pong", Json.Bool true) ]) in
  (match Json.of_string ok with
   | Ok j ->
     Alcotest.(check (option string)) "version header" None (error_code j);
     (match Json.member "schema_version" j with
      | Some (Json.Int 3) -> ()
      | _ -> Alcotest.fail "ok envelope lacks schema_version 3");
     (match Json.member "id" j with
      | Some (Json.Int 7) -> ()
      | _ -> Alcotest.fail "ok envelope must echo the id")
   | Error _ -> Alcotest.fail "ok envelope must be valid JSON");
  let err = Protocol.error_line ~code:"overloaded" ~message:"m" () in
  match Json.of_string err with
  | Ok j -> Alcotest.(check (option string)) "error code" (Some "overloaded") (error_code j)
  | Error _ -> Alcotest.fail "error envelope must be valid JSON"

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [ Alcotest.test_case "envelopes" `Quick test_protocol_envelopes ] );
      ( "sessions",
        [
          Alcotest.test_case "concurrent clients, independent sessions" `Quick
            test_concurrent_sessions;
          Alcotest.test_case "idle TTL evicts" `Quick test_idle_ttl_evicts;
          Alcotest.test_case "warm session counter budget" `Quick
            test_warm_session_counter_budget;
          Alcotest.test_case "all_mges returns shortest representatives"
            `Quick test_all_mges_shortest_representatives;
          Alcotest.test_case "question constants equal the constant pool"
            `Quick test_question_constants_equal_pool;
          Alcotest.test_case "illegal document replies schema-violation"
            `Quick test_illegal_document_reports_schema_violation;
          Alcotest.test_case "implicit-view MGE passes check_mge" `Quick
            test_implicit_view_mge_round_trips;
          Alcotest.test_case "sixteen-domain sessions exhaust no domains"
            `Quick test_many_sixteen_domain_sessions;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "deadline times out, connection survives" `Quick
            test_deadline_timeout_connection_survives;
          Alcotest.test_case "overload sheds" `Quick test_overload_sheds;
          Alcotest.test_case "malformed input keeps serving" `Quick
            test_malformed_input_keeps_serving;
          Alcotest.test_case "handler exception replies internal" `Quick
            test_handler_exception_replies_internal;
          Alcotest.test_case "request cap closes the connection" `Quick
            test_request_cap_closes_connection;
          Alcotest.test_case "pipelined replies are not held" `Quick
            test_pipelined_replies_not_held;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
          Alcotest.test_case "SIGTERM drains" `Quick test_sigterm_drains;
        ] );
    ]
