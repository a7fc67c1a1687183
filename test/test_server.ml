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

(* Two connections cycle close, create and question over one pool of
   names, with no pipelining: each sends its next request once the last
   reply arrived. When no close of a name is in flight as a create of it
   is sent, and none starts until the question that follows is
   answered, that question must find the session, whichever connection
   created it. *)
let test_session_churn_no_unknown () =
  with_server @@ fun server ->
  let port = Server.port server in
  let names = [| "n0"; "n1"; "n2" |] in
  (* Per name: closes sent, closes answered. *)
  let started = Array.make (Array.length names) 0
  and answered = Array.make (Array.length names) 0
  and checked = Atomic.make 0
  and lock = Mutex.create () in
  let failure = Atomic.make "" in
  let worker seed () =
    try
      let c = connect port in
      Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
      let st = Random.State.make [| seed |] in
      for _ = 1 to 150 do
        let i = Random.State.int st (Array.length names) in
        let name = names.(i) in
        let req op =
          rpc c (Printf.sprintf "{\"op\":\"%s\",\"session\":\"%s\"}" op name)
        in
        if Random.State.bool st then begin
          Mutex.protect lock (fun () -> started.(i) <- started.(i) + 1);
          ignore (req "close");
          Mutex.protect lock (fun () -> answered.(i) <- answered.(i) + 1)
        end;
        let quiet, closes =
          Mutex.protect lock (fun () -> (started.(i) = answered.(i), started.(i)))
        in
        let created =
          rpc c
            (Printf.sprintf
               "{\"op\":\"create\",\"session\":\"%s\",\"workload\":\"cities\"}"
               name)
        in
        (match error_code created with
         | None | Some "session-exists" -> ()
         | Some code -> failwith ("create replied " ^ code));
        let asked = req "question" in
        if quiet && Mutex.protect lock (fun () -> started.(i) = closes) then begin
          Atomic.incr checked;
          if error_code asked = Some "unknown-session" then
            failwith (name ^ ": unknown-session after its create reply")
        end
      done
    with e -> Atomic.set failure (Printexc.to_string e)
  in
  let threads = [ Thread.create (worker 1) (); Thread.create (worker 2) () ] in
  List.iter Thread.join threads;
  Alcotest.(check string) "no unknown-session after a create reply" ""
    (Atomic.get failure);
  Alcotest.(check bool)
    (Printf.sprintf "%d questions had no close around them" (Atomic.get checked))
    true
    (Atomic.get checked >= 20)

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

(* Request framing: a line split over many one- and two-byte writes,
   several lines (one of them long, and one with a CRLF ending) in a
   single write, a CRLF line split between its CR and LF, and a blank
   line among them. Each request is answered once, in order, with its
   own id. *)
let test_framing () =
  with_server @@ fun server ->
  let c = connect (Server.port server) in
  Unix.setsockopt c.fd Unix.TCP_NODELAY true;
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  let ping id = Printf.sprintf "{\"op\":\"ping\",\"id\":%d}" id in
  let expect id =
    match recv_line c with
    | None -> Alcotest.failf "connection closed before reply %d" id
    | Some reply ->
      (match Json.of_string reply with
       | Ok j ->
         Alcotest.(check (option int))
           (Printf.sprintf "reply %d" id) (Some id)
           (Option.bind (Json.member "id" j) (function
              | Json.Int n -> Some n
              | _ -> None));
         ignore (check_ok (Printf.sprintf "ping %d" id) j)
       | Error _ -> Alcotest.failf "unparsable reply %S" reply)
  in
  let trickle s =
    String.iteri
      (fun i _ ->
        if i mod 2 = 0 then
          send_raw c (String.sub s i (min 2 (String.length s - i))))
      s
  in
  trickle (ping 1 ^ "\n");
  expect 1;
  let long =
    Printf.sprintf "{\"op\":\"ping\",\"id\":3,\"pad\":\"%s\"}"
      (String.make 10_000 'x')
  in
  send_raw c (ping 2 ^ "\n" ^ long ^ "\n\n" ^ ping 4 ^ "\r\n" ^ ping 5 ^ "\n");
  List.iter expect [ 2; 3; 4; 5 ];
  send_raw c (ping 6 ^ "\r");
  Unix.sleepf 0.02;
  send_raw c ("\n" ^ ping 7);
  expect 6;
  trickle "\r\n";
  expect 7

(* An exception escaping a handler (here injected through debug_sleep's
   [fail]; in the wild e.g. [Failure "failed to allocate domain"] from
   an engine create) is answered with [internal] and counted in
   server.errors, and the connection keeps serving. *)
let test_handler_exception_replies_internal () =
  (* One inflight slot: a raising handler that kept its slot would get
     every later request shed as "overloaded". *)
  with_server
    ~cfg:{ Server.default_config with debug_ops = true; max_inflight = 1 }
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
  ignore (check_ok "same connection still serves" (rpc c "{\"op\":\"ping\"}"));
  ignore
    (rpc c "{\"op\":\"debug_sleep\",\"ms\":0,\"fail\":\"again\"}");
  let c2 = connect (Server.port server) in
  Fun.protect ~finally:(fun () -> disconnect c2) @@ fun () ->
  ignore
    (check_ok "a second connection is served, not shed"
       (rpc c2 "{\"op\":\"ping\"}"))

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
module Protocol = Whynot_server.Protocol
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

(* Whole reply lines, as the socket carries them, written out by hand:
   Figure 2's one_mge and check_mge, with negative, positive and
   escaped-string ids and an integer missing value. *)
let test_figure2_reply_bytes () =
  let deps = in_process_deps () in
  let reply line =
    match Protocol.parse_request line with
    | Error m -> Alcotest.failf "unparsable request %s: %s" line m
    | Ok req -> (
      match Handlers.handle deps req with
      | Ok result -> Protocol.ok_line req result
      | Error (code, m) -> Alcotest.failf "%s: %s: %s" line code m)
  in
  ignore (reply {|{"op":"create","session":"f2","workload":"cities"}|});
  Fun.protect
    ~finally:(fun () -> ignore (reply {|{"op":"close","session":"f2"}|}))
  @@ fun () ->
  List.iter
    (fun (request, expected) ->
      Alcotest.(check string) request expected (reply request))
    [
      ( {|{"op":"one_mge","session":"f2","id":-10}|},
        {|{"schema_version":3,"op":"one_mge","session":"f2","id":-10,"result":{"missing":["Amsterdam","New York"],"mge":["top","BigCity.name"]}}|}
      );
      ( {|{"op":"check_mge","session":"f2","id":9,"explanation":["top","BigCity.name"]}|},
        {|{"schema_version":3,"op":"check_mge","session":"f2","id":9,"result":{"is_mge":true}}|}
      );
      ( {|{"op":"one_mge","session":"f2","id":"a\u0001b","missing":[59946,"Amsterdam"]}|},
        {|{"schema_version":3,"op":"one_mge","session":"f2","id":"a\u0001b","result":{"missing":[59946,"Amsterdam"],"mge":["Cities.population","top"]}}|}
      );
    ]

(* The golden request stream, test/corpus/golden-replies.jsonl: odd
   lines are requests, each followed by the reply line the server gave
   it when the file was recorded. It covers Figure 2 and a seeded
   40-city document (create, question, one_mge, check_mge on MGEs and
   non-MGEs, all_mges, close, ids of every JSON kind) and the error
   replies unknown-session, missing-input, parse and unknown-op. Each
   reply line is built as the server builds it, newline included: a
   parse error without request headers, a handler result through
   [Protocol.ok_line], a handler error through [Protocol.error_reply]. *)
(* A seeded [Generate.cities_like] document with the two-hop query. *)
let cities_document ~n_cities =
  let schema, inst =
    Whynot_workload.Generate.cities_like ~seed:1 ~n_cities
      ~n_countries:(max 2 (n_cities / 5)) ~n_connections:(2 * n_cities) ()
  in
  Whynot_proptest.Surface.document schema inst
  ^ "query q(x, y) := Train-Connections(x, z), Train-Connections(z, y)\n"

(* The minor words of one [create] of a [cities_document] through
   [Handlers.handle_at], after one create and close of the same
   document. [Gc.minor_words] is deterministic for a fixed input, so the
   bounds below are hard. *)
let create_words ~n_cities =
  let text = cities_document ~n_cities in
  let deps = in_process_deps () in
  let request op =
    match
      Protocol.parse_request
        (Json.to_string
           (Json.Obj
              ([ ("op", Json.String op); ("session", Json.String "intake") ]
               @ if op = "create" then [ ("document", Json.String text) ]
                 else [])))
    with
    | Ok req -> req
    | Error m -> Alcotest.failf "unparsable %s: %s" op m
  in
  let create = request "create" and close = request "close" in
  let run req =
    match Handlers.handle_at deps req ~now:0. with
    | Ok _ -> ()
    | Error (code, m) -> Alcotest.failf "%s: %s" code m
  in
  run create;
  run close;
  let w0 = Gc.minor_words () in
  run create;
  let words = Gc.minor_words () -. w0 in
  run close;
  words

(* A 40-city create allocated 83,394 minor words when relations were
   sets filled one [Set.add] at a time, the parser kept a token list and
   the join boxed its slots. *)
let test_intake_allocation_budget () =
  let w40 = create_words ~n_cities:40 and w160 = create_words ~n_cities:160 in
  Alcotest.(check bool)
    (Printf.sprintf "40-city create: %.0f minor words, at most 83394 / 3" w40)
    true
    (w40 <= 83394. /. 3.);
  Alcotest.(check bool)
    (Printf.sprintf "160-city create: %.0f minor words, at most 4.5 x %.0f"
       w160 w40)
    true
    (w160 <= 4.5 *. w40)

(* The minor words of one request line, as the server serves it: parsed,
   handled and written as its reply. The mean of 20 runs after one run
   that warms the session's caches. *)
let request_words deps line =
  let run () =
    match Protocol.parse_request line with
    | Error m -> Alcotest.failf "unparsable request %s: %s" line m
    | Ok req -> (
      match Handlers.handle deps req with
      | Ok result -> ignore (Protocol.ok_reply req result)
      | Error (code, m) -> Alcotest.failf "%s: %s: %s" line code m)
  in
  run ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 20 do
    run ()
  done;
  (Gc.minor_words () -. w0) /. 20.

(* whynot_serverd starts with a 32k-word minor heap
   (bin/whynot_serverd_main.c), sized for requests that allocate far less
   than that: Figure 2's one_mge allocated 697 minor words when this
   budget was set, the 40-city one_mge 887 and its check_mge 831 (the
   40-city create about 14k). The budget, 1,280 words, is 1/25 of that
   minor heap. *)
let test_request_allocation_budget () =
  let deps = in_process_deps () in
  let ok line = ignore (handle_ok deps line) in
  ok {|{"op":"create","session":"f2","workload":"cities"}|};
  ok
    (Json.to_string
       (Json.Obj
          [
            ("op", Json.String "create");
            ("session", Json.String "c40");
            ("document", Json.String (cities_document ~n_cities:40));
          ]));
  Fun.protect
    ~finally:(fun () ->
      ok {|{"op":"close","session":"f2"}|};
      ok {|{"op":"close","session":"c40"}|})
  @@ fun () ->
  let one_mge_40 =
    {|{"op":"one_mge","session":"c40","missing":["city000","city001"]}|}
  in
  let mge =
    match Json.member "mge" (handle_ok deps one_mge_40) with
    | Some m -> m
    | None -> Alcotest.fail "40-city one_mge replied no mge"
  in
  let check_mge_40 =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.String "check_mge");
           ("session", Json.String "c40");
           ("missing", Json.List [ Json.String "city000"; Json.String "city001" ]);
           ("explanation", mge);
         ])
  in
  List.iter
    (fun (what, line) ->
      let words = request_words deps line in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words per request, at most 1280" what
           words)
        true (words <= 1280.))
    [
      ("Figure 2 one_mge", {|{"op":"one_mge","session":"f2"}|});
      ("40-city one_mge", one_mge_40);
      ("40-city check_mge", check_mge_40);
    ]

(* [stats] reports the process's GC beside its counters: the minor heap
   size it runs with and Gc.quick_stat's collection and heap figures. *)
let test_stats_reports_gc () =
  let deps = in_process_deps () in
  let before = Gc.quick_stat () in
  let gc =
    match Json.member "gc" (handle_ok deps {|{"op":"stats"}|}) with
    | Some g -> g
    | None -> Alcotest.fail "stats lacks gc"
  in
  let field name =
    match Json.member name gc with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "stats gc lacks the integer %s" name
  in
  Alcotest.(check int) "minor_heap_words is Gc.get's"
    (Gc.get ()).Gc.minor_heap_size (field "minor_heap_words");
  List.iter
    (fun (name, at_least) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s = %d, at least %d" name (field name) at_least)
        true
        (field name >= at_least))
    [
      ("minor_collections", before.Gc.minor_collections);
      ("major_collections", before.Gc.major_collections);
      ("heap_words", 0);
      ("top_heap_words", before.Gc.top_heap_words);
    ]

let golden_path = "corpus/golden-replies.jsonl"

let test_golden_replies () =
  let deps =
    {
      (in_process_deps ()) with
      Handlers.registry = Registry.create ~max_sessions:8;
      domains_max = 16;
      default_deadline_ms = 10_000;
      max_deadline_ms = 60_000;
    }
  in
  let reply line =
    match Protocol.parse_request line with
    | Error message -> Protocol.error_reply ~code:"parse" ~message ()
    | Ok req -> (
      match Handlers.handle deps req with
      | Ok result -> Protocol.ok_line req result ^ "\n"
      | Error (code, message) ->
        Protocol.error_reply ~request:req ~code ~message ())
  in
  let ic = open_in_bin golden_path in
  let lines =
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec read acc =
      match input_line ic with
      | l -> read (l :: acc)
      | exception End_of_file -> List.rev acc
    in
    read []
  in
  let rec replay n = function
    | request :: expected :: rest ->
      Alcotest.(check string) request (expected ^ "\n") (reply request);
      replay (n + 1) rest
    | [ request ] ->
      Alcotest.failf "%s: request %S has no reply" golden_path request
    | [] -> n
  in
  let n = replay 0 lines in
  Alcotest.(check bool) "the stream is not empty" true (n > 80);
  List.iter (Handlers.close_session ~swept:false) (Registry.drain deps.registry)

(* A request that arrives as its session's idle TTL runs out, against
   the TTL sweep, on two domains: the request either finds the session,
   which then counts as used and is not swept, or finds it swept and
   replies unknown-session. It never reaches a swept session's closed
   engine, and a served request never leaves its session swept. *)
let test_sweep_against_request_at_ttl () =
  let deps = in_process_deps () in
  let reg = deps.Handlers.registry in
  let req =
    match Protocol.parse_request "{\"op\":\"question\",\"session\":\"t\"}" with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  (* The session "t", last used at time 0: with a 50 s TTL, a sweep at
     time 100 finds it stale unless a request at time 100 used it. *)
  let idle () =
    let s =
      match Registry.find reg "t" with
      | Some s -> s
      | None ->
        ignore
          (handle_ok deps
             "{\"op\":\"create\",\"session\":\"t\",\"workload\":\"cities\"}");
        Option.get (Registry.find reg "t")
    in
    s.Registry.last_used_s <- 0.
  in
  for round = 1 to 200 do
    idle ();
    let ready = Atomic.make false and go = Atomic.make false in
    let request =
      Domain.spawn (fun () ->
          Atomic.set ready true;
          while not (Atomic.get go) do Domain.cpu_relax () done;
          Handlers.handle_at deps req ~now:100.)
    in
    while not (Atomic.get ready) do Domain.cpu_relax () done;
    Atomic.set go true;
    List.iter (Handlers.close_session ~swept:true)
      (Registry.sweep reg ~ttl_s:50. ~now_s:100.);
    let reply = Domain.join request in
    let live = Registry.find reg "t" <> None in
    match reply with
    | Ok _ ->
      Alcotest.(check bool)
        (Printf.sprintf "round %d: a served request keeps its session" round)
        true live
    | Error ("unknown-session", _) ->
      Alcotest.(check bool)
        (Printf.sprintf "round %d: unknown-session after a sweep" round)
        false live
    | Error (code, m) -> Alcotest.failf "round %d: %s: %s" round code m
  done;
  List.iter (Handlers.close_session ~swept:false) (Registry.drain reg)

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

(* A nominal whose string holds a quote and a backslash, non-ASCII
   bytes, or a newline renders escaped, exactly as the text format
   reads it back: the one_mge reply is the nominal spelled out by hand
   beside each [literal] (the document's spelling of the value), and
   check_mge accepts it. *)
let escaped_nominal_document literal =
  String.concat "\n"
    [
      "relation R(a)";
      "fact R(1)";
      "query q(x) := R(x)";
      "whynot (" ^ literal ^ ")";
    ]

let test_escaped_nominal_round_trips () =
  with_server @@ fun server ->
  let c = connect (Server.port server) in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  let op fields = rpc c (Json.to_string (Json.Obj fields)) in
  List.iteri
    (fun k (literal, nominal) ->
      let session = Json.String (Printf.sprintf "e%d" k) in
      ignore
        (check_ok "create"
           (op
              [
                ("op", Json.String "create");
                ("session", session);
                ("document", Json.String (escaped_nominal_document literal));
              ]));
      let expected = Json.List [ Json.String nominal ] in
      let mge =
        Json.member "mge"
          (check_ok "one_mge" (op [ ("op", Json.String "one_mge"); ("session", session) ]))
      in
      Alcotest.(check (option string)) (literal ^ " renders escaped")
        (Some (Json.to_string expected)) (Option.map Json.to_string mge);
      let reply =
        check_ok "check_mge"
          (op
             [
               ("op", Json.String "check_mge");
               ("session", session);
               ("explanation", expected);
             ])
      in
      Alcotest.(check bool) (literal ^ ": check_mge accepts the one_mge reply")
        true
        (Json.member "is_mge" reply = Some (Json.Bool true)))
    [
      ({|"p\"q\\r"|}, {|{"p\"q\\r"}|});
      ("\"caf\xc3\xa9\"", {|{"caf\195\169"}|});
      ({|"line\nbreak"|}, {|{"line\nbreak"}|});
    ]

(* A server with the TTL off and a sweep a minute away, and two idle
   connections open: nothing but the wake pipe ends the accept loop's
   select and the connections' reads. *)
let idle_server_with_two_clients () =
  let cfg =
    { Server.default_config with
      port = 0; access_log = false; session_ttl_ms = 0;
      sweep_interval_ms = 60_000 }
  in
  let server =
    match Server.start cfg with
    | Ok s -> s
    | Error msg -> Alcotest.failf "server failed to start: %s" msg
  in
  let clients = [ connect (Server.port server); connect (Server.port server) ] in
  List.iter
    (fun c -> ignore (check_ok "ping while idle" (rpc c "{\"op\":\"ping\"}")))
    clients;
  (server, clients)

(* A thread that blocks SIGTERM, so it never runs the handler in
   another thread's stead. If [done_] is still unset after 2 s it sets
   [timed_out], shuts [server] down itself and runs [release], so the
   test ends. *)
let watchdog ?(release = ignore) server ~done_ ~timed_out =
  Thread.create
    (fun () ->
       ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigterm ]);
       let t0 = Whynot_obs.Obs.now_s () in
       while (not (Atomic.get done_)) && Whynot_obs.Obs.now_s () -. t0 < 2. do
         Thread.delay 0.01
       done;
       if not (Atomic.get done_) then begin
         Atomic.set timed_out true;
         Server.initiate_shutdown server;
         release ()
       end)
    ()

let test_shutdown_wakes_idle_threads () =
  let server, clients = idle_server_with_two_clients () in
  let drained = Atomic.make false and timed_out = Atomic.make false in
  let dog = watchdog server ~done_:drained ~timed_out in
  Server.initiate_shutdown server;
  Server.wait server;
  Atomic.set drained true;
  Thread.join dog;
  List.iter disconnect clients;
  Alcotest.(check bool) "shutdown drained the idle server within 2s" false
    (Atomic.get timed_out)

(* SIGTERM from another process while this thread waits in
   [Server.wait]: the signal lands on this thread, so [wait] must block
   where a signal interrupts it, or the handler would run only when the
   accept loop's select times out for the sweep a minute away. *)
let test_external_sigterm_wakes_wait () =
  let server, clients = idle_server_with_two_clients () in
  Server.install_signal_handlers server;
  let drained = Atomic.make false and timed_out = Atomic.make false in
  let dog = watchdog server ~done_:drained ~timed_out in
  let killer =
    Unix.create_process "/bin/sh"
      [| "/bin/sh"; "-c";
         "sleep 0.2; kill -TERM " ^ string_of_int (Unix.getpid ()) |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Server.wait server;
  Atomic.set drained true;
  Thread.join dog;
  ignore (Unix.waitpid [] killer);
  List.iter disconnect clients;
  Alcotest.(check bool) "SIGTERM drained the waiting server within 2s" false
    (Atomic.get timed_out)

(* Connections block in [read]; the shutdown pass ends those reads with
   [SHUTDOWN_RECEIVE]. Two idle clients and one whose request is still
   running: the running request's reply arrives whole, then end of input
   on every connection, and [wait] returns within 2 s. *)
let test_drain_ends_blocked_reads () =
  let cfg =
    { Server.default_config with
      port = 0; access_log = false; debug_ops = true; session_ttl_ms = 0;
      sweep_interval_ms = 60_000 }
  in
  let server =
    match Server.start cfg with
    | Ok s -> s
    | Error msg -> Alcotest.failf "server failed to start: %s" msg
  in
  let port = Server.port server in
  let idle = [ connect port; connect port ] and busy = connect port in
  List.iter
    (fun c -> ignore (check_ok "ping while idle" (rpc c "{\"op\":\"ping\"}")))
    (busy :: idle);
  send_raw busy "{\"op\":\"debug_sleep\",\"ms\":400}\n";
  Thread.delay 0.1;
  let drained = Atomic.make false and timed_out = Atomic.make false in
  let dog = watchdog server ~done_:drained ~timed_out in
  Server.initiate_shutdown server;
  Server.wait server;
  Atomic.set drained true;
  Thread.join dog;
  Alcotest.(check bool) "drained within 2s" false (Atomic.get timed_out);
  (match recv_line busy with
   | Some reply ->
     ignore (check_ok "in-flight reply" (Result.get_ok (Json.of_string reply)))
   | None -> Alcotest.fail "the in-flight request lost its reply");
  Alcotest.(check bool) "then end of input" true (recv_line busy = None);
  List.iter
    (fun c ->
       Alcotest.(check bool) "idle client sees end of input" true
         (recv_line c = None))
    idle;
  List.iter disconnect (busy :: idle)

(* The accept thread outlives descriptor exhaustion: while this process
   has no descriptor free its [accept] fails with EMFILE, and it backs
   off and retries instead of dying. Once the spare descriptors are
   closed the waiting connection is accepted and answers [ping], and
   [wait] still ends the idle connections' reads and returns within
   2 s. *)
let test_drain_after_accept_thread_dies () =
  let server, clients = idle_server_with_two_clients () in
  let late = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let spares = ref [] and exhausted = ref false in
  (try
     (* Bounded, for hosts whose descriptor limit is huge. *)
     for _ = 1 to 1 lsl 20 do spares := Unix.dup late :: !spares done
   with Unix.Unix_error ((EMFILE | ENFILE), _, _) -> exhausted := true);
  let backoffs () =
    Option.value ~default:0
      (List.assoc_opt "server.accept.backoffs" (Whynot_obs.Obs.snapshot ()))
  in
  (* The handshake completes in the listener's backlog; the accept
     thread's [accept] then finds no descriptor free and backs off. *)
  let backed_off =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close !spares)
      (fun () ->
         !exhausted
         &&
         let before = backoffs () in
         Unix.connect late
           (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
         let t0 = Whynot_obs.Obs.now_s () in
         while backoffs () = before && Whynot_obs.Obs.now_s () -. t0 < 2. do
           Thread.delay 0.005
         done;
         backoffs () > before)
  in
  let late = { fd = late; rdbuf = Buffer.create 64 } in
  let answered =
    !exhausted
    &&
    (send_raw late "{\"op\":\"ping\"}\n";
     match Unix.select [ late.fd ] [] [] 2.0 with
     | [], _, _ -> false
     | _ -> (
       match recv_line late with
       | Some reply -> (
         match Json.of_string reply with
         | Ok j -> Json.member "result" j <> None
         | Error _ -> false)
       | None -> false))
  in
  disconnect late;
  let drained = Atomic.make false and timed_out = Atomic.make false in
  let release () =
    List.iter
      (fun c ->
         try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error (_, _, _) -> ())
      clients
  in
  let dog = watchdog ~release server ~done_:drained ~timed_out in
  Server.initiate_shutdown server;
  Server.wait server;
  Atomic.set drained true;
  Thread.join dog;
  if not !exhausted then begin
    List.iter disconnect clients;
    Alcotest.skip ()
  end;
  Alcotest.(check bool) "the accept thread backed off on EMFILE" true
    backed_off;
  Alcotest.(check bool) "the waiting connection is accepted and answers ping"
    true answered;
  Alcotest.(check bool) "drained within 2s" false (Atomic.get timed_out);
  List.iter
    (fun c ->
       Alcotest.(check bool) "idle client sees end of input" true
         (recv_line c = None);
       disconnect c)
    clients

(* A client that sends a request and then half-closes: the server
   answers the request, reads end of input while blocked in [read], and
   closes its side; other connections keep being served. *)
let test_peer_half_close () =
  with_server @@ fun server ->
  let port = Server.port server in
  let c = connect port and other = connect port in
  Fun.protect ~finally:(fun () -> disconnect c; disconnect other) @@ fun () ->
  ignore (check_ok "ping" (rpc c "{\"op\":\"ping\"}"));
  send_raw c "{\"op\":\"ping\"}\n";
  Unix.shutdown c.fd Unix.SHUTDOWN_SEND;
  (match recv_line c with
   | Some reply ->
     ignore (check_ok "reply before the half-close"
               (Result.get_ok (Json.of_string reply)))
   | None -> Alcotest.fail "the request sent before the half-close went unanswered");
  Alcotest.(check bool) "server closes after end of input" true
    (recv_line c = None);
  ignore (check_ok "another connection still serves"
            (rpc other "{\"op\":\"ping\"}"))

(* Lines pipelined just before shutdown: each is answered or dropped
   whole. Everything a client receives is complete reply lines, then end
   of input. *)
let test_pipelined_lines_at_shutdown () =
  let cfg = { Server.default_config with port = 0; access_log = false } in
  let server =
    match Server.start cfg with
    | Ok s -> s
    | Error msg -> Alcotest.failf "server failed to start: %s" msg
  in
  let port = Server.port server in
  let n = 200 in
  let clients = List.init 3 (fun _ -> connect port) in
  List.iter
    (fun c -> ignore (check_ok "ping" (rpc c "{\"op\":\"ping\"}")))
    clients;
  let batch =
    String.concat ""
      (List.init n (fun i -> Printf.sprintf "{\"op\":\"ping\",\"id\":%d}\n" i))
  in
  List.iter (fun c -> send_raw c batch) clients;
  Server.initiate_shutdown server;
  Server.wait server;
  List.iter
    (fun c ->
       let chunk = Bytes.create 4096 and got = Buffer.create 4096 in
       let rec drain () =
         match Unix.read c.fd chunk 0 (Bytes.length chunk) with
         | 0 -> ()
         | k ->
           Buffer.add_subbytes got chunk 0 k;
           drain ()
         | exception Unix.Unix_error (ECONNRESET, _, _) -> ()
       in
       drain ();
       let data = Buffer.contents got in
       let lines = String.split_on_char '\n' data in
       Alcotest.(check string) "no torn last line" ""
         (List.nth lines (List.length lines - 1));
       let replies = List.filter (fun l -> l <> "") lines in
       Alcotest.(check bool) "at most one reply per line" true
         (List.length replies <= n);
       List.iteri
         (fun i l ->
            let j =
              match Json.of_string l with
              | Ok j -> j
              | Error _ -> Alcotest.failf "torn reply %S" l
            in
            ignore (check_ok "pipelined ping" j);
            Alcotest.(check (option int)) "replies in order" (Some i)
              (Option.bind (Json.member "id" j) Json.to_int_opt))
         replies;
       disconnect c)
    clients

(* --- protocol unit checks (no sockets) --- *)

(* The wire encoder writes digits and escapes straight into its buffer;
   on the integers around sign and digit-count changes, [max_int] and
   [min_int], and every byte value alone, in one string and as a key, it
   must write the bytes of the encoder it replaced. *)
let test_encoder_corners () =
  let bytes = List.init 256 (fun c -> String.make 1 (Char.chr c)) in
  let corners =
    Json.List
      [
        Json.List
          (List.map
             (fun n -> Json.Int n)
             [ 0; 1; -1; 9; -9; 10; -10; max_int; min_int ]);
        Json.List (List.map (fun b -> Json.String b) bytes);
        Json.String (String.concat "" bytes);
        Json.Obj (List.map (fun b -> (b, Json.Null)) bytes);
      ]
  in
  Alcotest.(check string)
    "reference bytes"
    (Whynot_proptest.Oracle.json_to_string corners)
    (Json.to_string corners)

(* A create's document is one long JSON string whose first escape, the
   newline that ends its first line, comes early. Its decoding copies
   into one buffer sized from the encoded span up to the closing quote,
   so it allocates that span and the result, and under 1 KB besides: 13,902
   bytes for this 40-city document, where a buffer grown by doubling from
   the first line's length made it 22,471. *)
let test_escaped_string_one_buffer () =
  let text = cities_document ~n_cities:40 in
  let line = Json.to_string (Json.String text) in
  Alcotest.(check bool) "first escape in the first line" true
    (String.index line '\\' <= String.index text '\n' + 1);
  let b0 = Gc.allocated_bytes () in
  let decoded = Json.of_string line in
  let bytes = Gc.allocated_bytes () -. b0 in
  (match decoded with
   | Ok (Json.String t) -> Alcotest.(check string) "decoded" text t
   | _ -> Alcotest.fail "the document string did not decode");
  let bound = float_of_int (String.length line + String.length text + 1024) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes allocated for a %d-byte line, at most %.0f"
       bytes (String.length line) bound)
    true (bytes <= bound)

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
  (* The server writes each envelope as one line, newline included. *)
  let err = Protocol.error_reply ~code:"overloaded" ~message:"m" () in
  Alcotest.(check bool) "one line, newline last" true
    (String.index err '\n' = String.length err - 1);
  match Json.of_string (String.sub err 0 (String.length err - 1)) with
  | Ok j -> Alcotest.(check (option string)) "error code" (Some "overloaded") (error_code j)
  | Error _ -> Alcotest.fail "error envelope must be valid JSON"

(* --- the built binary --- *)

(* The built whynot_serverd, a dependency of this suite: dune runtest
   runs it from the test build directory, dune exec from the project
   root. *)
let serverd () =
  match
    List.find_opt Sys.file_exists
      [ "../bin/whynot_serverd.exe"; "_build/default/bin/whynot_serverd.exe" ]
  with
  | Some exe -> exe
  | None -> Alcotest.fail "whynot_serverd.exe is not built"

(* Spawns the binary with [args] and with the environment's OCAMLRUNPARAM
   and CAMLRUNPARAM replaced by [env], and applies [f] to its pid, its
   stdout and stderr, and a [wait] for its exit status. The process is
   killed afterwards unless [f] waited for it: SIGKILL, because this
   suite's threads block SIGTERM and a child inherits the signal mask. *)
let with_serverd ?(env = []) args f =
  let exe = serverd () in
  let inherited =
    List.filter
      (fun kv ->
        not
          (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv
          || String.starts_with ~prefix:"CAMLRUNPARAM=" kv))
      (Array.to_list (Unix.environment ()))
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      (Array.of_list (inherited @ env))
      Unix.stdin out_w err_w
  in
  Unix.close out_w;
  Unix.close err_w;
  let out = Unix.in_channel_of_descr out_r
  and err = Unix.in_channel_of_descr err_r in
  let status = ref None in
  let wait () =
    match !status with
    | Some st -> st
    | None ->
      let _, st = Unix.waitpid [] pid in
      status := Some st;
      st
  in
  Fun.protect
    ~finally:(fun () ->
      if Option.is_none !status then (
        Unix.kill pid Sys.sigkill;
        ignore (wait ()));
      close_in out;
      close_in err)
    (fun () -> f ~pid ~out ~err ~wait)

(* The port of the boot line "whynot-server listening on HOST:PORT". *)
let boot_port boot =
  let colon = String.rindex boot ':' in
  int_of_string (String.sub boot (colon + 1) (String.length boot - colon - 1))

(* The [stats] reply's gc.minor_heap_words of the binary run with [env]. *)
let binary_minor_heap_words env =
  with_serverd ~env [ "--quiet"; "--port"; "0" ]
  @@ fun ~pid:_ ~out ~err:_ ~wait:_ ->
  let c = connect (boot_port (input_line out)) in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  match
    Option.bind
      (Json.member "gc" (check_ok "stats" (rpc c {|{"op":"stats"}|})))
      (Json.member "minor_heap_words")
  with
  | Some (Json.Int w) -> w
  | _ -> Alcotest.fail "stats lacks gc.minor_heap_words"

(* The binary's C main puts s=32k ahead of the user's OCAMLRUNPARAM, and
   the runtime takes a key's last value: the 32k-word minor heap unless
   the user sets its size. *)
let test_binary_minor_heap () =
  List.iter
    (fun (what, env, expected) ->
      Alcotest.(check int) what expected (binary_minor_heap_words env))
    [
      ("no OCAMLRUNPARAM", [], 32768);
      ("OCAMLRUNPARAM=b", [ "OCAMLRUNPARAM=b" ], 32768);
      ("OCAMLRUNPARAM=s=64k", [ "OCAMLRUNPARAM=s=64k" ], 65536);
    ]

(* Does a /proc/PID/maps line map a shared object, a file whose name
   has a ".so" part (libc.so.6, ld-linux-x86-64.so.2)? *)
let maps_shared_object line =
  match String.index_opt line '/' with
  | None -> false
  | Some i ->
    let path = String.sub line i (String.length line - i) in
    List.mem "so" (List.tl (String.split_on_char '.' (Filename.basename path)))

(* bin/dune links the server statically and without PIE: once booted,
   the process maps no dynamic loader and no shared library. *)
let test_binary_maps_no_shared_object () =
  with_serverd [ "--quiet"; "--port"; "0" ] @@ fun ~pid ~out ~err:_ ~wait:_ ->
  ignore (boot_port (input_line out));
  let maps =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/maps" pid)
      In_channel.input_all
  in
  Alcotest.(check (list string))
    "shared objects mapped" []
    (List.filter maps_shared_object (String.split_on_char '\n' maps))

(* glibc's name-service functions cannot run in the static binary, so
   --host takes numeric addresses only: Server.start parses it with
   Unix.inet_addr_of_string (inet_pton), which resolves nothing. A
   lookup of "localhost" would find it in /etc/hosts (a static glibc
   still loads libnss_files at run time for that) and boot; the
   parser's refusal shows that none took place. *)
let test_binary_numeric_host () =
  (with_serverd [ "--quiet"; "--port"; "0"; "--host"; "localhost" ]
   @@ fun ~pid:_ ~out ~err ~wait ->
   let stderr = In_channel.input_all err in
   (match wait () with
    | Unix.WEXITED 1 -> ()
    | _ -> Alcotest.fail "--host localhost must exit 1");
   Alcotest.(check string)
     "stderr" "whynot-server: cannot start: inet_addr_of_string\n" stderr;
   Alcotest.(check string) "no boot line" "" (In_channel.input_all out));
  with_serverd [ "--quiet"; "--port"; "0"; "--host"; "127.0.0.1" ]
  @@ fun ~pid:_ ~out ~err:_ ~wait:_ ->
  let boot = input_line out in
  Alcotest.(check bool)
    "boot line" true
    (String.starts_with ~prefix:"whynot-server listening on 127.0.0.1:" boot);
  let c = connect (boot_port boot) in
  Fun.protect ~finally:(fun () -> disconnect c) @@ fun () ->
  ignore (check_ok "stats" (rpc c {|{"op":"stats"}|}))

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "envelopes" `Quick test_protocol_envelopes;
          Alcotest.test_case "encoder corners equal the reference" `Quick
            test_encoder_corners;
          Alcotest.test_case "escaped string decodes into one buffer" `Quick
            test_escaped_string_one_buffer;
        ] );
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
          Alcotest.test_case "escaped nominal passes check_mge" `Quick
            test_escaped_nominal_round_trips;
          Alcotest.test_case "Figure 2 replies byte for byte" `Quick
            test_figure2_reply_bytes;
          Alcotest.test_case "golden replies byte for byte" `Quick
            test_golden_replies;
          Alcotest.test_case "sixteen-domain sessions exhaust no domains"
            `Quick test_many_sixteen_domain_sessions;
          Alcotest.test_case "sweep against a request at the TTL" `Quick
            test_sweep_against_request_at_ttl;
          Alcotest.test_case "session churn: no unknown-session after create"
            `Quick test_session_churn_no_unknown;
          Alcotest.test_case "intake allocation budget" `Quick
            test_intake_allocation_budget;
          Alcotest.test_case "per-request allocation budget" `Quick
            test_request_allocation_budget;
          Alcotest.test_case "stats reports the GC" `Quick
            test_stats_reports_gc;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "deadline times out, connection survives" `Quick
            test_deadline_timeout_connection_survives;
          Alcotest.test_case "overload sheds" `Quick test_overload_sheds;
          Alcotest.test_case "framing: split, batched and CRLF lines" `Quick
            test_framing;
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
          Alcotest.test_case "shutdown wakes idle threads" `Quick
            test_shutdown_wakes_idle_threads;
          Alcotest.test_case "drain ends blocked reads" `Quick
            test_drain_ends_blocked_reads;
          Alcotest.test_case "drain after the accept thread dies" `Quick
            test_drain_after_accept_thread_dies;
          Alcotest.test_case "peer half-close while blocked in read" `Quick
            test_peer_half_close;
          Alcotest.test_case "lines pipelined at shutdown: replies or EOF"
            `Quick test_pipelined_lines_at_shutdown;
          Alcotest.test_case "external SIGTERM wakes wait" `Quick
            test_external_sigterm_wakes_wait;
        ] );
      ( "binary",
        [
          Alcotest.test_case "minor heap set at runtime start" `Quick
            test_binary_minor_heap;
          Alcotest.test_case "static: maps no shared object" `Quick
            test_binary_maps_no_shared_object;
          Alcotest.test_case "--host is numeric only" `Quick
            test_binary_numeric_host;
        ] );
    ]
