(* The TCP serving layer. One systhread per connection (request handling
   is dominated by engine work; systhreads are plenty for the socket
   plumbing), each blocked in [read] on its own socket, so a request
   costs one read and an idle server takes no timer wakeups; a wake pipe
   for the accept thread and [wait], which at shutdown, once the accept
   thread is joined, ends every connection's read with [shutdown
   SHUTDOWN_RECEIVE]; and an atomic count of running requests as the
   bounded "queue": a request either takes one of [max_inflight] slots
   or is shed with an "overloaded" response — requests are never
   buffered without bound, and no thread ever blocks on the count. *)

module Obs = Whynot_obs.Obs

type config = {
  host : string;
  port : int;
  max_sessions : int;
  max_conns : int;
  max_inflight : int;
  max_requests_per_conn : int;
  max_line_bytes : int;
  default_deadline_ms : int;
  max_deadline_ms : int;
  session_ttl_ms : int;
  sweep_interval_ms : int;
  access_log : bool;
  debug_ops : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_sessions = 64;
    max_conns = 64;
    max_inflight = 16;
    max_requests_per_conn = 10_000;
    max_line_bytes = 1 lsl 20;
    default_deadline_ms = 10_000;
    max_deadline_ms = 60_000;
    session_ttl_ms = 600_000;
    sweep_interval_ms = 1_000;
    access_log = true;
    debug_ops = false;
  }

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  bound_port : int;
  registry : Registry.t;
  deps : Handlers.deps;
  shutting_down : bool Atomic.t;
  wake_r : Unix.file_descr;         (* readable once shutdown begins *)
  wake_w : Unix.file_descr;
  inflight : int Atomic.t;  (* requests running, at most [inflight_limit] *)
  inflight_limit : int;
  live : (Unix.file_descr, unit) Hashtbl.t;
      (* open connections, guarded by [conn_mutex]: a connection thread
         removes and closes its socket under it, so the shutdown pass
         never reaches a number that a new socket reuses *)
  conn_mutex : Mutex.t;
  conn_cond : Condition.t;
  mutable accept_thread : Thread.t option;
}

(* --- counters and timers --- *)

let c_conns_accepted =
  Obs.counter "server.conns.accepted" ~doc:"TCP connections accepted"

let c_conns_shed =
  Obs.counter "server.conns.shed"
    ~doc:"connections refused because max_conns was reached"

let c_requests = Obs.counter "server.requests" ~doc:"request lines received"
let c_served = Obs.counter "server.served" ~doc:"requests answered with a result"

let c_errors =
  Obs.counter "server.errors" ~doc:"requests answered with a non-timeout error"

let c_shed =
  Obs.counter "server.shed"
    ~doc:"requests shed with \"overloaded\" because max_inflight was reached"

let c_timeouts =
  Obs.counter "server.timeouts" ~doc:"requests cancelled by their deadline"

let c_malformed =
  Obs.counter "server.malformed" ~doc:"request lines that failed to parse"

let c_accept_backoffs =
  Obs.counter "server.accept.backoffs"
    ~doc:"accepts that found no descriptor or buffer free and backed off"

(* Only the fixed op vocabulary gets a timer: registering timers for
   arbitrary client-supplied op strings would let a client grow the
   process-global registry without bound. [op_timers.(i)] times the op
   [Handlers.op_index] numbers [i]. *)
let op_timers =
  Array.of_list
    (List.map
       (fun op -> Obs.timer ("server.op." ^ op) ~doc:"wire op latency")
       Handlers.known_ops)

(* --- logging --- *)

(* With the log off, [ikfprintf] consumes the arguments and formats
   nothing. *)
let log t fmt =
  if t.cfg.access_log then
    Printf.ksprintf (fun s -> Printf.eprintf "whynot-server: %s\n%!" s) fmt
  else Printf.ikfprintf ignore () fmt

let peer_string = function
  | Unix.ADDR_INET (addr, port) ->
    Unix.string_of_inet_addr addr ^ ":" ^ string_of_int port
  | Unix.ADDR_UNIX path -> path

(* --- connection I/O --- *)

exception Conn_closed

(* [data] is one envelope and its newline ([Protocol.ok_reply] or
   [Protocol.error_reply]). *)
let write_line fd data =
  let len = String.length data in
  let off = ref 0 in
  (try
     while !off < len do
       off := !off + Unix.write_substring fd data !off (len - !off)
     done
   with Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
     raise Conn_closed)

(* An error that answers no request: a line over the cap, a spent
   request budget, a refused connection. *)
let write_error fd ~code ~message =
  write_line fd (Protocol.error_reply ~code ~message ())

(* The bytes read and not yet served are [buf.[start .. stop - 1]], of
   which [start .. scanned - 1] hold no newline: each byte is searched
   for a newline once, and a line is copied out once. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable scanned : int;
}

let chunk = 4096

let make_reader fd =
  { fd; buf = Bytes.create chunk; start = 0; stop = 0; scanned = 0 }

(* The next complete line, CR stripped, if the pending bytes hold one. *)
let take_line r =
  let rec newline i =
    if i = r.stop then -1
    else if Bytes.unsafe_get r.buf i = '\n' then i
    else newline (i + 1)
  in
  match newline r.scanned with
  | -1 ->
    r.scanned <- r.stop;
    None
  | i ->
    let e = if i > r.start && Bytes.get r.buf (i - 1) = '\r' then i - 1 else i in
    let line = Bytes.sub_string r.buf r.start (e - r.start) in
    r.start <- i + 1;
    r.scanned <- i + 1;
    Some line

(* Room for a chunk at [stop]: the pending bytes move to the front, and
   the buffer doubles while they leave less than a chunk free. A buffer
   a long line grew goes back to one chunk once it is drained. *)
let make_room r =
  let pending = r.stop - r.start in
  if pending = 0 && Bytes.length r.buf > 16 * chunk then
    r.buf <- Bytes.create chunk
  else if r.start > 0 then Bytes.blit r.buf r.start r.buf 0 pending;
  r.scanned <- r.scanned - r.start;
  r.start <- 0;
  r.stop <- pending;
  if Bytes.length r.buf - pending < chunk then begin
    let size = ref (2 * Bytes.length r.buf) in
    while !size - pending < chunk do size := 2 * !size done;
    let b = Bytes.create !size in
    Bytes.blit r.buf 0 b 0 pending;
    r.buf <- b
  end

(* Pull one newline-terminated line out of the reader, blocking in
   [read] on the socket: an idle connection never wakes, and the
   shutdown pass ([SHUTDOWN_RECEIVE]) makes the read return 0.
   [`Line s] (CR stripped), [`Eof] (peer hung up or shutdown), or
   [`Too_long] once the pending unterminated input exceeds the cap. *)
let read_line r ~max_bytes =
  let rec loop () =
    match take_line r with
    | Some line -> `Line line
    | None ->
      if r.stop - r.start > max_bytes then `Too_long
      else begin
        make_room r;
        match Unix.read r.fd r.buf r.stop (Bytes.length r.buf - r.stop) with
        | 0 -> `Eof
        | n ->
          r.stop <- r.stop + n;
          loop ()
        | exception Unix.Unix_error (EINTR, _, _) -> loop ()
        | exception Unix.Unix_error ((ECONNRESET | EBADF), _, _) -> `Eof
      end
  in
  loop ()

(* --- per-request processing --- *)

(* One of [inflight_limit] slots, or [false] when all are taken. *)
let rec try_acquire t =
  let n = Atomic.get t.inflight in
  n < t.inflight_limit
  && (Atomic.compare_and_set t.inflight n (n + 1) || try_acquire t)

(* The handler's result, an exception from it answered [internal] (a
   handler bug or an exhausted resource costs this request only). The
   slot is released and the op timed however the handler ends. *)
let run_handler t req ~now =
  let result =
    match Handlers.handle_at t.deps req ~now with
    | r -> r
    | exception e -> Error ("internal", Printexc.to_string e)
  in
  Atomic.decr t.inflight;
  (match Handlers.op_index req.Protocol.op with
   | -1 -> ()
   | slot -> Obs.record op_timers.(slot) ~since:now);
  result

let serve_request t peer line =
  Obs.incr c_requests;
  (* The request's one clock reading: its deadline, its session's
     [last_used_s], its op timer's start and the access log's. *)
  let now = Obs.now_s () in
  let reply, status =
    match Protocol.parse_request line with
    | Error message ->
      Obs.incr c_malformed;
      Obs.incr c_errors;
      (Protocol.error_reply ~code:"parse" ~message (), "parse")
    | Ok req ->
      if not (try_acquire t) then begin
        Obs.incr c_shed;
        ( Protocol.error_reply ~request:req ~code:"overloaded"
            ~message:"the server is at its concurrent-request limit" (),
          "overloaded" )
      end
      else begin
        match run_handler t req ~now with
        | Ok json ->
          Obs.incr c_served;
          (Protocol.ok_reply req json, "ok")
        | Error (code, message) ->
          (match code with
           | "timeout" -> Obs.incr c_timeouts
           | "overloaded" -> Obs.incr c_shed
           | _ -> Obs.incr c_errors);
          (Protocol.error_reply ~request:req ~code ~message (), code)
      end
  in
  if t.cfg.access_log then
    log t "peer=%s status=%s dur_ms=%.2f bytes=%d" peer status
      ((Obs.now_s () -. now) *. 1000.)
      (String.length reply - 1);
  reply

(* --- connection loop --- *)

let conn_main t fd peer =
  let reader = make_reader fd in
  let served = ref 0 in
  (try
     let rec loop () =
       if Atomic.get t.shutting_down then ()
       else
         match read_line reader ~max_bytes:t.cfg.max_line_bytes with
         | `Eof -> ()
         | `Too_long ->
           Obs.incr c_malformed;
           Obs.incr c_errors;
           write_error fd ~code:"parse"
             ~message:
               (Printf.sprintf "request line exceeds %d bytes"
                  t.cfg.max_line_bytes);
           (* Framing is lost beyond the cap: drop the connection. *)
           ()
         | `Line "" -> loop ()
         | `Line line ->
           if !served >= t.cfg.max_requests_per_conn then begin
             Obs.incr c_errors;
             write_error fd ~code:"request-cap"
               ~message:
                 (Printf.sprintf
                    "this connection exhausted its budget of %d requests"
                    t.cfg.max_requests_per_conn)
           end
           else begin
             incr served;
             write_line fd (serve_request t peer line);
             loop ()
           end
     in
     loop ()
   with
   | Conn_closed -> ()
   | e ->
     log t "peer=%s connection error: %s" peer (Printexc.to_string e));
  Mutex.protect t.conn_mutex (fun () ->
    Hashtbl.remove t.live fd;
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
    Condition.broadcast t.conn_cond)

(* --- accept loop and TTL sweep --- *)

let sweep t =
  if t.cfg.session_ttl_ms > 0 then begin
    let ttl_s = float_of_int t.cfg.session_ttl_ms /. 1000. in
    let stale = Registry.sweep t.registry ~ttl_s ~now_s:(Obs.now_s ()) in
    List.iter
      (fun (s : Registry.session) ->
         Handlers.close_session ~swept:true s;
         log t "session=%s status=swept" s.Registry.name)
      stale
  end

let accept_backoff_s = 0.05

let accept_conn t =
  match Unix.accept ~cloexec:true t.lsock with
  | fd, peer_addr ->
    Obs.incr c_conns_accepted;
    (* Each reply is one [write], so Nagle has nothing to coalesce;
       left on, it holds a reply behind the previous one's ACK. *)
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error (_, _, _) -> ());
    let peer = peer_string peer_addr in
    let admitted =
      Mutex.protect t.conn_mutex (fun () ->
        if Hashtbl.length t.live >= t.cfg.max_conns then false
        else begin
          Hashtbl.replace t.live fd ();
          true
        end)
    in
    if admitted then ignore (Thread.create (fun () -> conn_main t fd peer) ())
    else begin
      Obs.incr c_conns_shed;
      (try
         write_error fd ~code:"overloaded"
           ~message:"the server is at its connection limit"
       with Conn_closed -> ());
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      log t "peer=%s status=conn-shed" peer
    end
  | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> ()
  | exception Unix.Unix_error ((EMFILE | ENFILE | ENOBUFS | ENOMEM), _, _) ->
    (* No descriptor or buffer free: the connection waits in the backlog
       while the accept thread backs off, and the next accept retries.
       Shutdown cuts the wait short. *)
    Obs.incr c_accept_backoffs;
    (try ignore (Unix.select [ t.wake_r ] [] [] accept_backoff_s)
     with Unix.Unix_error (EINTR, _, _) -> ())

(* The accept thread also runs the TTL sweep: its select times out when
   the next sweep is due. The timeout stays finite even with the TTL off,
   since it bounds how long an OCaml signal handler waits when the signal
   lands on a thread blocked outside OCaml. *)
let accept_loop t =
  let interval_s = float_of_int (max t.cfg.sweep_interval_ms 10) /. 1000. in
  let rec loop next_sweep =
    if not (Atomic.get t.shutting_down) then begin
      let timeout = Float.max 0. (next_sweep -. Obs.now_s ()) in
      (match Unix.select [ t.lsock; t.wake_r ] [] [] timeout with
       | readable, _, _ -> if List.mem t.lsock readable then accept_conn t
       | exception Unix.Unix_error (EINTR, _, _) -> ());
      let now = Obs.now_s () in
      if now < next_sweep || Atomic.get t.shutting_down then loop next_sweep
      else begin
        sweep t;
        loop (now +. interval_s)
      end
    end
  in
  (* However the loop ends, the listener closes: an accept thread that
     died of an unexpected error refuses new connections rather than
     leaving them in the backlog. *)
  Fun.protect
    ~finally:(fun () ->
      try Unix.close t.lsock with Unix.Unix_error (_, _, _) -> ())
    (fun () -> loop (Obs.now_s () +. interval_s))

(* --- lifecycle --- *)

let start cfg =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
   | _ -> ()
   | exception Sys_error _ -> ());
  match
    let addr = Unix.inet_addr_of_string cfg.host in
    let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt lsock Unix.SO_REUSEADDR true;
    (try Unix.bind lsock (Unix.ADDR_INET (addr, cfg.port))
     with e ->
       Unix.close lsock;
       raise e);
    Unix.listen lsock 64;
    let bound_port =
      match Unix.getsockname lsock with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> cfg.port
    in
    let registry = Registry.create ~max_sessions:cfg.max_sessions in
    let wake_r, wake_w = Unix.pipe ~cloexec:true () in
    let deps =
      {
        Handlers.registry;
        domains_default = 1;
        domains_max = 16;
        default_deadline_ms = cfg.default_deadline_ms;
        max_deadline_ms = cfg.max_deadline_ms;
        debug_ops = cfg.debug_ops;
        started_at_s = Obs.now_s ();
      }
    in
    let t =
      {
        cfg;
        lsock;
        bound_port;
        registry;
        deps;
        shutting_down = Atomic.make false;
        wake_r;
        wake_w;
        inflight = Atomic.make 0;
        inflight_limit = max cfg.max_inflight 1;
        live = Hashtbl.create 16;
        conn_mutex = Mutex.create ();
        conn_cond = Condition.create ();
        accept_thread = None;
      }
    in
    t.accept_thread <- Some (Thread.create accept_loop t);
    log t "listening on %s:%d" cfg.host bound_port;
    t
  with
  | t -> Ok t
  | exception Unix.Unix_error (err, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))
  | exception Failure msg -> Error msg

let port t = t.bound_port
let session_count t = Registry.count t.registry

(* The byte is never read back, so the pipe stays readable for the
   accept thread and [wait], now or later. *)
let initiate_shutdown t =
  if not (Atomic.exchange t.shutting_down true) then
    try ignore (Unix.single_write_substring t.wake_w "x" 0 1)
    with Unix.Unix_error (_, _, _) -> ()

let wait t =
  match t.accept_thread with
  | None -> () (* already drained *)
  | Some accept_thread ->
    (* Block in [select], where a signal interrupts the wait, rather than
       in the join: SIGTERM usually lands on this thread, and its OCaml
       handler runs only once the thread is back in OCaml code. *)
    let rec until_woken () =
      match Unix.select [ t.wake_r ] [] [] (-1.) with
      | _ -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> until_woken ()
    in
    until_woken ();
    Thread.join accept_thread;
    t.accept_thread <- None;
    (* The shutdown pass, here rather than in the accept thread so that
       it runs however that thread ended: every connection blocked in
       [read] gets 0 (end of input); one serving a request writes its
       reply, then sees the flag. No connection is added after the join. *)
    Mutex.protect t.conn_mutex (fun () ->
      Hashtbl.iter
        (fun fd () ->
           try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
           with Unix.Unix_error (_, _, _) -> ())
        t.live;
      while Hashtbl.length t.live > 0 do
        Condition.wait t.conn_cond t.conn_mutex
      done);
    (* No thread selects on the wake pipe any more. *)
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
      [ t.wake_r; t.wake_w ];
    let drained = Registry.drain t.registry in
    List.iter (Handlers.close_session ~swept:false) drained;
    log t "drained: %d sessions closed, %d requests served"
      (List.length drained) (Obs.value c_served)

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> initiate_shutdown t) in
  (try Sys.set_signal Sys.sigterm handle with Sys_error _ | Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint handle with Sys_error _ | Invalid_argument _ -> ())
