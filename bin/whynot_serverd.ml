(* Entry point of the why-not wire server. Flags are plain [Arg] (the
   CLI proper uses cmdliner; the server wants to stay bootable with zero
   extra linkage in minimal environments). *)

module Server = Whynot_server.Server

let () =
  let cfg = ref Server.default_config in
  let set f = Arg.Int (fun v -> cfg := f !cfg v) in
  let speclist =
    [
      ("--host", Arg.String (fun v -> cfg := { !cfg with host = v }),
       "ADDR bind address (default 127.0.0.1)");
      ("--port", set (fun c v -> { c with port = v }),
       "PORT listen port; 0 picks an ephemeral one (default 0)");
      ("--max-sessions", set (fun c v -> { c with max_sessions = v }),
       "N session-table capacity (default 64)");
      ("--max-conns", set (fun c v -> { c with max_conns = v }),
       "N concurrent connections (default 64)");
      ("--max-inflight", set (fun c v -> { c with max_inflight = v }),
       "N concurrently executing requests; excess is shed (default 16)");
      ("--max-requests", set (fun c v -> { c with max_requests_per_conn = v }),
       "N per-connection request budget (default 10000)");
      ("--max-line-bytes", set (fun c v -> { c with max_line_bytes = v }),
       "N request-line size cap (default 1MiB)");
      ("--deadline-ms", set (fun c v -> { c with default_deadline_ms = v }),
       "MS default per-request deadline; 0 disables (default 10000)");
      ("--max-deadline-ms", set (fun c v -> { c with max_deadline_ms = v }),
       "MS cap on client-chosen deadlines; 0 disables (default 60000)");
      ("--ttl-ms", set (fun c v -> { c with session_ttl_ms = v }),
       "MS idle-session eviction TTL; 0 disables (default 600000)");
      ("--sweep-ms", set (fun c v -> { c with sweep_interval_ms = v }),
       "MS TTL sweep interval (default 1000)");
      ("--quiet", Arg.Unit (fun () -> cfg := { !cfg with access_log = false }),
       " disable the stderr access log");
      ("--debug-ops", Arg.Unit (fun () -> cfg := { !cfg with debug_ops = true }),
       " enable the debug_sleep op (tests only)");
    ]
  in
  let usage = "whynot_server [options]\nServe why-not explanations over TCP." in
  Arg.parse speclist
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    usage;
  match Server.start !cfg with
  | Error msg ->
    Printf.eprintf "whynot-server: cannot start: %s\n%!" msg;
    exit 1
  | Ok server ->
    Server.install_signal_handlers server;
    (* The boot line goes to stdout so scripts can scrape the bound port
       even with --quiet. *)
    Printf.printf "whynot-server listening on %s:%d\n%!" (!cfg).host
      (Server.port server);
    Server.wait server;
    exit 0
