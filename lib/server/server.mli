(** The long-running why-not server: a TCP listener speaking the
    newline-delimited JSON protocol of {!Protocol}, one systhread per
    connection, sessions shared across connections through {!Registry}.

    Robustness posture:
    {ul
     {- {b Load shedding} — at most [max_inflight] requests execute at
        once; excess requests are answered ["overloaded"] immediately
        rather than queued without bound. Likewise connections beyond
        [max_conns] are refused with an ["overloaded"] line.}
     {- {b Deadlines} — every session-scoped request runs under a
        cooperative deadline ({!Whynot.Engine.set_deadline}); a tripped
        deadline yields a ["timeout"] response and leaves both the
        connection and the session usable.}
     {- {b Request caps} — a connection is closed (after a
        ["request-cap"] error) once it has sent [max_requests_per_conn]
        requests, bounding what any one client can hold.}
     {- {b Malformed input} — an unparsable line gets a ["parse"] error
        response; it never kills the connection, let alone the server.}
     {- {b Graceful drain} — {!initiate_shutdown} (installed on SIGTERM /
        SIGINT by {!install_signal_handlers}) stops accepting, lets
        in-flight requests finish, closes every session, and lets
        {!wait} return.}}

    Observability: the [server.*] counters ({!Whynot_obs.Obs}) meter
    accepted/shed connections, served/shed/timed-out/malformed requests
    and session lifecycle; per-op latency timers surface as
    [server.op.<op>.ns]/[.calls]; one access-log line per request goes to
    stderr when [access_log] is set. *)

type config = {
  host : string;             (** bind address, e.g. ["127.0.0.1"] *)
  port : int;                (** [0] picks an ephemeral port (see {!port}) *)
  max_sessions : int;
  max_conns : int;           (** concurrent connections *)
  max_inflight : int;        (** concurrently executing requests *)
  max_requests_per_conn : int;
  max_line_bytes : int;      (** request lines longer than this close the
                                 connection after a ["parse"] error *)
  default_deadline_ms : int; (** per-request deadline; [0] = none *)
  max_deadline_ms : int;     (** cap on client deadlines; [0] = none *)
  session_ttl_ms : int;      (** idle-session eviction; [0] = never *)
  sweep_interval_ms : int;   (** how often the accept thread runs the TTL
                                 sweep (also its longest select wait) *)
  access_log : bool;         (** one stderr line per request *)
  debug_ops : bool;          (** enable [debug_sleep] and its [fail] (tests only) *)
}

val default_config : config
(** Loopback host, ephemeral port, generous limits, a 10 s
    default deadline with a 60 s cap, 10 min TTL, access log on. *)

type t

val start : config -> (t, string) result
(** Bind, listen, and spawn the accept thread, which also runs the TTL
    sweep every [sweep_interval_ms]. Connection threads block in [read]
    on their socket with no timeout, one read per request, so an idle
    server wakes only for the sweep. [Error] carries the bind failure
    (address in use, permission). *)

val port : t -> int
(** The actually bound port (useful with [config.port = 0]). *)

val session_count : t -> int

val initiate_shutdown : t -> unit
(** Signal-safe and idempotent: sets the shutdown flag and, the first
    time, writes one byte to the wake pipe. Nothing reads the byte back,
    so the pipe stays readable and wakes the accept thread and {!wait},
    now or later. Open connections keep their reads until {!wait}
    ends them. *)

val wait : t -> unit
(** Block until the server has fully drained: accept loop exited, every
    connection thread finished, every session closed, listener and wake
    pipe closed. Once the accept thread is joined (it may also have died
    of an error), [wait] shuts down the receiving side of every open
    connection ([Unix.SHUTDOWN_RECEIVE]): a connection blocked in [read]
    sees end of input, one serving a request writes its reply first, and
    no further line is served. Call {!initiate_shutdown} (or send SIGTERM) to make it
    return; a second call returns at once. Until shutdown begins it
    waits in [select] on the wake pipe, so a SIGTERM delivered to the
    waiting thread runs its handler at once. *)

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT call {!initiate_shutdown}. (SIGPIPE is already
    ignored by {!start} — a client hanging up mid-response must not kill
    the process.) *)
