(** Request handlers: one function per wire operation, dispatched by
    {!handle}. Handlers are transport-agnostic — they consume a parsed
    {!Protocol.request} and produce either a result JSON or an
    [(error code, message)] pair; the server layer wraps both in
    envelopes, meters them, and owns the sockets. *)

type deps = {
  registry : Registry.t;
  domains_default : int;
      (** echoed by [create] when the request names no ["domains"] *)
  domains_max : int;
      (** upper bound [create] accepts for ["domains"]; the value is
          range-checked and echoed, and changes nothing else *)
  default_deadline_ms : int;  (** per-request deadline; [0] = none *)
  max_deadline_ms : int;      (** cap on client-chosen deadlines; [0] = none *)
  debug_ops : bool;
      (** enable [debug_sleep] (tests only): it sleeps [ms], then raises
          [Failure fail] when the request has a [fail] string *)
  started_at_s : float;
}

val json_of_explanation :
  Whynot_relational.Schema.t ->
  Whynot_concept.Ls.t Whynot_core.Explanation.t ->
  Protocol.Wjson.t
(** An explanation as the wire carries it: a list of concept strings in
    the text format's grammar, which [check_mge] reads back. *)

val known_ops : string list
(** Every op {!handle} dispatches (including the debug ones) — the server
    pre-registers one latency timer per entry. *)

val op_index : string -> int
(** An op's index in {!known_ops}, or [-1] for any other string. *)

val handle_at :
  deps -> Protocol.request -> now:float ->
  (Protocol.Wjson.t, string * string) result
(** Dispatch one request that arrived at [now] (a
    {!Whynot_obs.Obs.now_s} reading). Session-scoped operations mark the
    session used at [now], lock it, install the request deadline (counted
    from [now]) on its engine, and clear it and unlock however the op
    ends; an engine that trips the deadline yields the ["timeout"] error
    code with the session left warm and usable. *)

val handle : deps -> Protocol.request -> (Protocol.Wjson.t, string * string) result
(** {!handle_at} at the current time. *)

val close_session : swept:bool -> Registry.session -> unit
(** Close a session's engine under its lock, counting it as closed (and
    additionally as swept when the idle TTL sweep triggered the close).
    Shared with the server's TTL sweep and shutdown drain. *)
