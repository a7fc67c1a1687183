(** The wire protocol of the why-not server: newline-delimited JSON
    request/response envelopes, schema_version {b 3}.

    Every request is one JSON object on one line:

    {v {"op": "one_mge", "session": "s1", "deadline_ms": 500, "id": 7} v}

    [op] is required; [session] names a registry entry (required by the
    session-scoped operations); [id] is an arbitrary JSON value echoed
    verbatim in the response, so pipelining clients can match replies;
    every other field is an operation parameter. Every response is one
    JSON object on one line, either

    {v {"schema_version": 3, "op": "...", "session": "...", "id": ...,
        "result": ...} v}

    or the error shape sharing the same header fields:

    {v {"schema_version": 3, "op": "...", "error":
        {"code": "timeout", "message": "..."}} v}

    Error codes are the {!Whynot_error.code} vocabulary plus the
    server-level codes ["unknown-op"], ["unknown-session"],
    ["session-exists"], ["session-limit"], ["overloaded"] (load shed),
    ["request-cap"] (per-connection request budget exhausted) and
    ["internal"] (a handler raised; the connection keeps serving). *)

module Wjson = Whynot.Json

type request = {
  id : Wjson.t option;      (** echoed verbatim in the response *)
  op : string;
  session : string option;
  body : Wjson.t;           (** the whole request object, for parameters *)
}

val parse_request : string -> (request, string) result
(** Decode one request line. [Error] carries a human-readable message —
    the caller wraps it in a ["parse"] error envelope and {e keeps the
    connection open}. *)

val str_param : request -> string -> string option
val int_param : request -> string -> int option
val list_param : request -> string -> Wjson.t list option

val values_of_json :
  Wjson.t list -> (Whynot_relational.Value.t list, string) result

val json_of_value : Whynot_relational.Value.t -> Wjson.t

val ok_line : request -> Wjson.t -> string
(** The success envelope of a request, as one line without its newline:
    [{"schema_version":3,"op":..,"session":..,"id":..,"result":..}],
    the headers in that order and each only when the request has it. *)

val ok_reply : request -> Wjson.t -> string
(** [ok_line req result ^ "\n"], written in one buffer: what the server
    sends. *)

val error_reply :
  ?request:request -> code:string -> message:string -> unit -> string
(** The error envelope and its newline. Header fields come from
    [request] when available (the pre-parse failures — malformed line,
    connection shed — have none). *)
