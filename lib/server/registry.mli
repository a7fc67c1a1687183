(** The session registry: a bounded table mapping client-chosen names
    to live {!Whynot.Engine} values plus the parsing context needed to
    serve wire requests against them. Lookups and changes are serialised
    by a mutex.

    The registry owns only the {e table}; engines are closed by the
    caller (the request handlers and the server's TTL sweep/drain paths),
    always under the session's own [lock] so an in-flight operation
    finishes before the engine goes away. *)

open Whynot_relational

type source = Workload of string | Inline

type session = {
  name : string;
  doc : Whynot_text.Parser.document;
      (** attribute-name context for concepts: {!add} makes the
          session's concept reader from it *)
  schema : Schema.t;
  engine : Whynot.Engine.t;
  query : Cq.t option;        (** the document's query, when present *)
  default_missing : Value.t list option;
  source : source;
  created_at_s : float;
  lock : Mutex.t;
      (** serialises engine operations — engines are single-domain-at-a-
          time values; every handler and the TTL sweep take this lock *)
  mutable last_used_s : float;
}

type t

val create : max_sessions:int -> t

val count : t -> int

type concept_reader =
  string -> (Whynot_concept.Ls.t, Whynot_error.t) result

val add : t -> session -> (unit, [ `Exists | `Full ]) result
(** Also makes the session's concept reader,
    [Whynot_text.Parser.concept_reader s.doc], once. *)

val find : t -> string -> session option
(** Bumps the session's [last_used_s] (keeping it alive w.r.t. the TTL
    sweep) before returning it. *)

val find_reading :
  t -> string -> now:float -> (session * concept_reader) option
(** {!find} with the concept reader {!add} made for the session, setting
    [last_used_s] to [now] (a {!Whynot_obs.Obs.now_s} reading the caller
    already has) rather than reading the clock. The lookup and the bump
    are one step under the registry's mutex, so a concurrent {!sweep}
    either unlinks the session first (and this returns [None]) or sees
    it used at [now]. *)

val remove : t -> string -> session option
(** Unlinks the session from the table; the caller closes its engine. *)

val sweep : t -> ttl_s:float -> now_s:float -> session list
(** Unlink every session idle longer than [ttl_s] and return them for
    the caller to close. *)

val drain : t -> session list
(** Unlink all sessions (shutdown path). *)
