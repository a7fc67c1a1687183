(** Near-zero-overhead observability counters and timers.

    The hot paths of the explanation engine (subsumption deciders, the MGE
    algorithms, the chase) increment process-global counters through this
    module; a counter bump is a single atomic increment, so the
    instrumentation can stay on unconditionally. Consumers read the
    counters back as a {!snapshot} (the benchmark harness records a
    {!delta} around each measured experiment and dumps it into
    [BENCH_whynot.json]) or pretty-print them ([whynot_cli --stats]).

    Counters are registered lazily by name; names are dot-separated,
    lowest-level subsystem first (e.g. ["subsume.inst.hits"]). Registering
    the same name twice returns the same counter, so modules may simply
    call {!counter} at toplevel.

    The registry is process-global and safe to use from concurrent
    threads: each counter is one atomic cell, so no bump is ever lost, and
    registration takes a lock. A reader racing a concurrent bump may see a
    value that is off by the in-flight increments. *)

type counter
(** A named monotone integer counter. *)

val counter : ?doc:string -> string -> counter
(** [counter name] registers (or retrieves) the counter called [name].
    [doc] is a one-line description shown by {!pp}; the first non-empty
    [doc] supplied for a name wins. *)

val incr : counter -> unit
(** Add 1. *)

val add : counter -> int -> unit
(** Add [n] (useful for batch counts, e.g. "candidates generated"). *)

val value : counter -> int
(** Current value since process start. *)

val now_s : unit -> float
(** The wall clock the timers use ([Unix.gettimeofday]), re-exported so
    higher layers with no [unix] dependency of their own (the deadline
    checks of {!Whynot_concept.Subsume_memo}) share one time source. *)

type timer
(** A named accumulating wall-clock timer. Each {!record} adds the
    elapsed nanoseconds of one call; a timer surfaces in snapshots as two entries,
    [<name>.ns] (accumulated nanoseconds) and [<name>.calls]. *)

val timer : ?doc:string -> string -> timer
(** Register (or retrieve) the timer called [name]. *)

val record : timer -> since:float -> unit
(** Add one call lasting from [since], a {!now_s} reading, to now. The
    caller reads the clock when the timed step starts; a step that
    raises is recorded by the caller's handler. *)

val snapshot : unit -> (string * int) list
(** All registered counters and timers with their current values, sorted
    by name. Timers contribute [<name>.ns] and [<name>.calls] entries. *)

val delta : (unit -> 'a) -> 'a * (string * int) list
(** Run the thunk and return the per-name increase of every counter/timer
    during the call (zero-increase entries are dropped). *)

val pp : Format.formatter -> unit -> unit
(** A human-readable table of every counter/timer with a non-zero value,
    with descriptions where supplied. *)
