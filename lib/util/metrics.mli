(** Lightweight solver-stack metrics: named counters and cumulative
    timers, safe under {!Parallel} domains.

    Every engine increments its counters unconditionally — an increment
    is one atomic add, cheap enough for per-pivot use — so a run always
    has an exact account of where its effort went (simplex pivots,
    branch-and-bound nodes, abstract-domain invocations, bisection
    splits, falsifier samples, escalation rungs, strategy decisions).
    The CLI surfaces the registry as [--stats]; perfbench's traced runs
    read it as per-layer metrics.

    Naming convention: [<engine>.<quantity>], dot-separated, e.g.
    [lp.pivots], [milp.nodes], [domains.symint.calls],
    [verify.splits], [core.attempts]. The first segment groups the
    human-readable table per engine.

    Counters are interned: [counter name] returns the same cell for the
    same name, so modules can re-declare shared names freely. *)

type counter
type timer

(** [counter name] interns (creating on first use) the counter [name]. *)
val counter : string -> counter

(** [incr c] adds 1. *)
val incr : counter -> unit

(** [add c n] adds [n]. *)
val add : counter -> int -> unit

(** [value c] reads the current count. *)
val value : counter -> int

(** [timer name] interns (creating on first use) the cumulative timer
    [name]. *)
val timer : string -> timer

(** [add_seconds t s] accumulates [s] seconds. *)
val add_seconds : timer -> float -> unit

(** [time t f] runs [f ()], accumulating its monotonic wall-clock
    duration into [t] (also on exception). *)
val time : timer -> (unit -> 'a) -> 'a

(** [seconds t] reads the accumulated seconds. *)
val seconds : timer -> float

(** [reset ()] zeroes every counter and timer (the registry keeps its
    cells, so outstanding handles stay valid). *)
val reset : unit -> unit

(** [counters ()] snapshots all counters, sorted by name. *)
val counters : unit -> (string * int) list

(** [timers ()] snapshots all timers, sorted by name. *)
val timers : unit -> (string * float) list

(** [to_json ()] is [{"counters": {...}, "timers": {...}}] with only
    the non-zero entries. *)
val to_json : unit -> Json.t

(** [table ()] renders the non-zero entries as a human-readable table
    grouped by engine (the first dot-separated name segment) — the
    [--stats] output. Empty string when nothing was recorded. *)
val table : unit -> string

(** [allocated_bytes ()] is the number of bytes this domain has
    allocated so far: minor words read from the live allocation pointer
    ([Gc.minor_words]) plus words allocated directly in the major heap,
    times the word size. Take the difference of two readings to measure
    a span of code. [Gc.allocated_bytes] is not used: on OCaml 5.1 it
    reads the words since the last minor collection as bytes. *)
val allocated_bytes : unit -> float
