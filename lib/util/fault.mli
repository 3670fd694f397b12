(** Fault injection for robustness testing: a global registry of
    armable failure points polled by the solver stack and the artifact
    store. Intended for tests and chaos drills. *)

(** Raised by a fault hook standing in for an unexpected engine death. *)
exception Injected of string

(** Raised where an injected fault stands in for the death of the whole
    process ([Kill_mid_checkpoint]). Not transient: nothing retries it
    or degrades it to a verdict, so it ends the process. *)
exception Killed of string

type point =
  | Solver_failure  (** simplex raises mid-solve, as on numerical death *)
  | Truncate_artifact  (** artifact writes stop halfway through *)
  | Deadline_zero  (** every new deadline is created already expired *)
  | Kill_mid_checkpoint
      (** durable writes die halfway: tmp abandoned, target intact, and
          the writer raises {!Killed} *)
  | Worker_crash  (** a parallel branch-and-bound worker domain dies *)
  | Spurious_solver_error  (** transient warm-restart failure *)
  | Alloc_failure  (** solver arena allocation fails, as on OOM *)

(** All known fault points, for campaign planners and documentation. *)
val all_points : point list

(** How often an armed point fires when polled: every poll, exactly
    once, or on every [n]-th poll. *)
type mode = Always | Once | Every of int

(** [mode_name m] renders a mode the way [CONTIVER_FAULTS] spells it
    ([always], [once], [every=N]). *)
val mode_name : mode -> string

(** [point_name p] / [point_of_string s] name fault points for the
    [CONTIVER_FAULTS] environment variable and log lines. *)
val point_name : point -> string

val point_of_string : string -> point option

(** [enable ?mode p] / [disable p] arm and disarm a fault point
    (default mode [Always]). *)
val enable : ?mode:mode -> point -> unit

val disable : point -> unit

(** [reset ()] disarms every point. *)
val reset : unit -> unit

(** [enabled p] is true when the point is armed and still live. *)
val enabled : point -> bool

(** [fires p] is the consuming poll: true when the armed point strikes
    at this visit, advancing the point's poll counter. *)
val fires : point -> bool

(** [trip p] raises {!Injected} when [p] strikes on this poll. *)
val trip : point -> unit

(** [with_fault ?mode p f] runs [f] with [p] armed, disarming it
    afterwards even on exceptions. *)
val with_fault : ?mode:mode -> point -> (unit -> 'a) -> 'a

(** [init_from_env ()] arms the points listed in the comma-separated
    [CONTIVER_FAULTS] environment variable (specs [name], [name:once],
    [name:every=N]); unknown specs are reported on stderr and
    ignored. *)
val init_from_env : unit -> unit

(** [plan ~seed ~rounds ~points] draws a deterministic chaos campaign:
    [rounds] fault sequences, each arming one to three of [points] with
    randomly drawn modes. Same seed, same campaign. *)
val plan :
  seed:int -> rounds:int -> points:point list -> (point * mode) list list
