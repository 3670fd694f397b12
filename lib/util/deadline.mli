(** Wall-clock deadlines for the solver stack.

    Engines take an optional [t] and poll it at their natural iteration
    boundary (simplex pivot, branch-and-bound node, abstract layer,
    bisection split); on exhaustion they raise {!Expired} — caught at
    the verdict layer and turned into a structured [Unknown] — or
    return their best incumbent bound. *)

(** Raised by {!check} once the deadline has passed. The payload is a
    human-readable description of the budget that ran out. *)
exception Expired of string

(** [now ()] is the deadline layer's time source: monotonic seconds
    from {!Clock}, immune to NTP steps and [settimeofday]. The origin
    is arbitrary — use differences only. Tests redirect it with
    {!Clock.set_source}. *)
val now : unit -> float

type t

(** A value with no budget at all: never expires. *)
val no_budget : t

(** [make ~seconds] is a deadline [seconds] from now on the monotonic
    {!now} timeline (a non-positive budget is already expired). The
    armed {!Fault.Deadline_zero} fault forces the budget to zero. *)
val make : seconds:float -> t

(** [remaining t] is the wall-clock budget left in seconds ([infinity]
    when no deadline is set, negative once expired). *)
val remaining : t -> float

(** [expired t] polls the deadline without raising. *)
val expired : t -> bool

(** [expired_opt d] is {!expired} lifted to the [option] threaded
    through the solvers ([None] = unlimited). *)
val expired_opt : t option -> bool

(** [check t] raises {!Expired} when the deadline has passed. *)
val check : t -> unit

(** [check_opt d] is {!check} on [Some t], a no-op on [None]. *)
val check_opt : t option -> unit

(** [check_every ~mask iter d] polls the clock only when
    [iter land mask = 0]; [mask] must be [2^k - 1]. Cheap enough for
    per-pivot use in hot loops. *)
val check_every : mask:int -> int -> t option -> unit
