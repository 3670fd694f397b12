(** Wall-clock deadlines for the solver stack.

    Every potentially long-running engine (simplex pivots, branch-and-
    bound nodes, abstract-interpretation layers, bisection splits) takes
    an optional [t] and polls it at its natural iteration boundary. When
    the budget is gone the engine either raises {!Expired} — caught at
    the verdict layer and turned into a structured [Unknown] — or
    returns its best incumbent bound, so a verification call always
    terminates within a caller-chosen budget. This is what lets the
    continuous-verification loop of the paper run in the field: a
    re-verification triggered by a monitor event must never hang the
    deployment.

    A deadline is an absolute time on the {e monotonic} timeline of
    {!Clock} — immune to NTP steps and suspend-time wall-clock
    adjustments. Clock reads cost a syscall, so hot loops poll through
    {!check_every}, which samples the clock once per [mask+1]
    iterations. *)

(** Raised by {!check} once the deadline has passed. *)
exception Expired of string

(** [now ()] is the deadline layer's time source: monotonic seconds
    from {!Clock} (seam — tests swap it via {!Clock.set_source}). *)
let now () = Clock.now ()

type t = {
  expires_at : float option;  (** absolute monotonic {!now} time *)
  seconds : float;  (** originally requested budget, for messages *)
}

let no_budget = { expires_at = None; seconds = Float.infinity }

(** [make ~seconds] is a deadline [seconds] from now. A non-positive
    budget (or an armed {!Fault.Deadline_zero} fault) is already
    expired. *)
let make ~seconds =
  let seconds = if Fault.fires Fault.Deadline_zero then 0. else seconds in
  let expires_at =
    if seconds <= 0. then Float.neg_infinity else now () +. seconds
  in
  { expires_at = Some expires_at; seconds }

(** [remaining t] is the wall-clock budget left, in seconds
    ([infinity] when no deadline is set, negative once expired). *)
let remaining t =
  match t.expires_at with None -> Float.infinity | Some at -> at -. now ()

(** [expired t] polls the deadline without raising. *)
let expired t =
  match t.expires_at with None -> false | Some at -> now () > at

(** [expired_opt d] is [expired] lifted to the [option] threaded through
    the solvers ([None] = unlimited). *)
let expired_opt = function None -> false | Some t -> expired t

(** [check t] raises {!Expired} when the deadline has passed. *)
let check t =
  if expired t then
    raise
      (Expired (Printf.sprintf "wall-clock budget of %gs exhausted" t.seconds))

(** [check_opt d] is [check] on [Some t], a no-op on [None]. *)
let check_opt = function None -> () | Some t -> check t

(** [check_every ~mask iter d] polls the clock only when
    [iter land mask = 0] — cheap enough for per-pivot use. [mask] must
    be [2^k - 1]. *)
let check_every ~mask iter d =
  match d with
  | None -> ()
  | Some t -> if iter land mask = 0 then check t
