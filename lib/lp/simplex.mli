(** Two-phase primal simplex with dual-simplex warm restarts on a dense
    flat (row-major) tableau: solves [min c·y  s.t.  A y = b, y >= 0]
    (rows are sign-fixed internally). Dantzig pivoting with an automatic
    switch to Bland's rule for termination. An objective change on an
    optimal state restarts primal phase 2 from its basis. The
    computational core under {!Lp}. *)

type outcome =
  | Optimal of { objective : float; values : float array }
      (** [values] covers the structural variables only *)
  | Infeasible
  | Unbounded
  | Stalled
      (** the iteration limit was exceeded (numerical trouble); callers
          degrade to a timeout-style Unknown instead of crashing *)

(** Reusable solver state for a family of solves differing in
    right-hand sides (branch-and-bound node relaxations) or in the
    objective (bound queries on one encoding). Holds the pristine system
    plus one working tableau; after an optimal solve the basis
    warm-starts subsequent {!resolve} calls: via dual simplex after
    {!set_rhs}, via primal phase 2 after {!set_cost}. *)
type state

(** [make ~a ~b ~c ~basis0] captures the system [min c·y, Ay = b, y ≥ 0]
    without solving. [basis0.(i) = Some (j, s)] promises that structural
    column [j] has coefficient [s] (±1) in row [i] only, with zero
    objective cost (a slack/surplus "marker"): it seeds row [i]'s basis
    when [s·b.(i) ≥ 0] and enables O(m) rhs updates against a warm
    basis in {!set_rhs}. *)
val make :
  a:float array array ->
  b:float array ->
  c:float array ->
  basis0:(int * float) option array ->
  state

(** [copy_state st] is an independent state (shares the immutable
    pristine system, copies the working tableau and warm basis). *)
val copy_state : state -> state

(** [set_rhs st ~row v] replaces row [row]'s raw right-hand side. On a
    warm state with a marker for [row] this is a rank-one update that
    preserves the warm basis; otherwise — also while a {!set_cost}
    restart is pending — the next {!resolve} runs cold. *)
val set_rhs : state -> row:int -> float -> unit

(** [set_cost st c] replaces the objective [c] (length {!num_cols}; the
    array is copied). On a warm state whose basic values are all
    feasible, the objective row is repriced against the current basis
    and the next {!resolve} restarts primal phase 2 from it (timed as
    [lp.primal.seconds]); its verdict is certified like a dual restart,
    and an unbounded or stalled restart, a failed certificate or an
    injected [Spurious_solver_error] falls back to the cold path. Any
    other state goes cold. *)
val set_cost : state -> float array -> unit

(** [resolve st] solves the current system: a restart from the previous
    optimal basis when warm — primal phase 2 after {!set_cost}, dual
    simplex otherwise — counted as [lp.warmstart.hits] (stalls and
    failed certificates fall back to the cold path as
    [lp.warmstart.fallbacks]), two-phase primal otherwise
    ([lp.warmstart.misses]). The warm path serves at most 100
    consecutive solves before a cold refresh. [max_iters] caps the per-phase iteration
    count (default: a size-scaled limit); exceeding it yields
    {!Stalled}. [obj_limit] stops a warm dual solve early once weak
    duality certifies the (minimisation) objective is ≥ the limit — the
    returned [Optimal] then carries that certified bound, not
    necessarily the optimum (branch-and-bound fathoming needs nothing
    more). Raises {!Cv_util.Deadline.Expired} when [deadline] runs out
    mid-solve (polled every 32 pivots). *)
val resolve :
  ?deadline:Cv_util.Deadline.t ->
  ?max_iters:int ->
  ?obj_limit:float ->
  state ->
  outcome

(** [solve ?basis0 ~a ~b ~c ()] minimises [c·y] subject to [A y = b],
    [y >= 0] — the one-shot entry point (a fresh cold state).
    [basis0.(i)], when given, names a structural slack column usable as
    row [i]'s initial basic variable (+1 there, 0 elsewhere, zero cost),
    letting the solver skip artificials — and often all of phase 1 —
    for those rows. *)
val solve :
  ?deadline:Cv_util.Deadline.t ->
  ?max_iters:int ->
  ?basis0:int option array ->
  a:float array array ->
  b:float array ->
  c:float array ->
  unit ->
  outcome

(** {2 Certificate extraction}

    Copies of the captured system and the multipliers behind the last
    verdict, for {!Lp_cert}. *)

val num_cols : state -> int

(** [system_rows st] is the pristine constraint matrix, row copies. *)
val system_rows : state -> float array array

(** [system_rhs st] is the current raw right-hand side (tracks
    {!set_rhs}). *)
val system_rhs : state -> float array

val system_obj : state -> float array

(** Multipliers over the pristine rows, certifying a verdict up to the
    solver's tolerances (callers validate them outward). *)
type witness =
  | Dual of float array
      (** [y] with [Bᵀy = c_B]: dual-feasible, so [b·y] bounds the
          objective from below ([Optimal], or a warm solve stopped at
          [obj_limit]) *)
  | Ray of float array
      (** [z] with [Aᵀz ≤ 0 < b·z]: no [y ≥ 0] solves [Ay = b]
          ([Infeasible]) *)

(** [witness st] is the multiplier vector behind the last {!resolve}'s
    verdict: for a warm verdict the one its certification computed and
    checked (an infeasible row's ray negated), for a cold verdict one
    solved on demand through the same singleton-reduced LU of the
    final basis, each artificial column the singleton [±e_r] of its
    row. [None] after [Unbounded] or [Stalled], on a singular basis, and
    once {!set_rhs} or {!set_cost} has changed the system. *)
val witness : state -> witness option
