(** Linear-programming model builder over {!Simplex}.

    Declare variables with bounds, add linear constraints and an
    objective; [solve] lowers to standard form (bound shifting,
    reflection, free-variable splitting, slack rows) and runs two-phase
    primal simplex. The [compile]d interface lowers once and makes
    re-bounding a declared fixable variable an O(m) right-hand-side
    update solved by a warm dual-simplex restart — the branch-and-bound
    hot path — and a new objective a repricing solved by a warm primal
    restart — the bound-query hot path. *)

type relop = Le | Ge | Eq

type var = int

type term = float * var

type problem

type solution = { objective : float; values : float array }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Stalled
      (** the simplex iteration limit was exceeded (numerical trouble);
          callers degrade as they would for a timeout *)

(** [create ()] is an empty model. *)
val create : unit -> problem

(** [add_var p ?lo ?hi ?name ()] declares a variable with optional
    bounds (defaults: free) and returns its handle. *)
val add_var : problem -> ?lo:float -> ?hi:float -> ?name:string -> unit -> var

(** [add_constraint p terms op rhs] adds [Σ terms (op) rhs]. *)
val add_constraint : problem -> term list -> relop -> float -> unit

(** [set_objective p ~maximize terms] installs the objective. *)
val set_objective : problem -> maximize:bool -> term list -> unit

val var_count : problem -> int

(** [constraint_count p] is the number of added constraints (cached, not
    recomputed per call). *)
val constraint_count : problem -> int

(** [copy p] is an independent copy (cheap: shares immutable term
    lists). *)
val copy : problem -> problem

(** [set_bounds p v ~lo ~hi] tightens the bounds of [v] in place — the
    model-level path (the next [solve] re-lowers; branch-and-bound uses
    {!set_bounds_compiled}). *)
val set_bounds : problem -> var -> lo:float -> hi:float -> unit

(** [bounds p v] reads the current bounds of [v]. *)
val bounds : problem -> var -> float * float

(** A model lowered to standard form once, with reusable solver state:
    repeated solves after {!set_bounds_compiled} warm-start from the
    previous optimal basis instead of re-lowering and re-running
    phase 1. *)
type compiled

(** [compile ?fixable p] lowers the model (objective as currently set).
    Each [fixable] variable — finite bounds required — gets a pair of
    bound rows so its box can later be changed in O(m) without
    re-lowering. *)
val compile : ?fixable:var list -> problem -> compiled

(** [copy_compiled c] is an independent compiled instance sharing the
    immutable lowering; parallel branch-and-bound workers each get
    one. *)
val copy_compiled : compiled -> compiled

(** [set_objective_compiled c ~maximize terms] replaces the compiled
    model's objective in place, lowered through the compiled variable
    mapping (the one lowering {!compile} uses for its own objective);
    {!compiled_frame} follows it. When [c]'s last solve left an optimal,
    primal-feasible basis, the next {!solve_compiled} restarts primal
    phase 2 from it instead of re-running phase 1 (see
    {!Simplex.set_cost}); otherwise it solves cold. The model [problem]
    it was compiled from is not touched. *)
val set_objective_compiled : compiled -> maximize:bool -> term list -> unit

(** [set_bounds_compiled c v ~lo ~hi] re-bounds fixable variable [v];
    [lo]/[hi] must stay within the box [v] was compiled with. *)
val set_bounds_compiled : compiled -> var -> lo:float -> hi:float -> unit

(** [solve_compiled c] solves the compiled model's current system (dual
    warm restart when the previous basis is reusable) and lifts the
    outcome back to original variables. [max_iters] caps simplex
    iterations per phase ({!Stalled} beyond it). [bound_cutoff] lets a
    warm solve stop early once weak duality certifies the objective is
    no better than the cutoff (≤ for a maximisation objective, ≥ for
    minimisation); the returned [Optimal] then carries that certified
    bound rather than the optimum — exactly what branch-and-bound
    fathoming needs. Raises {!Cv_util.Deadline.Expired} when the budget
    runs out. *)
val solve_compiled :
  ?deadline:Cv_util.Deadline.t ->
  ?max_iters:int ->
  ?bound_cutoff:float ->
  compiled ->
  result

(** [solve ?deadline p] lowers and solves in one shot; raises
    {!Cv_util.Deadline.Expired} when the budget runs out. *)
val solve : ?deadline:Cv_util.Deadline.t -> ?max_iters:int -> problem -> result

(** [maximize_linear p terms] sets a maximisation objective and
    solves. *)
val maximize_linear : problem -> term list -> result

(** [minimize_linear p terms] sets a minimisation objective and
    solves. *)
val minimize_linear : problem -> term list -> result

(** {2 Lowering introspection}

    Read-only views into a compiled model for certificate extraction
    ({!Lp_cert}); nothing here allows mutating the lowering. *)

(** [compiled_state c] is the underlying simplex state (standard form
    [min c·y, Ay = b, y ≥ 0]). Mutate it only through
    {!set_bounds_compiled} and {!set_objective_compiled}. *)
val compiled_state : compiled -> Simplex.state

(** [compiled_frame c] is [(c_sign, c_const_shift)]: a standard-form
    objective value [s] means model objective
    [c_sign · (s + c_const_shift)]. *)
val compiled_frame : compiled -> float * float

(** [compiled_fix_rows c v] is [Some (ub_row, lb_row, shift)] for a
    fixable variable: {!set_bounds_compiled}[ c v ~lo ~hi] writes rhs
    [hi - shift] to [ub_row] and [lo - shift] to [lb_row]. *)
val compiled_fix_rows : compiled -> var -> (int * int * float) option

(** [compiled_uppers c] is a sound upper bound per standard column
    ([infinity] when none is derivable), valid for every feasible point
    of the compiled system — and still valid after any
    {!set_bounds_compiled} tightening, which only shrinks the feasible
    set. Certificates carry these so the checker can compensate
    near-binding reduced costs (Neumaier–Shcherbina). *)
val compiled_uppers : compiled -> float array
