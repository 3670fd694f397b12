(** Linear-programming model builder over {!Simplex}.

    Callers declare variables with bounds, add linear constraints and an
    objective; [solve] lowers to the standard form [min c·y, Ay = b,
    y ≥ 0] handled by the tableau:
    - a variable with finite lower bound [l] is shifted, [x = l + y];
    - a variable with only a finite upper bound [u] is reflected,
      [x = u − y];
    - a free variable is split, [x = y⁺ − y⁻];
    - finite upper bounds after shifting become explicit rows;
    - [≤ / ≥ / =] rows gain slack/surplus variables (sign-fixing happens
      inside {!Simplex}).

    Maximisation negates the objective.

    The incremental interface ([compile] / [set_bounds_compiled] /
    [solve_compiled]) lowers the model {e once} into a reusable
    {!compiled} form in which re-bounding a declared [fixable] variable
    is a pair of O(m) right-hand-side updates against the previous
    optimal basis — the branch-and-bound hot path — instead of a [copy]
    plus a full re-lowering of the constraint list. A new objective
    ([set_objective_compiled]) goes through the same lowering as
    [compile]'s own and restarts primal phase 2 from the last optimal
    basis — the path a family of bound queries on one model takes. *)

type relop = Le | Ge | Eq

type var = int

type term = float * var

type problem = {
  mutable nvars : int;
  mutable lo : float list;  (** reversed *)
  mutable hi : float list;  (** reversed *)
  mutable names : string list;  (** reversed *)
  mutable constraints : (term list * relop * float) list;  (** reversed *)
  mutable ncons : int;  (** cached [List.length constraints] *)
  mutable obj_terms : term list;
  mutable maximize : bool;
}

type solution = { objective : float; values : float array }

type result = Optimal of solution | Infeasible | Unbounded | Stalled

(** [create ()] is an empty model. *)
let create () =
  { nvars = 0; lo = []; hi = []; names = []; constraints = []; ncons = 0;
    obj_terms = []; maximize = false }

(** [add_var p ?lo ?hi ?name ()] declares a variable with optional
    bounds (defaults: free) and returns its handle. *)
let add_var p ?(lo = Float.neg_infinity) ?(hi = Float.infinity) ?name () =
  if lo > hi then invalid_arg "Lp.add_var: lo > hi";
  let v = p.nvars in
  p.nvars <- v + 1;
  p.lo <- lo :: p.lo;
  p.hi <- hi :: p.hi;
  p.names <- (match name with Some n -> n | None -> Printf.sprintf "x%d" v) :: p.names;
  v

(** [add_constraint p terms op rhs] adds [Σ terms (op) rhs]. *)
let add_constraint p terms op rhs =
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= p.nvars then invalid_arg "Lp.add_constraint: unknown var")
    terms;
  p.constraints <- (terms, op, rhs) :: p.constraints;
  p.ncons <- p.ncons + 1

(** [set_objective p ~maximize terms] installs the objective. *)
let set_objective p ~maximize terms =
  p.obj_terms <- terms;
  p.maximize <- maximize

(** [var_count p] is the number of declared variables. *)
let var_count p = p.nvars

(** [constraint_count p] is the cached number of added constraints. *)
let constraint_count p = p.ncons

(** [copy p] is an independent copy (shares immutable term lists). *)
let copy p =
  { nvars = p.nvars; lo = p.lo; hi = p.hi; names = p.names;
    constraints = p.constraints; ncons = p.ncons; obj_terms = p.obj_terms;
    maximize = p.maximize }

(** [set_bounds p v ~lo ~hi] tightens the bounds of [v] in place — the
    model-level path (forces a fresh lowering; branch-and-bound uses
    {!set_bounds_compiled} instead). *)
let set_bounds p v ~lo ~hi =
  if v < 0 || v >= p.nvars then invalid_arg "Lp.set_bounds";
  let rec update i = function
    | [] -> []
    | x :: rest -> if i = 0 then lo :: rest else x :: update (i - 1) rest
  in
  (* Lists are reversed: index from the back. *)
  let idx = p.nvars - 1 - v in
  p.lo <- update idx p.lo;
  let rec update_hi i = function
    | [] -> []
    | x :: rest -> if i = 0 then hi :: rest else x :: update_hi (i - 1) rest
  in
  p.hi <- update_hi idx p.hi

(** [bounds p v] reads the current bounds of [v]. *)
let bounds p v =
  let idx = p.nvars - 1 - v in
  (List.nth p.lo idx, List.nth p.hi idx)

(* Lowering bookkeeping: how an original variable maps into standard-form
   column(s). *)
type mapping =
  | Shifted of int * float  (** x = l + y_col *)
  | Reflected of int * float  (** x = u − y_col *)
  | Split of int * int  (** x = y⁺ − y⁻ *)

(* Bound-row bookkeeping for a fixable variable [x = l + y]: row
   [f_row_ub] is [y + p = hi − l] and row [f_row_lb] is [y − q = lo − l]
   (markers p/q), so re-bounding x within its compiled box is two rhs
   writes. *)
type fix_info = { f_l : float; f_u : float; f_row_ub : int; f_row_lb : int }

type compiled = {
  c_state : Simplex.state;
  c_mapping : mapping array;
  mutable c_sign : float;
  mutable c_const_shift : float;
  c_nvars : int;
  c_fix : (var, fix_info) Hashtbl.t;
  c_xu : float array;
      (** sound upper bound per standard column ([infinity] when none is
          derivable) — the compensation bounds certificate extraction
          needs for Neumaier–Shcherbina-style safe dual bounds *)
}

(* Lower objective terms to a standard-form cost vector of [total]
   columns. Returns [(cost, sign, shift)]: a standard-form value [s]
   means model objective [sign · (s + shift)]. *)
let lower_objective mapping ~total ~maximize terms =
  let c = Array.make total 0. in
  let sign = if maximize then -1. else 1. in
  let shift = ref 0. in
  List.iter
    (fun (coef, v) ->
      if v < 0 || v >= Array.length mapping then
        invalid_arg "Lp: objective over unknown var";
      let coef = sign *. coef in
      match mapping.(v) with
      | Shifted (col, l) ->
        c.(col) <- c.(col) +. coef;
        shift := !shift +. (coef *. l)
      | Reflected (col, u) ->
        c.(col) <- c.(col) -. coef;
        shift := !shift +. (coef *. u)
      | Split (cp, cn) ->
        c.(cp) <- c.(cp) +. coef;
        c.(cn) <- c.(cn) -. coef)
    terms;
  (c, sign, !shift)

(** [compile ?fixable p] lowers the model to standard form once. Each
    [fixable] variable (finite bounds required) gets a pair of bound
    rows whose right-hand sides encode its current box, so
    {!set_bounds_compiled} can re-bound it without re-lowering. The
    objective is captured as currently set. *)
let compile ?(fixable = []) p =
  (* Fault injection: arena allocation fails, as under memory
     pressure. Raises so the supervisor's retry/fallback ladder — not
     this module — decides how to degrade. *)
  Cv_util.Fault.trip Cv_util.Fault.Alloc_failure;
  let lo = Array.of_list (List.rev p.lo) in
  let hi = Array.of_list (List.rev p.hi) in
  let is_fixable = Hashtbl.create (List.length fixable) in
  List.iter
    (fun v ->
      if v < 0 || v >= p.nvars then invalid_arg "Lp.compile: unknown fixable var";
      if lo.(v) = Float.neg_infinity || hi.(v) = Float.infinity then
        invalid_arg "Lp.compile: fixable var needs finite bounds";
      Hashtbl.replace is_fixable v ())
    fixable;
  let ncols = ref 0 in
  let fresh () =
    let c = !ncols in
    ncols := c + 1;
    c
  in
  let mapping =
    Array.init p.nvars (fun j ->
        if lo.(j) > Float.neg_infinity then Shifted (fresh (), lo.(j))
        else if hi.(j) < Float.infinity then Reflected (fresh (), hi.(j))
        else Split (fresh (), fresh ()))
  in
  (* Rows: user constraints, then upper-bound rows for shifted vars with
     a finite upper bound, then lower/upper bound-row pairs for the
     fixable vars. Collected in reverse with a running index. *)
  let rows = ref [] (* (coeff array over std cols, relop, rhs) *) in
  let nrows = ref 0 in
  let push_row r =
    rows := r :: !rows;
    let i = !nrows in
    nrows := i + 1;
    i
  in
  let lower_terms terms rhs0 =
    (* Returns (coeffs over std cols, adjusted rhs). *)
    let coeffs = Array.make !ncols 0. in
    let rhs = ref rhs0 in
    List.iter
      (fun (c, v) ->
        match mapping.(v) with
        | Shifted (col, l) ->
          coeffs.(col) <- coeffs.(col) +. c;
          rhs := !rhs -. (c *. l)
        | Reflected (col, u) ->
          coeffs.(col) <- coeffs.(col) -. c;
          rhs := !rhs -. (c *. u)
        | Split (cp, cn) ->
          coeffs.(cp) <- coeffs.(cp) +. c;
          coeffs.(cn) <- coeffs.(cn) -. c)
      terms;
    (coeffs, !rhs)
  in
  List.iter
    (fun (terms, op, rhs) ->
      let coeffs, rhs = lower_terms terms rhs in
      ignore (push_row (coeffs, op, rhs)))
    (List.rev p.constraints);
  let c_fix = Hashtbl.create (Hashtbl.length is_fixable) in
  (* Bound rows. *)
  Array.iteri
    (fun j m ->
      match m with
      | Shifted (col, l) when Hashtbl.mem is_fixable j ->
        let unit_row () =
          let coeffs = Array.make !ncols 0. in
          coeffs.(col) <- 1.;
          coeffs
        in
        let f_row_ub = push_row (unit_row (), Le, hi.(j) -. l) in
        let f_row_lb = push_row (unit_row (), Ge, lo.(j) -. l) in
        Hashtbl.replace c_fix j { f_l = l; f_u = hi.(j); f_row_ub; f_row_lb }
      | Shifted (col, l) when hi.(j) < Float.infinity ->
        let coeffs = Array.make !ncols 0. in
        coeffs.(col) <- 1.;
        ignore (push_row (coeffs, Le, hi.(j) -. l))
      | _ -> ())
    mapping;
  let rows = List.rev !rows in
  (* Slack/surplus columns; they double as basis-seeding markers (sign
     −1 for surplus rows — {!Simplex} handles the sign-fixing). *)
  let n_struct = !ncols in
  let n_slack =
    List.fold_left (fun acc (_, op, _) -> if op = Eq then acc else acc + 1) 0 rows
  in
  let total = n_struct + n_slack in
  let m = List.length rows in
  let a = Array.init m (fun _ -> Array.make total 0.) in
  let b = Array.make m 0. in
  let basis0 = Array.make m None in
  let slack = ref n_struct in
  List.iteri
    (fun i (coeffs, op, rhs) ->
      Array.blit coeffs 0 a.(i) 0 n_struct;
      (match op with
      | Le ->
        a.(i).(!slack) <- 1.;
        basis0.(i) <- Some (!slack, 1.);
        incr slack
      | Ge ->
        a.(i).(!slack) <- -1.;
        basis0.(i) <- Some (!slack, -1.);
        incr slack
      | Eq -> ());
      b.(i) <- rhs)
    rows;
  let c, sign, const_shift =
    lower_objective mapping ~total ~maximize:p.maximize p.obj_terms
  in
  (* Sound per-column upper bounds (outward-rounded): structural
     columns from the declared variable boxes; slack/surplus columns
     from interval-evaluating their row over those boxes. Any feasible
     point respects them, so adding [x ≤ xu] to the certified system
     never cuts a feasible point — it only lets the checker compensate
     near-zero reduced-cost residuals against a finite range. *)
  let xu = Array.make total Float.infinity in
  Array.iteri
    (fun j m ->
      match m with
      | Shifted (col, l) ->
        if hi.(j) < Float.infinity then xu.(col) <- Float.succ (hi.(j) -. l)
      | Reflected (col, u) ->
        if lo.(j) > Float.neg_infinity then xu.(col) <- Float.succ (u -. lo.(j))
      | Split _ -> ())
    mapping;
  let slack = ref n_struct in
  List.iter
    (fun (coeffs, op, rhs) ->
      match op with
      | Eq -> ()
      | Le | Ge ->
        (* Le: s = rhs − a·y ≤ rhs − min(a·y); Ge: q = a·y − rhs ≤
           max(a·y) − rhs; over y_col ∈ [0, xu_col]. *)
        let lo_sum = ref 0. and hi_sum = ref 0. in
        Array.iteri
          (fun col coef ->
            if coef > 0. then
              hi_sum := Float.succ (!hi_sum +. Float.succ (coef *. xu.(col)))
            else if coef < 0. then
              lo_sum := Float.pred (!lo_sum +. Float.pred (coef *. xu.(col))))
          coeffs;
        let b =
          match op with
          | Le -> Float.succ (rhs -. !lo_sum)
          | Ge -> Float.succ (!hi_sum -. rhs)
          | Eq -> assert false
        in
        if Float.is_finite b then xu.(!slack) <- Float.max 0. b;
        incr slack)
    rows;
  {
    c_state = Simplex.make ~a ~b ~c ~basis0;
    c_mapping = mapping;
    c_sign = sign;
    c_const_shift = const_shift;
    c_nvars = p.nvars;
    c_fix;
    c_xu = xu;
  }

(** [copy_compiled c] is an independent compiled instance sharing the
    immutable lowering; branch-and-bound workers each get one. *)
let copy_compiled c = { c with c_state = Simplex.copy_state c.c_state }

(** [set_objective_compiled c ~maximize terms] replaces the compiled
    objective without re-lowering: a root-optimal state restarts primal
    phase 2 from its basis on the next {!solve_compiled}. *)
let set_objective_compiled c ~maximize terms =
  let cost, sign, shift =
    lower_objective c.c_mapping
      ~total:(Simplex.num_cols c.c_state)
      ~maximize terms
  in
  c.c_sign <- sign;
  c.c_const_shift <- shift;
  Simplex.set_cost c.c_state cost

(** [set_bounds_compiled c v ~lo ~hi] re-bounds fixable variable [v]
    within its compiled box [f_l, f_u] — two rhs writes, preserving the
    warm basis. *)
let set_bounds_compiled c v ~lo ~hi =
  match Hashtbl.find_opt c.c_fix v with
  | None -> invalid_arg "Lp.set_bounds_compiled: var was not compiled fixable"
  | Some fi ->
    if lo > hi || lo < fi.f_l -. 1e-9 || hi > fi.f_u +. 1e-9 then
      invalid_arg "Lp.set_bounds_compiled: bounds outside compiled box";
    Simplex.set_rhs c.c_state ~row:fi.f_row_ub (hi -. fi.f_l);
    Simplex.set_rhs c.c_state ~row:fi.f_row_lb (lo -. fi.f_l)

(** [solve_compiled c] solves the compiled model's current system (warm
    dual restart when possible) and lifts the outcome back to original
    variables. [bound_cutoff] stops a warm solve early once weak duality
    proves the objective cannot beat the cutoff (≤ it when maximising,
    ≥ it when minimising): the returned [Optimal] then carries that
    certified bound rather than the optimum — enough for
    branch-and-bound fathoming. Raises {!Cv_util.Deadline.Expired} when
    the budget runs out. *)
let solve_compiled ?deadline ?max_iters ?bound_cutoff c =
  (* The internal form always minimises: objective = sign·(o + shift),
     so "no better than the cutoff" reads o ≥ sign·cutoff − shift. *)
  let obj_limit =
    Option.map (fun b -> (c.c_sign *. b) -. c.c_const_shift) bound_cutoff
  in
  match Simplex.resolve ?deadline ?max_iters ?obj_limit c.c_state with
  | Simplex.Infeasible -> Infeasible
  | Simplex.Unbounded -> Unbounded
  | Simplex.Stalled -> Stalled
  | Simplex.Optimal { objective; values } ->
    let x = Array.make c.c_nvars 0. in
    Array.iteri
      (fun j m ->
        match m with
        | Shifted (col, l) -> x.(j) <- l +. values.(col)
        | Reflected (col, u) -> x.(j) <- u -. values.(col)
        | Split (cp, cn) -> x.(j) <- values.(cp) -. values.(cn))
      c.c_mapping;
    let obj = c.c_sign *. (objective +. c.c_const_shift) in
    Optimal { objective = obj; values = x }

(** [solve ?deadline p] lowers and solves in one shot; raises
    {!Cv_util.Deadline.Expired} when the budget runs out. *)
let solve ?deadline ?max_iters p = solve_compiled ?deadline ?max_iters (compile p)

(** [maximize_linear p terms] sets a maximisation objective and solves —
    convenience for the verifier's per-neuron bound queries. *)
let maximize_linear p terms =
  set_objective p ~maximize:true terms;
  solve p

(** [minimize_linear p terms] sets a minimisation objective and solves. *)
let minimize_linear p terms =
  set_objective p ~maximize:false terms;
  solve p

(* ------------------------------------------------------------------ *)
(* Lowering introspection for certificate extraction ({!Lp_cert}). *)

let compiled_state c = c.c_state

let compiled_frame c = (c.c_sign, c.c_const_shift)

let compiled_fix_rows c v =
  Option.map
    (fun fi -> (fi.f_row_ub, fi.f_row_lb, fi.f_l))
    (Hashtbl.find_opt c.c_fix v)

let compiled_uppers c = Array.copy c.c_xu
