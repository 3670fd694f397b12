(** Two-phase primal simplex with dual-simplex warm restarts on a dense
    flat tableau.

    Solves [min c·y  s.t.  A y = b, y >= 0]. Rows are sign-fixed
    internally so any [b] is accepted. Artificial variables are appended
    internally for phase 1. Pivoting uses Dantzig's rule with an
    automatic switch to Bland's rule (guaranteeing termination) once the
    iteration count passes a threshold.

    The incremental interface ({!make} / {!set_rhs} / {!resolve}) keeps
    one mutable solver {!state} alive across a family of solves that
    differ only in right-hand sides — exactly the branch-and-bound
    workload, where fixing a binary is a bound-row rhs update. Because
    the objective is fixed per state, the optimal basis of {e any}
    member of the family is dual-feasible for {e every} other member,
    so after an rhs change the solver restarts with dual simplex from
    the previous basis instead of re-running phase 1 from a fresh
    tableau ("warm start"). Conversely, {!set_cost} changes only the
    objective: an optimal basis stays primal-feasible, so after
    repricing its objective row the solver resumes primal phase 2 from
    it — one lowering and one cold solve serve every bound query on an
    encoding. Every warm verdict is certified against the pristine
    system through a fresh LU factorisation of the final basis (see the
    certification block below), so tableau drift can only cost
    performance, never soundness. When the warm start is unusable (no
    marker column for the touched row, artificials left in the basis, a
    stall, an unbounded primal restart, or a failed certificate) it
    falls back to the cold two-phase primal path.

    The tableau is a single row-major [float array] — (m+1) rows of a
    fixed [stride] — rather than an array of rows, for cache locality
    in the pivot inner loop.

    This is the computational core under {!Lp} and, transitively, under
    the branch-and-bound MILP solver that plays the role of the paper's
    "exact methods" (big-M encodings of ReLU, cf. Equation (2)). *)

type outcome =
  | Optimal of { objective : float; values : float array }
      (** [values] covers the structural variables only *)
  | Infeasible
  | Unbounded
  | Stalled
      (** the iteration limit was exceeded (numerical trouble); callers
          degrade to a timeout-style Unknown instead of crashing *)

let tol = 1e-9

(* Force a cold rebuild after this many consecutive warm solves: rank-one
   rhs updates accumulate float error on the shared tableau, and a
   periodic re-factorisation from pristine data bounds the drift. *)
let warm_refresh_limit = 100

(* Effort accounting: every tableau pivot and iterate() loop turn is
   counted, so a verification run can report exactly where its simplex
   time went (surfaced by `contiver --stats` and the bench trajectory).
   Warm-start effectiveness is counted too: hits (dual restart answered),
   misses (cold solve, no reusable basis), fallbacks (dual restart
   stalled, cold solve re-ran), and phase-1 skips. *)
let m_solves = Cv_util.Metrics.counter "lp.solves"

let m_pivots = Cv_util.Metrics.counter "lp.pivots"

let m_iterations = Cv_util.Metrics.counter "lp.iterations"

let m_warm_hits = Cv_util.Metrics.counter "lp.warmstart.hits"

let m_warm_misses = Cv_util.Metrics.counter "lp.warmstart.misses"

let m_warm_fallbacks = Cv_util.Metrics.counter "lp.warmstart.fallbacks"

let m_phase1_skipped = Cv_util.Metrics.counter "lp.phase1.skipped"

let t_seconds = Cv_util.Metrics.timer "lp.seconds"

let t_cert = Cv_util.Metrics.timer "lp.cert.seconds"

let t_dual = Cv_util.Metrics.timer "lp.dual.seconds"

let t_cold = Cv_util.Metrics.timer "lp.cold.seconds"

let t_primal = Cv_util.Metrics.timer "lp.primal.seconds"

type witness = Dual of float array | Ray of float array

(* What certifies the last verdict: the multipliers a warm verdict's
   certification computed, kept as they are, or a cold verdict whose
   multipliers {!witness} solves for only when asked. *)
type proof = No_proof | Kept of witness | Cold_optimal | Cold_infeasible

(* The state keeps the pristine system ([sa]/[sb]/[sc], row-major) for
   cold rebuilds next to the working tableau. [basis0.(i) = Some (j, s)]
   promises that structural column [j] has coefficient [s] (±1) in row
   [i], zero in every other row and zero objective cost (a slack or
   surplus): it can seed row [i]'s basis when [s·sb.(i) ≥ 0], and its
   tableau column is [B⁻¹·s·e_i], which is what lets {!set_rhs} apply an
   rhs change to the current basis as a rank-one update. *)
type state = {
  m : int;
  n : int;  (** structural variable count *)
  mutable stride : int;  (** row length: n + artificial-column capacity *)
  sa : float array;  (** pristine constraint matrix, m×n row-major *)
  sb : float array;  (** current raw rhs (any sign) *)
  mutable sc : float array;
      (** objective over structural columns; {!copy_state} shares it,
          so {!set_cost} replaces it and nothing writes into it *)
  singleton : (int * float) option array;
      (** per column: its only nonzero (row, coeff) when single-nonzero
          (slack/surplus shape) — lets certification factorise the basis
          by singleton reduction instead of a full m×m LU *)
  basis0 : (int * float) option array;  (** marker column + sign per row *)
  mutable tab : float array;  (** working tableau, (m+1)×stride row-major *)
  rhs : float array;  (** m+1 entries; [rhs.(m)] = −objective *)
  basis : int array;  (** basic variable per row *)
  dw : float array;
      (** dual Devex row weights ≈ ‖B⁻¹eᵢ‖²: pricing only, so the
          approximation error never affects correctness (every warm
          verdict is certified) — it just steers which row leaves *)
  mutable ncols : int;  (** active columns: n + live artificials *)
  mutable warm : bool;
      (** tableau/basis valid, artificial-free and priced for [sc] *)
  mutable restart : bool;
      (** set by {!set_cost} on a warm, primal-feasible basis whose
          objective row was repriced: the next {!resolve} runs primal
          phase 2 from it instead of the dual restart *)
  mutable since_cold : int;  (** warm solves since the last cold solve *)
  rowsign : float array;
      (** per-row sign flip applied by the last {!cold_build} (±1):
          working row [i] is [rowsign.(i)] times pristine row [i] —
          what certificate extraction needs to map multipliers back to
          the original row space *)
  mutable art_row : int array;
      (** creation row of each artificial column appended by the last
          {!cold_build}: column [n + k] was seeded for row
          [art_row.(k)] *)
  mutable proof : proof;
      (** the last {!resolve}'s witness; any rhs or cost change drops
          it *)
}

let make ~a ~b ~c ~basis0 =
  let m = Array.length b in
  let n = Array.length c in
  if m > 0 && Array.length a.(0) <> n then invalid_arg "Simplex.make: shape";
  if Array.length basis0 <> m then invalid_arg "Simplex.make: basis0 length";
  let sa = Array.make (max 1 (m * n)) 0. in
  for i = 0 to m - 1 do
    Array.blit a.(i) 0 sa (i * n) n
  done;
  (* Artificial-column capacity starts at the marker-less row count
     (those always need one); {!cold_build} grows it on demand when
     rhs changes unseat marker seedings. Keeping the stride tight —
     instead of reserving the worst-case [n + m] — matters: the pivot
     inner loop is memory-bound and the working set should stay at
     ~[m·n] floats. *)
  let art0 =
    Array.fold_left
      (fun acc x -> match x with None -> acc + 1 | Some _ -> acc)
      0 basis0
  in
  let stride = max 1 (n + art0) in
  let singleton =
    Array.init n (fun j ->
        let row = ref (-1) and coeff = ref 0. and cnt = ref 0 in
        for i = 0 to m - 1 do
          let v = sa.((i * n) + j) in
          if v <> 0. then begin
            incr cnt;
            row := i;
            coeff := v
          end
        done;
        if !cnt = 1 then Some (!row, !coeff) else None)
  in
  {
    m;
    n;
    stride;
    sa;
    sb = Array.copy b;
    sc = Array.copy c;
    singleton;
    basis0 = Array.copy basis0;
    tab = Array.make ((m + 1) * stride) 0.;
    rhs = Array.make (m + 1) 0.;
    basis = Array.make (max 1 m) 0;
    dw = Array.make (max 1 m) 1.;
    ncols = n;
    warm = false;
    restart = false;
    since_cold = 0;
    rowsign = Array.make (max 1 m) 1.;
    art_row = Array.make (max 1 art0) (-1);
    proof = No_proof;
  }

let copy_state st =
  {
    st with
    sb = Array.copy st.sb;
    tab = Array.copy st.tab;
    rhs = Array.copy st.rhs;
    basis = Array.copy st.basis;
    dw = Array.copy st.dw;
    rowsign = Array.copy st.rowsign;
    art_row = Array.copy st.art_row;
  }

(** [set_rhs st ~row v] replaces row [row]'s raw right-hand side. When
    the state is warm and the row has a marker column, the change is
    pushed through the current basis as a rank-one update (O(m)),
    preserving the warm basis for {!resolve}'s dual restart; otherwise,
    or while a {!set_cost} restart is pending, the state degrades to
    cold. *)
let set_rhs st ~row v =
  if row < 0 || row >= st.m then invalid_arg "Simplex.set_rhs: row";
  let old = st.sb.(row) in
  if v <> old then begin
    st.sb.(row) <- v;
    st.proof <- No_proof;
    (* A repriced basis is only primal-feasible for the rhs it was
       repriced against. *)
    if st.restart then begin
      st.warm <- false;
      st.restart <- false
    end;
    if st.warm then begin
      match st.basis0.(row) with
      | None -> st.warm <- false
      | Some (u, sign) ->
        (* Column u's tableau data is B⁻¹A_u with A_u = sign·e_row, so
           B⁻¹e_row = sign·(tableau column u); the objective row entry
           follows the same formula with the reduced cost of u. *)
        let d = (v -. old) *. sign in
        for i = 0 to st.m do
          st.rhs.(i) <- st.rhs.(i) +. (d *. st.tab.((i * st.stride) + u))
        done
    end
  end

(* The pivot's O(m·n) elimination is the solver's hottest loop — use
   unchecked accesses (indices are bounded by [m]/[ncols] ≤ allocated
   extents by construction). *)
let pivot st ~row ~col =
  Cv_util.Metrics.incr m_pivots;
  let w = st.ncols in
  let tab = st.tab in
  let rhs = st.rhs in
  let base = row * st.stride in
  let inv = 1. /. Array.unsafe_get tab (base + col) in
  for j = 0 to w - 1 do
    Array.unsafe_set tab (base + j) (Array.unsafe_get tab (base + j) *. inv)
  done;
  Array.unsafe_set rhs row (Array.unsafe_get rhs row *. inv);
  for i = 0 to st.m do
    if i <> row then begin
      let ib = i * st.stride in
      let factor = Array.unsafe_get tab (ib + col) in
      if factor <> 0. then begin
        for j = 0 to w - 1 do
          Array.unsafe_set tab (ib + j)
            (Array.unsafe_get tab (ib + j)
            -. (factor *. Array.unsafe_get tab (base + j)))
        done;
        Array.unsafe_set rhs i
          (Array.unsafe_get rhs i -. (factor *. Array.unsafe_get rhs row))
      end
    end
  done;
  st.basis.(row) <- col

(* Entering column: most negative reduced cost (Dantzig) or smallest
   index with negative reduced cost (Bland). [allowed] filters columns. *)
let entering st ~bland ~allowed =
  let ob = st.m * st.stride in
  let tab = st.tab in
  if bland then begin
    let found = ref (-1) in
    (try
       for j = 0 to st.ncols - 1 do
         if allowed j && tab.(ob + j) < -.tol then begin
           found := j;
           raise Exit
         end
       done
     with Exit -> ());
    !found
  end
  else begin
    let best = ref (-1) and best_v = ref (-.tol) in
    for j = 0 to st.ncols - 1 do
      let c = Array.unsafe_get tab (ob + j) in
      if c < !best_v && allowed j then begin
        best_v := c;
        best := j
      end
    done;
    !best
  end

(* Ratio test with Bland tie-breaking on the leaving basic variable. *)
let leaving st col =
  let best = ref (-1) and best_r = ref 0. in
  for i = 0 to st.m - 1 do
    let aij = st.tab.((i * st.stride) + col) in
    if aij > tol then begin
      let ratio = st.rhs.(i) /. aij in
      if
        !best < 0
        || ratio < !best_r -. tol
        || (Float.abs (ratio -. !best_r) <= tol
           && st.basis.(i) < st.basis.(!best))
      then begin
        best := i;
        best_r := ratio
      end
    end
  done;
  if !best < 0 then None else Some !best

(* Run primal simplex iterations until optimal, unbounded, or the
   iteration cap (then [`Stalled] instead of crashing — the structured
   degradation path). The deadline is polled every 32 pivots — cheap
   relative to a pivot's O(m·n) work. *)
let iterate ?deadline ?max_iters st ~allowed =
  let max_dantzig = 4 * (st.m + st.ncols) in
  let max_total =
    match max_iters with
    | Some k -> k
    | None -> 8000 + (64 * (st.m + st.ncols))
  in
  let rec loop iter =
    Cv_util.Metrics.incr m_iterations;
    Cv_util.Deadline.check_every ~mask:31 iter deadline;
    if iter > max_total then `Stalled
    else begin
      let bland = iter > max_dantzig in
      match entering st ~bland ~allowed with
      | -1 -> `Optimal
      | col -> (
        match leaving st col with
        | None -> `Unbounded
        | Some row ->
          pivot st ~row ~col;
          loop (iter + 1))
    end
  in
  loop 0

(* Dual simplex from a dual-feasible basis (reduced costs ≥ 0, some rhs
   entries possibly negative after {!set_rhs}): pick the most negative
   basic value, leave it, enter the column minimising the dual ratio.
   Artificials are never considered (warm bases are artificial-free and
   [ncols = n]). [obj_limit]: every dual-feasible basis certifies, by
   weak duality, that the optimum is ≥ the current objective, and the
   objective climbs monotonically — so once it reaches [obj_limit] the
   caller's question ("can the optimum stay below my threshold?") is
   answered and the solve stops early ([`Limited]), leaving the state
   warm. Branch-and-bound fathoming needs nothing more. *)
let dual_iterate ?deadline ?max_iters ?obj_limit st =
  let max_total =
    match max_iters with Some k -> k | None -> 2000 + (16 * (st.m + st.n))
  in
  let ob = st.m * st.stride in
  let rec loop iter =
    Cv_util.Metrics.incr m_iterations;
    Cv_util.Deadline.check_every ~mask:31 iter deadline;
    if iter > max_total then `Stalled
    else if
      match obj_limit with
      | Some limit -> -.st.rhs.(st.m) >= limit
      | None -> false
    then `Limited
    else begin
      (* Leaving row by dual Devex pricing: maximise rhsᵢ²/γᵢ over the
         primal-infeasible rows, where γᵢ approximates ‖B⁻¹eᵢ‖². This
         takes far fewer pivots than the most-negative-rhs rule on the
         branch-and-bound workload, and since pricing only picks the
         pivot order — the verdict is certified afterwards — the weight
         approximation cannot hurt soundness. *)
      let rhs = st.rhs in
      let dw = st.dw in
      let row = ref (-1) and row_s = ref 0. in
      for i = 0 to st.m - 1 do
        let b = Array.unsafe_get rhs i in
        if b < -.tol then begin
          let s = b *. b /. Array.unsafe_get dw i in
          if s > !row_s then begin
            row_s := s;
            row := i
          end
        end
      done;
      if !row < 0 then `Optimal
      else begin
        let tab = st.tab in
        let base = !row * st.stride in
        let best = ref (-1) and best_ratio = ref Float.infinity in
        for j = 0 to st.n - 1 do
          let arj = Array.unsafe_get tab (base + j) in
          if arj < -.tol then begin
            (* Scan ascending and replace only on a strict improvement:
               ties keep the smallest column (Bland-style, terminating). *)
            let ratio = Array.unsafe_get tab (ob + j) /. -.arj in
            if !best < 0 || ratio < !best_ratio -. tol then begin
              best_ratio := ratio;
              best := j
            end
          end
        done;
        if !best < 0 then `Infeasible !row
        else begin
          (* Forrest–Goldfarb weight update from the entering column,
             using the pre-pivot tableau; reset the reference framework
             when a weight blows up (standard Devex practice). *)
          let arq = Array.unsafe_get tab (base + !best) in
          let gr = Array.unsafe_get dw !row in
          let gq = Float.max 1. (gr /. (arq *. arq)) in
          if gq > 1e12 then Array.fill dw 0 st.m 1.
          else begin
            let scale = gr /. (arq *. arq) in
            for i = 0 to st.m - 1 do
              if i <> !row then begin
                let aiq = Array.unsafe_get tab ((i * st.stride) + !best) in
                if aiq <> 0. then begin
                  let cand = aiq *. aiq *. scale in
                  if cand > Array.unsafe_get dw i then
                    Array.unsafe_set dw i cand
                end
              end
            done;
            Array.unsafe_set dw !row gq
          end;
          pivot st ~row:!row ~col:!best;
          loop (iter + 1)
        end
      end
    end
  in
  loop 0

(* Rebuild the working tableau from the pristine system: sign-fix every
   row, seed marker columns where usable, append artificials elsewhere.
   Returns [true] when artificials were added (phase 1 needed). *)
let cold_build st =
  (* A row seeds iff its marker sign agrees with the current rhs sign;
     count the rest and grow the artificial-column capacity if rhs
     changes pushed it past what {!make} provisioned. *)
  let needed = ref 0 in
  for i = 0 to st.m - 1 do
    match st.basis0.(i) with
    | Some (_, sign) when (sign > 0. && st.sb.(i) >= 0.) || (sign < 0. && st.sb.(i) <= 0.) ->
      ()
    | _ -> incr needed
  done;
  if st.n + !needed > st.stride then begin
    st.stride <- st.n + !needed;
    st.tab <- Array.make ((st.m + 1) * st.stride) 0.
  end;
  if !needed > Array.length st.art_row then
    st.art_row <- Array.make !needed (-1);
  Array.fill st.art_row 0 (Array.length st.art_row) (-1);
  Array.fill st.tab 0 (Array.length st.tab) 0.;
  Array.fill st.rhs 0 (Array.length st.rhs) 0.;
  let next_art = ref st.n in
  for i = 0 to st.m - 1 do
    let base = i * st.stride in
    for j = 0 to st.n - 1 do
      st.tab.(base + j) <- st.sa.((i * st.n) + j)
    done;
    st.rhs.(i) <- st.sb.(i);
    st.rowsign.(i) <- 1.;
    let negate () =
      for j = 0 to st.n - 1 do
        st.tab.(base + j) <- -.st.tab.(base + j)
      done;
      st.rhs.(i) <- -.st.rhs.(i);
      st.rowsign.(i) <- -1.
    in
    let seeded =
      match st.basis0.(i) with
      | Some (col, sign) when sign > 0. && st.sb.(i) >= 0. ->
        st.basis.(i) <- col;
        true
      | Some (col, sign) when sign < 0. && st.sb.(i) <= 0. ->
        negate ();
        st.basis.(i) <- col;
        true
      | _ -> false
    in
    if not seeded then begin
      if st.rhs.(i) < 0. then negate ();
      st.tab.(base + !next_art) <- 1.;
      st.basis.(i) <- !next_art;
      st.art_row.(!next_art - st.n) <- i;
      incr next_art
    end
  done;
  st.ncols <- !next_art;
  !next_art > st.n

(* Set the objective row to minimise [cost] (shorter arrays mean zero
   cost for the remaining columns), expressed in terms of the current
   basis: reduced costs r_j = c_j − c_B B⁻¹ A_j, and the rhs entry
   becomes −c_B B⁻¹ b (the negated objective value). *)
let install_objective st cost =
  let ob = st.m * st.stride in
  Array.fill st.tab ob st.stride 0.;
  Array.blit cost 0 st.tab ob (Array.length cost);
  st.rhs.(st.m) <- 0.;
  for i = 0 to st.m - 1 do
    let b = st.basis.(i) in
    let cb = if b < Array.length cost then cost.(b) else 0. in
    if cb <> 0. then begin
      let ib = i * st.stride in
      for j = 0 to st.ncols - 1 do
        st.tab.(ob + j) <- st.tab.(ob + j) -. (cb *. st.tab.(ib + j))
      done;
      st.rhs.(st.m) <- st.rhs.(st.m) -. (cb *. st.rhs.(i))
    end
  done

(** [set_cost st c] replaces the objective. A warm basis that is still
    primal-feasible (every basic value ≥ −tol) keeps serving: its
    objective row is repriced for [c] and the next {!resolve} restarts
    primal phase 2 from it. Any other state goes cold. *)
let set_cost st c =
  if Array.length c <> st.n then invalid_arg "Simplex.set_cost: length";
  st.sc <- Array.copy c;
  st.proof <- No_proof;
  let reusable = ref st.warm in
  for i = 0 to st.m - 1 do
    if st.rhs.(i) < -.tol then reusable := false
  done;
  st.restart <- !reusable;
  if !reusable then install_objective st st.sc else st.warm <- false

let extract st =
  let values = Array.make st.n 0. in
  for i = 0 to st.m - 1 do
    if st.basis.(i) < st.n then values.(st.basis.(i)) <- st.rhs.(i)
  done;
  Optimal { objective = -.st.rhs.(st.m); values }

(* ---- Pristine-basis certification of warm verdicts ------------------

   The dense tableau accumulates float error across warm solves: big-M
   ReLU encodings push its conditioning high enough that the drift can
   reach whole units after a few hundred pivots, which would turn warm
   bounds into unsound branch-and-bound fathoms. So the warm path never
   takes the tableau's word for a verdict. The final basis is
   re-factorised (LU with partial pivoting) from the {e pristine} system
   and the claim is checked as a certificate:

   - [`Optimal]: basic values [x_B = B⁻¹b] non-negative and the pricing
     vector [y] ([B'y = c_B]) dual-feasible — the answer returned is
     recomputed from [x_B], not from the drifted rhs;
   - [`Limited]: [y] dual-feasible and [y·b >= limit] (weak duality);
   - [`Infeasible]: the violated row's ray [z] ([B'z = e_row]) is a
     Farkas certificate: [z·A_j >= 0] for every column and [z·b < 0].

   A failed certificate falls back to the cold two-phase path (counted
   as a fallback), so tableau drift can only ever cost performance, and
   refreshing the rhs from the factorisation on success stops the drift
   from compounding. A passed certificate keeps its [y] (or [−z]) as the
   verdict's {!witness}, so a certificate emitter reads the multipliers
   this check already validated instead of factorising again. *)

(* A straight m×m factorisation would cost O(m³) per certified solve
   and dominate the warm path. But most basic columns are slacks —
   single-nonzero columns — whose rows eliminate with zero fill-in: a
   column [σ·e_r] pins its variable to row [r]'s equation alone, so the
   factorisation reduces to a dense LU of the small kernel spanned by
   the non-singleton basic columns, plus O(d) back-substitution per
   eliminated row. *)
type lu = {
  d : int;  (** kernel dimension *)
  krows : int array;  (** kernel row indices *)
  kpos : int array;  (** kernel basis positions *)
  lum : float array;  (** d×d row-major, packed L\U of the kernel *)
  perm : int array;  (** kernel row permutation *)
  elim : (int * int * float) array;
      (** (row, basis position, coeff) per basic singleton column *)
}

(* Factorise the current basis against the pristine [sa]: singleton
   reduction, then dense LU with partial pivoting on the kernel. An
   artificial column (basic only after a cold solve) is the singleton
   [rowsign_r·e_r] of its creation row [r] in the pristine row space.
   [None] when the basis is numerically singular. *)
let lu_factor st =
  let m = st.m in
  let rowtaken = Array.make (max 1 m) false in
  let elim = ref [] and kpos = ref [] and nelim = ref 0 in
  let ok = ref true in
  for k = 0 to m - 1 do
    let j = st.basis.(k) in
    let single =
      if j < st.n then st.singleton.(j)
      else
        let r = st.art_row.(j - st.n) in
        Some (r, st.rowsign.(r))
    in
    match single with
    | Some (r, coeff) when not rowtaken.(r) ->
      rowtaken.(r) <- true;
      incr nelim;
      elim := (r, k, coeff) :: !elim
    | Some _ -> ok := false (* two singletons on one row: singular *)
    | None -> kpos := k :: !kpos
  done;
  if not !ok then None
  else begin
    let d = m - !nelim in
    let kpos = Array.of_list (List.rev !kpos) in
    let krows = Array.make (max 1 d) 0 in
    let ki = ref 0 in
    for r = 0 to m - 1 do
      if not rowtaken.(r) then begin
        krows.(!ki) <- r;
        incr ki
      end
    done;
    if Array.length kpos <> d || !ki <> d then None
    else begin
      let lum = Array.make (max 1 (d * d)) 0. in
      for i = 0 to d - 1 do
        let rb = krows.(i) * st.n in
        for c = 0 to d - 1 do
          lum.((i * d) + c) <- st.sa.(rb + st.basis.(kpos.(c)))
        done
      done;
      let amax =
        Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0. lum
      in
      let eps = 1e-12 *. Float.max 1. amax in
      let perm = Array.init d (fun i -> i) in
      try
        for k = 0 to d - 1 do
          let p = ref k in
          for i = k + 1 to d - 1 do
            if Float.abs lum.((i * d) + k) > Float.abs lum.((!p * d) + k)
            then p := i
          done;
          if Float.abs lum.((!p * d) + k) <= eps then raise Exit;
          if !p <> k then begin
            for j = 0 to d - 1 do
              let t = lum.((k * d) + j) in
              lum.((k * d) + j) <- lum.((!p * d) + j);
              lum.((!p * d) + j) <- t
            done;
            let t = perm.(k) in
            perm.(k) <- perm.(!p);
            perm.(!p) <- t
          end;
          let piv = lum.((k * d) + k) in
          for i = k + 1 to d - 1 do
            let f = lum.((i * d) + k) /. piv in
            lum.((i * d) + k) <- f;
            if f <> 0. then
              for j = k + 1 to d - 1 do
                lum.((i * d) + j) <-
                  lum.((i * d) + j) -. (f *. lum.((k * d) + j))
              done
          done
        done;
        Some
          { d; krows; kpos; lum; perm; elim = Array.of_list (List.rev !elim) }
      with Exit -> None
    end
  end

(* Dense kernel solve [K xk = rhs] through [PK = LU] (in place). *)
let kernel_solve { d; lum; perm; _ } rhs =
  let x = Array.init d (fun i -> rhs.(perm.(i))) in
  for i = 1 to d - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (lum.((i * d) + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  for i = d - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to d - 1 do
      acc := !acc -. (lum.((i * d) + j) *. x.(j))
    done;
    x.(i) <- !acc /. lum.((i * d) + i)
  done;
  x

(* Dense kernel transpose solve [K' yk = rhs]: [U' w = rhs], [L' z = w],
   [yk = P' z]. *)
let kernel_solve_t { d; lum; perm; _ } rhs =
  let w = Array.copy rhs in
  for i = 0 to d - 1 do
    let acc = ref w.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (lum.((j * d) + i) *. w.(j))
    done;
    w.(i) <- !acc /. lum.((i * d) + i)
  done;
  for i = d - 1 downto 0 do
    let acc = ref w.(i) in
    for j = i + 1 to d - 1 do
      acc := !acc -. (lum.((j * d) + i) *. w.(j))
    done;
    w.(i) <- !acc
  done;
  let y = Array.make (max 1 d) 0. in
  for i = 0 to d - 1 do
    y.(perm.(i)) <- w.(i)
  done;
  y

(* Solve [B x = b]; [x] is indexed by basis {e position}. Kernel rows
   involve kernel columns only (every basic singleton lives in its own
   eliminated row), so solve the kernel first and back-substitute each
   eliminated row's variable. *)
let lu_solve st lu b =
  let x = Array.make (max 1 st.m) 0. in
  let rhs_k = Array.init lu.d (fun i -> b.(lu.krows.(i))) in
  let xk = kernel_solve lu rhs_k in
  for c = 0 to lu.d - 1 do
    x.(lu.kpos.(c)) <- xk.(c)
  done;
  Array.iter
    (fun (r, pos, coeff) ->
      let acc = ref b.(r) in
      let rb = r * st.n in
      for c = 0 to lu.d - 1 do
        acc := !acc -. (st.sa.(rb + st.basis.(lu.kpos.(c))) *. xk.(c))
      done;
      x.(pos) <- !acc /. coeff)
    lu.elim;
  x

(* Solve [B' y = c]; [c] is indexed by basis position, [y] by row. Each
   eliminated row's multiplier comes straight from its singleton column;
   the kernel multipliers then solve the reduced transpose system. *)
let lu_solve_t st lu c =
  let y = Array.make (max 1 st.m) 0. in
  Array.iter (fun (r, pos, coeff) -> y.(r) <- c.(pos) /. coeff) lu.elim;
  let rhs_k =
    Array.init lu.d (fun ci ->
        let col = st.basis.(lu.kpos.(ci)) in
        let acc = ref c.(lu.kpos.(ci)) in
        Array.iter
          (fun (r, _, _) -> acc := !acc -. (st.sa.((r * st.n) + col) *. y.(r)))
          lu.elim;
        !acc)
  in
  let yk = kernel_solve_t lu rhs_k in
  for i = 0 to lu.d - 1 do
    y.(lu.krows.(i)) <- yk.(i)
  done;
  y

(* [y] prices every pristine column to a non-negative reduced cost
   (within a relative noise floor): [y] is dual-feasible. All columns
   are priced in one row-major sweep of [sa] (accumulators per column)
   — the column-at-a-time order would stride through [sa] and miss
   cache on every access. *)
let dual_feasible st y =
  let n = st.n in
  let sa = st.sa in
  let acc = Array.init n (fun j -> st.sc.(j)) in
  let scale = Array.init n (fun j -> Float.abs st.sc.(j)) in
  for i = 0 to st.m - 1 do
    let yi = Array.unsafe_get y i in
    if yi <> 0. then begin
      let base = i * n in
      for j = 0 to n - 1 do
        let t = yi *. Array.unsafe_get sa (base + j) in
        Array.unsafe_set acc j (Array.unsafe_get acc j -. t);
        Array.unsafe_set scale j (Array.unsafe_get scale j +. Float.abs t)
      done
    end
  done;
  let ok = ref true in
  for j = 0 to n - 1 do
    if Array.unsafe_get acc j < -1e-7 *. (1. +. Array.unsafe_get scale j)
    then ok := false
  done;
  !ok

(* Certify a warm dual-simplex verdict against the pristine system and,
   on success, return the answer recomputed from the factorisation.
   [None] means the certificate failed (fall back to the cold path). *)
let certify_warm st verdict =
  match lu_factor st with
  | None -> None
  | Some lu -> (
    let basic_cost () = Array.init st.m (fun k -> st.sc.(st.basis.(k))) in
    match verdict with
    | `Optimal ->
      let x = lu_solve st lu st.sb in
      let xmax = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1. x in
      if Array.exists (fun v -> v < -1e-6 *. xmax) x then None
      else begin
        let cb = basic_cost () in
        let y = lu_solve_t st lu cb in
        if not (dual_feasible st y) then None
        else begin
          let o = ref 0. in
          for k = 0 to st.m - 1 do
            st.rhs.(k) <- x.(k);
            o := !o +. (cb.(k) *. x.(k))
          done;
          st.rhs.(st.m) <- -. !o;
          st.proof <- Kept (Dual y);
          Some (extract st)
        end
      end
    | `Limited limit ->
      let cb = basic_cost () in
      let y = lu_solve_t st lu cb in
      if not (dual_feasible st y) then None
      else begin
        let dv = ref 0. in
        for i = 0 to st.m - 1 do
          dv := !dv +. (y.(i) *. st.sb.(i))
        done;
        (* The limit must hold for the certified value, not the drifted
           tableau objective, or the caller's fathom test misfires. *)
        if !dv >= limit then begin
          let x = lu_solve st lu st.sb in
          for k = 0 to st.m - 1 do
            st.rhs.(k) <- x.(k)
          done;
          st.rhs.(st.m) <- -. !dv;
          st.proof <- Kept (Dual y);
          Some (extract st)
        end
        else None
      end
    | `Infeasible row ->
      let e = Array.make (max 1 st.m) 0. in
      e.(row) <- 1.;
      let z = lu_solve_t st lu e in
      (* Farkas pricing in one row-major sweep, like {!dual_feasible}. *)
      let n = st.n in
      let sa = st.sa in
      let acc = Array.make n 0. in
      let scale = Array.make n 0. in
      for i = 0 to st.m - 1 do
        let zi = Array.unsafe_get z i in
        if zi <> 0. then begin
          let base = i * n in
          for j = 0 to n - 1 do
            let t = zi *. Array.unsafe_get sa (base + j) in
            Array.unsafe_set acc j (Array.unsafe_get acc j +. t);
            Array.unsafe_set scale j (Array.unsafe_get scale j +. Float.abs t)
          done
        end
      done;
      let ok = ref true in
      for j = 0 to n - 1 do
        if Array.unsafe_get acc j < -1e-7 *. (1. +. Array.unsafe_get scale j)
        then ok := false
      done;
      if not !ok then None
      else begin
        let zb = ref 0. and zscale = ref 0. in
        for i = 0 to st.m - 1 do
          let t = z.(i) *. st.sb.(i) in
          zb := !zb +. t;
          zscale := !zscale +. Float.abs t
        done;
        if !zb < -1e-7 *. (1. +. !zscale) then begin
          st.proof <- Kept (Ray (Array.map Float.neg z));
          Some Infeasible
        end
        else None
      end)

(* Cold path: rebuild, phase 1 if artificials were needed, drive
   leftover artificials out, price the real objective, phase 2. *)
let cold_solve ?deadline ?max_iters st =
  st.warm <- false;
  st.since_cold <- 0;
  let phase1 =
    if not (cold_build st) then begin
      Cv_util.Metrics.incr m_phase1_skipped;
      `Feasible
    end
    else begin
      (* Phase 1: minimise the sum of artificials. *)
      let c1 = Array.make st.ncols 0. in
      for j = st.n to st.ncols - 1 do
        c1.(j) <- 1.
      done;
      install_objective st c1;
      match iterate ?deadline ?max_iters st ~allowed:(fun _ -> true) with
      | `Unbounded -> failwith "Simplex: phase 1 unbounded (impossible)"
      | `Stalled -> `Stalled
      | `Optimal -> if -.st.rhs.(st.m) > 1e-6 then `Infeasible else `Feasible
    end
  in
  match phase1 with
  | `Stalled -> Stalled
  | `Infeasible ->
    st.proof <- Cold_infeasible;
    Infeasible
  | `Feasible -> (
    (* Drive out any artificial still basic at zero level. *)
    for i = 0 to st.m - 1 do
      if st.basis.(i) >= st.n then begin
        let base = i * st.stride in
        let found = ref (-1) in
        (try
           for j = 0 to st.n - 1 do
             if Float.abs st.tab.(base + j) > 1e-7 then begin
               found := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !found >= 0 then pivot st ~row:i ~col:!found
        (* else: redundant row; harmless to keep *)
      end
    done;
    (* Phase 2: original objective, artificials barred from entering. *)
    install_objective st st.sc;
    match iterate ?deadline ?max_iters st ~allowed:(fun j -> j < st.n) with
    | `Stalled -> Stalled
    | `Unbounded -> Unbounded
    | `Optimal ->
      if Array.for_all (fun b -> b < st.n) st.basis then begin
        (* Artificial-free optimal basis: reusable for dual restarts.
           Retire the artificial columns so later pivots skip them, and
           restart the Devex reference framework for the new basis. *)
        st.warm <- true;
        st.ncols <- st.n;
        Array.fill st.dw 0 st.m 1.
      end;
      st.proof <- Cold_optimal;
      extract st)

(** [resolve st] solves the state's current system. Warm states try a
    restart first — primal phase 2 after {!set_cost}, dual simplex
    otherwise — and certify its verdict against the pristine system (a
    hit); an unbounded or stalled restart or a failed certificate falls
    back to the cold path (a fallback); cold states run two-phase primal
    (a miss). Raises {!Cv_util.Deadline.Expired} when [deadline] runs
    out mid-solve. *)
let resolve ?deadline ?max_iters ?obj_limit st =
  Cv_util.Fault.trip Cv_util.Fault.Solver_failure;
  Cv_util.Deadline.check_opt deadline;
  Cv_util.Metrics.incr m_solves;
  st.proof <- No_proof;
  Cv_util.Metrics.time t_seconds @@ fun () ->
  let fallback () =
    Cv_util.Metrics.incr m_warm_fallbacks;
    Cv_util.Metrics.time t_cold (fun () -> cold_solve ?deadline ?max_iters st)
  in
  let restart = st.restart in
  st.restart <- false;
  if st.warm && st.since_cold < warm_refresh_limit then begin
    let verdict =
      (* Fault injection: a spurious warm-restart failure. Escalates
         through the normal stall path — the cold solve below recomputes
         from scratch, so the verdict is unchanged, only slower. *)
      if Cv_util.Fault.fires Cv_util.Fault.Spurious_solver_error then None
      else if restart then
        (* The basis is primal-feasible and priced for the new
           objective: phase 2 resumes from it. An unbounded verdict is
           left to the cold path, which reports it from scratch. *)
        match
          Cv_util.Metrics.time t_primal (fun () ->
              iterate ?deadline ?max_iters st ~allowed:(fun j -> j < st.n))
        with
        | `Optimal ->
          (* A new basis: restart the Devex reference framework, as
             after a cold solve. *)
          Array.fill st.dw 0 st.m 1.;
          Some `Optimal
        | `Unbounded | `Stalled -> None
      else
      match Cv_util.Metrics.time t_dual (fun () -> dual_iterate ?deadline ?max_iters ?obj_limit st) with
      | `Stalled -> None
      | `Optimal -> Some `Optimal
      | `Limited -> (
        match obj_limit with Some l -> Some (`Limited l) | None -> None)
      | `Infeasible row -> Some (`Infeasible row)
    in
    match Option.map (fun v -> Cv_util.Metrics.time t_cert (fun () -> certify_warm st v)) verdict with
    | Some (Some res) ->
      st.since_cold <- st.since_cold + 1;
      Cv_util.Metrics.incr m_warm_hits;
      Cv_util.Metrics.incr m_phase1_skipped;
      res
    | Some None | None -> fallback ()
  end
  else begin
    Cv_util.Metrics.incr m_warm_misses;
    cold_solve ?deadline ?max_iters st
  end

(** [solve ?basis0 ~a ~b ~c ()] minimises [c·y] subject to [A y = b],
    [y >= 0] — the one-shot entry point (a fresh cold state).
    [basis0.(i)], when given, names a structural slack column usable as
    row [i]'s initial basic variable (+1 there, 0 elsewhere, zero cost),
    letting the solver skip artificials — and often all of phase 1 —
    for those rows. Returns structural values only. *)
let solve ?deadline ?max_iters ?basis0 ~a ~b ~c () =
  let m = Array.length b in
  let basis0 =
    match basis0 with
    | Some arr -> Array.map (Option.map (fun j -> (j, 1.))) arr
    | None -> Array.make m None
  in
  resolve ?deadline ?max_iters (make ~a ~b ~c ~basis0)

(* ------------------------------------------------------------------ *)
(* Accessors for certificate extraction ({!Lp_cert}). The system
   accessors return copies, so the solver state stays sealed; {!witness}
   hands out multipliers the solver never writes again. *)

let num_cols st = st.n

let system_rows st =
  Array.init st.m (fun i -> Array.sub st.sa (i * st.n) st.n)

let system_rhs st = Array.sub st.sb 0 st.m

let system_obj st = Array.copy st.sc

let witness st =
  match st.proof with
  | No_proof -> None
  | Kept w -> Some w
  | (Cold_optimal | Cold_infeasible) as p ->
    (* The certification's LU on the final basis, priced with the cost
       the verdict optimised: the objective for [Optimal], phase 1's
       unit artificial costs for [Infeasible] (whose prices [y] then
       satisfy [Aᵀy ≤ 0 < b·y], the Farkas orientation). *)
    let phase1 = p = Cold_infeasible in
    let cost k =
      let j = st.basis.(k) in
      if j >= st.n then if phase1 then 1. else 0.
      else if phase1 then 0.
      else st.sc.(j)
    in
    Cv_util.Metrics.time t_cert @@ fun () ->
    Option.map
      (fun lu ->
        let y = lu_solve_t st lu (Array.init st.m cost) in
        if phase1 then Ray y else Dual y)
      (lu_factor st)
