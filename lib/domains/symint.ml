(** Symbolic interval analysis in the style of ReluVal / Neurify.

    Each neuron carries two symbolic linear expressions over the network
    inputs — a lower and an upper bound — together with the input box
    needed to concretise them. Affine layers propagate the expressions
    exactly (sign-splitting per weight); unstable ReLUs relax the upper
    expression by the standard triangle slope and drop the lower to 0.
    This is the domain the paper's experiment uses (via the ReluVal
    tool) to produce its per-neuron state abstractions.

    Representation: the per-neuron coefficient rows are flattened into
    two row-major matrices (lower/upper, [n × in_dim]) with separate
    constant vectors, so an affine step is one fused
    {!Cv_linalg.Mat.gemm_select_into} instead of [n] per-neuron
    coefficient walks over boxed records. The affine combination
    visits weights in exactly the historical order (per output row,
    ascending weight index, zeros skipped), so results are bitwise
    identical to the record-based implementation.

    A value fresh from {!of_box} — identity coefficients, zero
    constants — is flagged, and its affine step takes the weight matrix
    itself instead of the product over identity sources, which is what
    makes the analyzer's per-layer restart from [S_i] cost [O(n·d)]
    rather than [O(n·d²)]. *)

type t = {
  input : Cv_interval.Box.t;  (** box over which expressions concretise *)
  ilo : float array;  (** cached input lower bounds *)
  ihi : float array;  (** cached input upper bounds *)
  lower_c : Cv_linalg.Mat.t;  (** [n × in_dim] lower-bound coefficients *)
  lower_k : float array;  (** lower-bound constants *)
  upper_c : Cv_linalg.Mat.t;  (** [n × in_dim] upper-bound coefficients *)
  upper_k : float array;  (** upper-bound constants *)
  fresh : bool;
      (** [true] only on {!of_box} output: identity coefficients, zero
          constants. Every transformer output clears it. *)
}

let name = "symint"

let dim a = Array.length a.lower_k

(* Concretise row [i] of a coefficient matrix with constant [k] over the
   cached input bounds (exact: split coefficients by sign; [>= 0.]
   branch and ascending-index accumulation as in the historical
   concretize_linexp). Returns [(lo, hi)]. *)
let row_interval md cols ilo ihi k i =
  let base = i * cols in
  let lo = ref k and hi = ref k in
  for j = 0 to cols - 1 do
    let c = Array.unsafe_get md (base + j) in
    if c >= 0. then begin
      lo := !lo +. (c *. Array.unsafe_get ilo j);
      hi := !hi +. (c *. Array.unsafe_get ihi j)
    end
    else begin
      lo := !lo +. (c *. Array.unsafe_get ihi j);
      hi := !hi +. (c *. Array.unsafe_get ilo j)
    end
  done;
  (!lo, !hi)

(* Concrete interval of one neuron: lower bound of the lower expression,
   upper bound of the upper expression. *)
let neuron_bounds a i =
  let in_dim = Array.length a.ilo in
  let lo, _ =
    row_interval (Cv_linalg.Mat.unsafe_data a.lower_c) in_dim a.ilo a.ihi
      a.lower_k.(i) i
  in
  let _, hi =
    row_interval (Cv_linalg.Mat.unsafe_data a.upper_c) in_dim a.ilo a.ihi
      a.upper_k.(i) i
  in
  (lo, hi)

let neuron_interval a i =
  let lo, hi = neuron_bounds a i in
  (* Float relaxations can cross by a few ulps; normalise. *)
  if lo > hi then Cv_interval.Interval.point (0.5 *. (lo +. hi))
  else Cv_interval.Interval.make lo hi

(* Coefficient matrices and constant vectors are never mutated in place
   (every transformer writes fresh ones), so both bounds may share
   them. *)
let of_box b =
  let n = Cv_interval.Box.dim b in
  let id = Cv_linalg.Mat.identity n in
  let zero = Array.make n 0. in
  { input = b;
    ilo = Cv_interval.Box.lower b;
    ihi = Cv_interval.Box.upper b;
    lower_c = id;
    lower_k = zero;
    upper_c = id;
    upper_k = zero;
    fresh = true }

(* [w] as the sign-select product over identity sources yields it. Per
   output entry the product adds [w_ij·1] and [w_ik·0] terms onto
   [+0.0], skipping zero weights: a nonzero weight comes out as itself,
   a ±0.0 weight as +0.0. A non-finite weight is the one exception:
   the product's [inf·0] or [nan·0] terms turn the rest of its row
   into NaN. That row's constant ([inf·0] in
   {!Cv_linalg.Mat.gemv_select_acc}) or its concretisation (the copied
   NaN) is NaN either way, so no bound can tell the two apart. *)
let identity_product w =
  let src = Cv_linalg.Mat.unsafe_data w in
  let dst = Array.create_float (Array.length src) in
  for k = 0 to Array.length src - 1 do
    let x = Array.unsafe_get src k in
    Array.unsafe_set dst k (if x = 0. then 0. else x)
  done;
  Cv_linalg.Mat.of_array ~rows:(Cv_linalg.Mat.rows w)
    ~cols:(Cv_linalg.Mat.cols w) dst

(* Affine image: the output's lower expression combines input lower
   expressions on positive weights and upper ones on negative weights
   (zeros skipped); dually for the output's upper expression. On a
   fresh value both products reduce to {!identity_product}, and both
   constant sums to one, as the two bounds are one expression. *)
let affine (w : Cv_linalg.Mat.t) bias a =
  let rows = Cv_linalg.Mat.rows w and cols = Cv_linalg.Mat.cols w in
  if cols <> dim a then invalid_arg "Symint.affine: dimension mismatch";
  if Array.length bias <> rows then invalid_arg "Symint.affine: bias dim";
  let constants ~pos ~neg =
    let acc = Array.copy bias in
    Cv_linalg.Mat.gemv_select_acc w ~pos ~neg ~acc;
    acc
  in
  if a.fresh then
    let c = identity_product w in
    let k = constants ~pos:a.lower_k ~neg:a.upper_k in
    { a with lower_c = c; lower_k = k; upper_c = c; upper_k = k; fresh = false }
  else
    let in_dim = Array.length a.ilo in
    let lower_c = Cv_linalg.Mat.zeros rows in_dim in
    let upper_c = Cv_linalg.Mat.zeros rows in_dim in
    Cv_linalg.Mat.gemm_select_into ~dst:lower_c w ~pos_src:a.lower_c
      ~neg_src:a.upper_c;
    Cv_linalg.Mat.gemm_select_into ~dst:upper_c w ~pos_src:a.upper_c
      ~neg_src:a.lower_c;
    { a with
      lower_c;
      lower_k = constants ~pos:a.lower_k ~neg:a.upper_k;
      upper_c;
      upper_k = constants ~pos:a.upper_k ~neg:a.lower_k;
      fresh = false }

(* Both bounds are one expression when they share their coefficients
   and constants (a value fresh from {!of_box} and its affine step);
   one concretisation then serves both. *)
let shared a = a.lower_c == a.upper_c && a.lower_k == a.upper_k

(* ReLU on the symbolic element. *)
let relu a =
  let n = dim a in
  let in_dim = Array.length a.ilo in
  let src_l = Cv_linalg.Mat.unsafe_data a.lower_c in
  let src_u = Cv_linalg.Mat.unsafe_data a.upper_c in
  let lower_c = Cv_linalg.Mat.zeros n in_dim in
  let upper_c = Cv_linalg.Mat.zeros n in_dim in
  let dst_l = Cv_linalg.Mat.unsafe_data lower_c in
  let dst_u = Cv_linalg.Mat.unsafe_data upper_c in
  let lower_k = Array.make n 0. and upper_k = Array.make n 0. in
  let shared = shared a in
  for i = 0 to n - 1 do
    let l, h = row_interval src_l in_dim a.ilo a.ihi a.lower_k.(i) i in
    let l_u, u =
      if shared then (l, h)
      else row_interval src_u in_dim a.ilo a.ihi a.upper_k.(i) i
    in
    let base = i * in_dim in
    if l >= 0. then begin
      Array.blit src_l base dst_l base in_dim;
      Array.blit src_u base dst_u base in_dim;
      lower_k.(i) <- a.lower_k.(i);
      upper_k.(i) <- a.upper_k.(i)
    end
    else if u <= 0. then ()
    else begin
      (* Unstable: lower := 0. For the upper expression, let [l_u, u] be
         its own concrete range. ReLU(z(x)) ≤ ReLU(ub(x)); when l_u ≥ 0
         that is just ub(x), otherwise the chord s(t − l_u) with
         s = u/(u − l_u) over-approximates ReLU(t) on [l_u, u] (ReLU is
         convex), applied at t = ub(x). *)
      if l_u >= 0. then begin
        Array.blit src_u base dst_u base in_dim;
        upper_k.(i) <- a.upper_k.(i)
      end
      else begin
        let s = if u -. l_u <= 0. then 0. else u /. (u -. l_u) in
        for j = base to base + in_dim - 1 do
          Array.unsafe_set dst_u j (s *. Array.unsafe_get src_u j)
        done;
        upper_k.(i) <- s *. (a.upper_k.(i) -. l_u)
      end
    end
  done;
  { a with lower_c; lower_k; upper_c; upper_k; fresh = false }

(* Monotone non-linearities other than ReLU: fall back to concrete
   intervals (constant expressions). Sound, loses the symbolic part. *)
let monotone_concrete act a =
  let n = dim a in
  let in_dim = Array.length a.ilo in
  let lower_k = Array.make n 0. and upper_k = Array.make n 0. in
  for i = 0 to n - 1 do
    let iv = Cv_nn.Activation.interval act (neuron_interval a i) in
    lower_k.(i) <- Cv_interval.Interval.lo iv;
    upper_k.(i) <- Cv_interval.Interval.hi iv
  done;
  { a with
    lower_c = Cv_linalg.Mat.zeros n in_dim;
    upper_c = Cv_linalg.Mat.zeros n in_dim;
    lower_k;
    upper_k;
    fresh = false }

(* Leaky ReLU: for stable neurons exact; unstable neurons fall back to
   concrete bounds (sound and simple; the verified head uses plain
   ReLU). *)
let leaky_relu slope a =
  let n = dim a in
  let his = Array.init n (fun i -> Cv_interval.Interval.hi (neuron_interval a i)) in
  let los = Array.init n (fun i -> Cv_interval.Interval.lo (neuron_interval a i)) in
  let changed = ref false in
  for i = 0 to n - 1 do
    if los.(i) < 0. && his.(i) > 0. then changed := true
  done;
  if not !changed then begin
    (* All neurons stable: negative ones scale by slope, positive ones
       pass through. *)
    let in_dim = Array.length a.ilo in
    let lower_c = Cv_linalg.Mat.copy a.lower_c in
    let upper_c = Cv_linalg.Mat.copy a.upper_c in
    let lower_k = Array.copy a.lower_k and upper_k = Array.copy a.upper_k in
    let dl = Cv_linalg.Mat.unsafe_data lower_c in
    let du = Cv_linalg.Mat.unsafe_data upper_c in
    for i = 0 to n - 1 do
      if his.(i) <= 0. then begin
        let base = i * in_dim in
        for j = base to base + in_dim - 1 do
          Array.unsafe_set dl j (slope *. Array.unsafe_get dl j);
          Array.unsafe_set du j (slope *. Array.unsafe_get du j)
        done;
        lower_k.(i) <- slope *. lower_k.(i);
        upper_k.(i) <- slope *. upper_k.(i)
      end
    done;
    { a with lower_c; lower_k; upper_c; upper_k; fresh = false }
  end
  else monotone_concrete (Cv_nn.Activation.Leaky_relu slope) a

let apply_layer (l : Cv_nn.Layer.t) a =
  let pre = affine l.Cv_nn.Layer.weights l.Cv_nn.Layer.bias a in
  match l.Cv_nn.Layer.act with
  | Cv_nn.Activation.Relu -> relu pre
  | Cv_nn.Activation.Identity -> pre
  | Cv_nn.Activation.Leaky_relu slope -> leaky_relu slope pre
  | (Cv_nn.Activation.Sigmoid | Cv_nn.Activation.Tanh) as act ->
    monotone_concrete act pre

let apply_prepared (p : Cv_nn.Layer.prepared) a = apply_layer p.Cv_nn.Layer.source a

let to_box a = Array.init (dim a) (neuron_interval a)
