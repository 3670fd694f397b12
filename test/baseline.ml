(* Historical (pre-kernel) abstract-interpretation implementations, the
   reference test_kernels checks every domain's prepared-kernel reach
   against: per-call sign splits, boxed per-neuron records and
   per-generator matvecs, as they ran before the kernel layer replaced
   them. Everything here works on its own matrix type so none of the
   blocked kernels in [Cv_linalg.Mat] can leak into the reference. *)

type bmat = { rows : int; cols : int; data : float array }

let bzeros rows cols = { rows; cols; data = Array.make (rows * cols) 0. }

let bget m i j = m.data.((i * m.cols) + j)

let bset m i j x = m.data.((i * m.cols) + j) <- x

let bmat_of_mat m =
  let rows = Cv_linalg.Mat.rows m and cols = Cv_linalg.Mat.cols m in
  { rows; cols; data = Array.init (rows * cols) (fun k ->
        Cv_linalg.Mat.get m (k / cols) (k mod cols)) }

let bidentity n =
  let m = bzeros n n in
  for i = 0 to n - 1 do
    bset m i i 1.
  done;
  m

let bmap f m = { m with data = Array.map f m.data }

(* The historical naive matmul: i-k-j with a zero skip on [a]. *)
let bmatmul a b =
  let c = bzeros a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0. then begin
        let base_b = k * b.cols in
        let base_c = i * b.cols in
        for j = 0 to b.cols - 1 do
          c.data.(base_c + j) <- c.data.(base_c + j) +. (aik *. b.data.(base_b + j))
        done
      end
    done
  done;
  c

let badd a b =
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

let bmatvec m v =
  Array.init m.rows (fun i ->
      let base = i * m.cols in
      let acc = ref 0. in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.(base + j) *. v.(j))
      done;
      !acc)

let bmatvec_add m v b =
  let r = bmatvec m v in
  for i = 0 to m.rows - 1 do
    r.(i) <- r.(i) +. b.(i)
  done;
  r

let vadd a b = Array.init (Array.length a) (fun i -> a.(i) +. b.(i))

let vnorm1 v = Array.fold_left (fun acc x -> acc +. Float.abs x) 0. v

(* A network snapshot on the baseline matrix type, converted outside the
   timed region. *)
type blayer = { w : bmat; bias : float array; act : Cv_nn.Activation.t }

let of_network net =
  Array.map
    (fun (l : Cv_nn.Layer.t) ->
      { w = bmat_of_mat l.Cv_nn.Layer.weights;
        bias = Array.copy l.Cv_nn.Layer.bias;
        act = l.Cv_nn.Layer.act })
    (Cv_nn.Network.layers net)

(* ------------------------------------------------------------------ *)
(* Box domain, historical transformer.                                 *)

let box_pre_activation (l : blayer) (b : Cv_interval.Box.t) =
  Array.init l.w.rows (fun i ->
      let lo = ref l.bias.(i) and hi = ref l.bias.(i) in
      for j = 0 to l.w.cols - 1 do
        let wij = bget l.w i j in
        let iv = Cv_interval.Box.get b j in
        if wij >= 0. then begin
          lo := !lo +. (wij *. Cv_interval.Interval.lo iv);
          hi := !hi +. (wij *. Cv_interval.Interval.hi iv)
        end
        else begin
          lo := !lo +. (wij *. Cv_interval.Interval.hi iv);
          hi := !hi +. (wij *. Cv_interval.Interval.lo iv)
        end
      done;
      Cv_interval.Interval.make !lo !hi)

let box_output layers din =
  Array.fold_left
    (fun b l -> Array.map (Cv_nn.Activation.interval l.act) (box_pre_activation l b))
    din layers

(* ------------------------------------------------------------------ *)
(* Symbolic intervals, historical per-neuron linexp records.           *)

type linexp = { coeffs : float array; const : float }

type symint = {
  s_input : Cv_interval.Box.t;
  s_lower : linexp array;
  s_upper : linexp array;
}

let concretize_linexp box e =
  let lo = ref e.const and hi = ref e.const in
  for j = 0 to Array.length e.coeffs - 1 do
    let c = e.coeffs.(j) in
    let iv = Cv_interval.Box.get box j in
    if c >= 0. then begin
      lo := !lo +. (c *. Cv_interval.Interval.lo iv);
      hi := !hi +. (c *. Cv_interval.Interval.hi iv)
    end
    else begin
      lo := !lo +. (c *. Cv_interval.Interval.hi iv);
      hi := !hi +. (c *. Cv_interval.Interval.lo iv)
    end
  done;
  Cv_interval.Interval.make !lo !hi

let sym_neuron_interval a i =
  let lo = Cv_interval.Interval.lo (concretize_linexp a.s_input a.s_lower.(i)) in
  let hi = Cv_interval.Interval.hi (concretize_linexp a.s_input a.s_upper.(i)) in
  if lo > hi then Cv_interval.Interval.point (0.5 *. (lo +. hi))
  else Cv_interval.Interval.make lo hi

let sym_of_box b =
  let n = Cv_interval.Box.dim b in
  let identity i =
    { coeffs = Array.init n (fun j -> if i = j then 1. else 0.); const = 0. }
  in
  { s_input = b; s_lower = Array.init n identity; s_upper = Array.init n identity }

let sym_affine (w : bmat) bias a =
  let rows = w.rows and cols = w.cols in
  let in_dim = Cv_interval.Box.dim a.s_input in
  let combine pick_lo i =
    let coeffs = Array.make in_dim 0. in
    let const = ref bias.(i) in
    for j = 0 to cols - 1 do
      let wij = bget w i j in
      if wij <> 0. then begin
        let src =
          if (wij > 0. && pick_lo) || (wij < 0. && not pick_lo) then a.s_lower.(j)
          else a.s_upper.(j)
        in
        for k = 0 to in_dim - 1 do
          coeffs.(k) <- coeffs.(k) +. (wij *. src.coeffs.(k))
        done;
        const := !const +. (wij *. src.const)
      end
    done;
    { coeffs; const = !const }
  in
  { s_input = a.s_input;
    s_lower = Array.init rows (combine true);
    s_upper = Array.init rows (combine false) }

let zero_exp n = { coeffs = Array.make n 0.; const = 0. }

let sym_relu a =
  let n = Array.length a.s_lower in
  let in_dim = Cv_interval.Box.dim a.s_input in
  let lower = Array.make n (zero_exp in_dim) in
  let upper = Array.make n (zero_exp in_dim) in
  for i = 0 to n - 1 do
    let lo_iv = concretize_linexp a.s_input a.s_lower.(i) in
    let up_iv = concretize_linexp a.s_input a.s_upper.(i) in
    let l = Cv_interval.Interval.lo lo_iv in
    let u = Cv_interval.Interval.hi up_iv in
    if l >= 0. then begin
      lower.(i) <- a.s_lower.(i);
      upper.(i) <- a.s_upper.(i)
    end
    else if u <= 0. then begin
      lower.(i) <- zero_exp in_dim;
      upper.(i) <- zero_exp in_dim
    end
    else begin
      let l_u = Cv_interval.Interval.lo up_iv in
      lower.(i) <- zero_exp in_dim;
      if l_u >= 0. then upper.(i) <- a.s_upper.(i)
      else begin
        let s = if u -. l_u <= 0. then 0. else u /. (u -. l_u) in
        upper.(i) <-
          { coeffs = Array.map (fun c -> s *. c) a.s_upper.(i).coeffs;
            const = s *. (a.s_upper.(i).const -. l_u) }
      end
    end
  done;
  { a with s_lower = lower; s_upper = upper }

let sym_monotone_concrete act a =
  let n = Array.length a.s_lower in
  let in_dim = Cv_interval.Box.dim a.s_input in
  let lower = Array.make n (zero_exp in_dim) in
  let upper = Array.make n (zero_exp in_dim) in
  for i = 0 to n - 1 do
    let iv = Cv_nn.Activation.interval act (sym_neuron_interval a i) in
    lower.(i) <- { coeffs = Array.make in_dim 0.; const = Cv_interval.Interval.lo iv };
    upper.(i) <- { coeffs = Array.make in_dim 0.; const = Cv_interval.Interval.hi iv }
  done;
  { a with s_lower = lower; s_upper = upper }

let sym_apply_layer l a =
  let pre = sym_affine l.w l.bias a in
  match l.act with
  | Cv_nn.Activation.Relu -> sym_relu pre
  | Cv_nn.Activation.Identity -> pre
  | act -> sym_monotone_concrete act pre

let symint_output layers din =
  let a = Array.fold_left (fun acc l -> sym_apply_layer l acc) (sym_of_box din) layers in
  Array.init (Array.length a.s_lower) (sym_neuron_interval a)

(* ------------------------------------------------------------------ *)
(* Zonotope, historical generator-row-array representation.            *)

type zono = { z_center : float array; z_gens : float array array }

let zono_of_box b =
  let n = Cv_interval.Box.dim b in
  let center =
    Array.init n (fun i -> Cv_interval.Interval.center (Cv_interval.Box.get b i))
  in
  let gens = ref [] in
  for i = n - 1 downto 0 do
    let r = Cv_interval.Interval.radius (Cv_interval.Box.get b i) in
    if r > 0. then begin
      let g = Array.make n 0. in
      g.(i) <- r;
      gens := g :: !gens
    end
  done;
  { z_center = center; z_gens = Array.of_list !gens }

let zono_deviation z i =
  Array.fold_left (fun acc g -> acc +. Float.abs g.(i)) 0. z.z_gens

let zono_to_box z =
  Array.init (Array.length z.z_center) (fun i ->
      let d = zono_deviation z i in
      Cv_interval.Interval.make (z.z_center.(i) -. d) (z.z_center.(i) +. d))

let zono_affine (w : bmat) bias z =
  { z_center = bmatvec_add w z.z_center bias;
    z_gens = Array.map (fun g -> bmatvec w g) z.z_gens }

let zono_relu z =
  let n = Array.length z.z_center in
  let box = zono_to_box z in
  let center = Array.copy z.z_center in
  let generators = Array.map Array.copy z.z_gens in
  let fresh = ref [] in
  for i = 0 to n - 1 do
    let iv = Cv_interval.Box.get box i in
    let l = Cv_interval.Interval.lo iv and u = Cv_interval.Interval.hi iv in
    if u <= 0. then begin
      center.(i) <- 0.;
      Array.iter (fun g -> g.(i) <- 0.) generators
    end
    else if l < 0. then begin
      let lambda = u /. (u -. l) in
      let mu = -.lambda *. l /. 2. in
      center.(i) <- (lambda *. center.(i)) +. mu;
      Array.iter (fun g -> g.(i) <- lambda *. g.(i)) generators;
      let g = Array.make n 0. in
      g.(i) <- mu;
      fresh := g :: !fresh
    end
  done;
  { z_center = center; z_gens = Array.append generators (Array.of_list !fresh) }

let zono_monotone_concrete act z =
  let box = zono_to_box z in
  let imgs = Array.map (Cv_nn.Activation.interval act) box in
  let n = Array.length z.z_center in
  let center = Array.init n (fun i -> Cv_interval.Interval.center imgs.(i)) in
  let gens = ref [] in
  for i = n - 1 downto 0 do
    let r = Cv_interval.Interval.radius imgs.(i) in
    if r > 0. then begin
      let g = Array.make n 0. in
      g.(i) <- r;
      gens := g :: !gens
    end
  done;
  { z_center = center; z_gens = Array.of_list !gens }

let zono_apply_layer l z =
  let pre = zono_affine l.w l.bias z in
  match l.act with
  | Cv_nn.Activation.Relu -> zono_relu pre
  | Cv_nn.Activation.Identity -> pre
  | act -> zono_monotone_concrete act pre

let _ = vnorm1 (* historical order-reduction helper, kept for parity *)

let zonotope_output layers din =
  zono_to_box
    (Array.fold_left (fun acc l -> zono_apply_layer l acc) (zono_of_box din) layers)

(* ------------------------------------------------------------------ *)
(* DeepPoly, historical dense node list with per-call sign splits.     *)

type dp_node = {
  lw : bmat;
  lb : float array;
  uw : bmat;
  ub : float array;
  bounds : Cv_interval.Box.t;
}

type dp = { d_input : Cv_interval.Box.t; d_nodes : dp_node list }

let dp_current_box a =
  match a.d_nodes with [] -> a.d_input | n :: _ -> n.bounds

let dp_of_box b = { d_input = b; d_nodes = [] }

let split_signs m =
  ( bmap (fun x -> if x > 0. then x else 0.) m,
    bmap (fun x -> if x < 0. then x else 0.) m )

let subst_upper node (a, c) =
  let pos, neg = split_signs a in
  let a' = badd (bmatmul pos node.uw) (bmatmul neg node.lw) in
  let c' = vadd c (vadd (bmatvec pos node.ub) (bmatvec neg node.lb)) in
  (a', c')

let subst_lower node (a, c) =
  let pos, neg = split_signs a in
  let a' = badd (bmatmul pos node.lw) (bmatmul neg node.uw) in
  let c' = vadd c (vadd (bmatvec pos node.lb) (bmatvec neg node.ub)) in
  (a', c')

let eval_upper box (a, c) =
  Array.init a.rows (fun i ->
      let acc = ref c.(i) in
      for j = 0 to a.cols - 1 do
        let w = bget a i j in
        let iv = Cv_interval.Box.get box j in
        acc :=
          !acc
          +.
          if w >= 0. then w *. Cv_interval.Interval.hi iv
          else w *. Cv_interval.Interval.lo iv
      done;
      !acc)

let eval_lower box (a, c) =
  Array.init a.rows (fun i ->
      let acc = ref c.(i) in
      for j = 0 to a.cols - 1 do
        let w = bget a i j in
        let iv = Cv_interval.Box.get box j in
        acc :=
          !acc
          +.
          if w >= 0. then w *. Cv_interval.Interval.lo iv
          else w *. Cv_interval.Interval.hi iv
      done;
      !acc)

let dp_concretize input nodes ~lw ~lb ~uw ~ub =
  let rec down_upper expr = function
    | [] -> expr
    | node :: rest -> down_upper (subst_upper node expr) rest
  in
  let rec down_lower expr = function
    | [] -> expr
    | node :: rest -> down_lower (subst_lower node expr) rest
  in
  let his = eval_upper input (down_upper (uw, ub) nodes) in
  let los = eval_lower input (down_lower (lw, lb) nodes) in
  Array.init (Array.length los) (fun i ->
      if los.(i) > his.(i) then
        Cv_interval.Interval.point (0.5 *. (los.(i) +. his.(i)))
      else Cv_interval.Interval.make los.(i) his.(i))

let dp_push a ~lw ~lb ~uw ~ub =
  let bounds = dp_concretize a.d_input a.d_nodes ~lw ~lb ~uw ~ub in
  { a with d_nodes = { lw; lb; uw; ub; bounds } :: a.d_nodes }

let dp_affine (w : bmat) bias a = dp_push a ~lw:w ~lb:bias ~uw:w ~ub:bias

let dp_relu a =
  let pre = dp_current_box a in
  let n = Cv_interval.Box.dim pre in
  let lw = bzeros n n and uw = bzeros n n in
  let lb = Array.make n 0. and ub = Array.make n 0. in
  for i = 0 to n - 1 do
    let iv = Cv_interval.Box.get pre i in
    let l = Cv_interval.Interval.lo iv and u = Cv_interval.Interval.hi iv in
    if l >= 0. then begin
      bset lw i i 1.;
      bset uw i i 1.
    end
    else if u <= 0. then ()
    else begin
      let s = u /. (u -. l) in
      bset uw i i s;
      ub.(i) <- -.s *. l;
      if u > -.l then bset lw i i 1.
    end
  done;
  dp_push a ~lw ~lb ~uw ~ub

let dp_monotone_concrete act a =
  let pre = dp_current_box a in
  let imgs = Array.map (Cv_nn.Activation.interval act) pre in
  let n = Array.length imgs in
  let zeros = bzeros n n in
  dp_push a ~lw:zeros
    ~lb:(Array.map Cv_interval.Interval.lo imgs)
    ~uw:zeros
    ~ub:(Array.map Cv_interval.Interval.hi imgs)

let dp_apply_layer l a =
  let a = dp_affine l.w l.bias a in
  match l.act with
  | Cv_nn.Activation.Relu -> dp_relu a
  | Cv_nn.Activation.Identity -> a
  | act -> dp_monotone_concrete act a

let deeppoly_output layers din =
  dp_current_box
    (Array.fold_left (fun acc l -> dp_apply_layer l acc) (dp_of_box din) layers)

let _ = bidentity
