(* The trusted checker. Every obligation is phrased so that NaN, a
   dimension mismatch or an unexpected exception leads to rejection;
   acceptance requires every positively-stated comparison to hold under
   outward rounding. This module must stay free of solver imports — its
   dependency cone is Cv_util/Cv_linalg/Cv_interval/Cv_nn data types
   plus {!Ival}. *)

module Box = Cv_interval.Box
module Interval = Cv_interval.Interval

type verdict = Valid | Invalid of string

let verdict_string = function
  | Valid -> "valid"
  | Invalid r -> "invalid: " ^ r

exception Reject of string

let fail fmt = Format.kasprintf (fun s -> raise (Reject s)) fmt

let require cond fmt =
  Format.kasprintf (fun s -> if not cond then raise (Reject s)) fmt

(* ------------------------------------------------------------------ *)
(* Reach chains                                                        *)
(* ------------------------------------------------------------------ *)

(* Validate the inductive chain over [din] and return the final
   enclosure (as the cert's own final box): outward-image(din) ⊆ S_1 and
   outward-image(S_i) ⊆ S_{i+1}. *)
let chain_steps net din (chain : Box.t array) =
  let layers = Cv_nn.Network.layers net in
  let nl = Array.length layers in
  require (Array.length chain = nl) "chain has %d boxes for %d layers"
    (Array.length chain) nl;
  require
    (Box.dim din = Cv_nn.Network.in_dim net)
    "input box dimension %d (network wants %d)" (Box.dim din)
    (Cv_nn.Network.in_dim net);
  let cur = ref (Ival.of_box din) in
  for i = 0 to nl - 1 do
    let img =
      match Ival.layer_image layers.(i) !cur with
      | Some v -> v
      | None -> fail "layer %d: unsupported activation" i
    in
    let tgt = Ival.of_box chain.(i) in
    require
      (Array.length tgt = Array.length img)
      "chain box %d has dimension %d (layer produces %d)" i
      (Array.length tgt) (Array.length img);
    Array.iteri
      (fun k v ->
        require (Ival.subset v tgt.(k))
          "chain box %d does not contain the layer image at neuron %d" i k)
      img;
    cur := tgt
  done;
  !cur

let check_final final (dout : Box.t) =
  require
    (Array.length final = Box.dim dout)
    "final box dimension %d (output box wants %d)" (Array.length final)
    (Box.dim dout);
  Array.iteri
    (fun k (v : Ival.t) ->
      let iv = Box.get dout k in
      require
        (v.lo >= Interval.lo iv && v.hi <= Interval.hi iv)
        "final box escapes the safe output set at neuron %d" k)
    final

let check_chain net ~din ~dout chain =
  match
    let final = chain_steps net din chain in
    check_final final dout
  with
  | () -> Valid
  | exception Reject msg -> Invalid msg
  | exception e -> Invalid (Printexc.to_string e)

let chain_slack ~dout chain =
  if Array.length chain = 0 then Float.neg_infinity
  else begin
    let final = Ival.of_box chain.(Array.length chain - 1) in
    if Array.length final <> Box.dim dout then Float.neg_infinity
    else begin
      let slack = ref Float.infinity in
      Array.iteri
        (fun k (v : Ival.t) ->
          let iv = Box.get dout k in
          let hi = Interval.hi iv and lo = Interval.lo iv in
          if hi < Float.infinity then
            slack := Float.min !slack (Ival.dn (hi -. v.hi));
          if lo > Float.neg_infinity then
            slack := Float.min !slack (Ival.dn (v.lo -. lo)))
        final;
      !slack
    end
  end

(* ------------------------------------------------------------------ *)
(* LP witnesses                                                        *)
(* ------------------------------------------------------------------ *)

let lp_dims (lp : Cert.lp_system) =
  (Array.length lp.lp_b, Array.length lp.lp_c)

(* Upper bound on column j of Aᵀ·z (the z-weighted column sum). *)
let column_dot_up (a : float array array) j z =
  let s = ref 0. in
  Array.iteri
    (fun i row ->
      if row.(j) <> 0. then s := Ival.up (!s +. Ival.up (row.(j) *. z.(i))))
    a;
  !s

(* System hygiene. A NaN coefficient would otherwise slip through the
   sign tests below on the accepting side. [xu] entries may be
   [infinity] (unbounded column) but never NaN or negative. *)
let check_system (lp : Cert.lp_system) =
  let m, n = lp_dims lp in
  require (Array.length lp.lp_a = m) "lp system: %d rows, %d rhs"
    (Array.length lp.lp_a) m;
  require (Array.length lp.lp_xu = n) "lp system: %d column bounds, %d columns"
    (Array.length lp.lp_xu) n;
  Array.iteri
    (fun i row ->
      require (Array.length row = n) "lp system: ragged row %d" i;
      require (Ival.all_finite row) "lp system: non-finite row %d" i)
    lp.lp_a;
  require (Ival.all_finite lp.lp_b) "lp system: non-finite rhs";
  require (Ival.all_finite lp.lp_c) "lp system: non-finite objective";
  Array.iteri
    (fun j u -> require (u >= 0.) "lp system: bad column bound %d" j)
    lp.lp_xu

(* Both witness obligations use Neumaier–Shcherbina compensation: an
   exactly-binding dual inequality can never survive outward rounding
   (a basic column's reduced cost is 0 mathematically, a few ulp after
   rounding), so instead of requiring each residual's sign we charge a
   wrong-signed residual its worst case over the column's [0, xu]
   range and fold that into the bound. *)

let check_farkas_sys (lp : Cert.lp_system) b z =
  let _, n = lp_dims lp in
  require (Array.length z = Array.length b) "farkas: wrong multiplier count";
  require (Ival.all_finite z) "farkas: non-finite multiplier";
  (* Any 0 ≤ x ≤ xu with Ax = b would give
     b·z = (Aᵀz)·x ≤ Σⱼ max(0, (Aᵀz)ⱼ)·xuⱼ, so a strictly larger b·z
     refutes feasibility. *)
  let s = ref 0. in
  for j = 0 to n - 1 do
    let cu = column_dot_up lp.lp_a j z in
    if cu > 0. then begin
      require
        (lp.lp_xu.(j) < Float.infinity)
        "farkas: unbounded column %d not eliminated" j;
      s := Ival.up (!s +. Ival.up (cu *. lp.lp_xu.(j)))
    end
  done;
  require (Ival.dot_dn b z > !s) "farkas: b·z does not exceed the slack budget"

let check_dual_sys (lp : Cert.lp_system) b y target =
  let _, n = lp_dims lp in
  require (Array.length y = Array.length b) "dual: wrong multiplier count";
  require (Ival.all_finite y) "dual: non-finite multiplier";
  (* Weak duality: c·x = (c − Aᵀy)·x + (Ax)·y, and over 0 ≤ x ≤ xu a
     residual below r_loⱼ < 0 costs at worst r_loⱼ·xuⱼ. *)
  let bound = ref (Ival.dot_dn b y) in
  for j = 0 to n - 1 do
    let r_lo = Ival.dn (lp.lp_c.(j) -. column_dot_up lp.lp_a j y) in
    if r_lo < 0. then begin
      require
        (lp.lp_xu.(j) < Float.infinity)
        "dual: negative reduced cost on unbounded column %d" j;
      bound := Ival.dn (!bound +. Ival.dn (r_lo *. lp.lp_xu.(j)))
    end
  done;
  require (!bound >= target) "dual: compensated b·y below the claimed bound"

(* ------------------------------------------------------------------ *)
(* MILP branch trees                                                   *)
(* ------------------------------------------------------------------ *)

let check_binaries (lp : Cert.lp_system) (binaries : Cert.milp_binary array) =
  let m, _ = lp_dims lp in
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun k (b : Cert.milp_binary) ->
      require
        (b.bin_ub_row >= 0 && b.bin_ub_row < m && b.bin_lb_row >= 0
       && b.bin_lb_row < m)
        "binary %d: bound row out of range" k;
      require (Float.is_finite b.bin_shift) "binary %d: non-finite shift" k;
      List.iter
        (fun r ->
          require (not (Hashtbl.mem seen r)) "binary %d: shared bound row" k;
          Hashtbl.replace seen r ())
        [ b.bin_ub_row; b.bin_lb_row ])
    binaries

let check_milp_tree ~max_nodes (lp : Cert.lp_system)
    (binaries : Cert.milp_binary array) target tree =
  check_system lp;
  check_binaries lp binaries;
  let nodes = ref 0 in
  let rec go fixings = function
    | Cert.Milp_leaf w ->
      let b_eff = Array.copy lp.lp_b in
      List.iter
        (fun (k, v) ->
          let b = binaries.(k) in
          b_eff.(b.bin_ub_row) <- v -. b.bin_shift;
          b_eff.(b.bin_lb_row) <- v -. b.bin_shift)
        fixings;
      (match w with
      | Cert.Farkas z -> check_farkas_sys lp b_eff z
      | Cert.Dual_bound y -> check_dual_sys lp b_eff y target)
    | Cert.Milp_branch { bin; zero; one } ->
      incr nodes;
      require (!nodes <= max_nodes) "milp tree exceeds the node budget";
      require (bin >= 0 && bin < Array.length binaries)
        "milp tree branches on unknown binary %d" bin;
      require
        (not (List.mem_assoc bin fixings))
        "milp tree re-fixes binary %d" bin;
      go ((bin, 0.) :: fixings) zero;
      go ((bin, 1.) :: fixings) one
  in
  go [] tree

(* ------------------------------------------------------------------ *)
(* Network-level MILP goals                                            *)
(* ------------------------------------------------------------------ *)

(* Deterministic sample points for the encoding spot check: the center
   plus axis extremes of the first few axes. A certificate whose
   standard-form bound contradicts a concretely evaluated point is
   rejected — a necessary condition on the (untrusted) encoding step,
   see DESIGN.md. *)
let spot_points din =
  let dim = Box.dim din in
  let lo = Box.lower din and hi = Box.upper din in
  let center = Array.init dim (fun j -> (lo.(j) +. hi.(j)) /. 2.) in
  let pts = ref [ center ] in
  for j = 0 to Int.min (dim - 1) 3 do
    if Float.is_finite lo.(j) then begin
      let p = Array.copy center in
      p.(j) <- lo.(j);
      pts := p :: !pts
    end;
    if Float.is_finite hi.(j) then begin
      let p = Array.copy center in
      p.(j) <- hi.(j);
      pts := p :: !pts
    end
  done;
  !pts

let output_enclosure net x =
  match Ival.eval_network net (Array.map Ival.point x) with
  | Some chain when Array.length chain > 0 -> chain.(Array.length chain - 1)
  | _ -> fail "spot check: network evaluation failed"

let check_goal ~max_nodes net din (g : Cert.milp_goal) =
  require
    (g.mg_output >= 0 && g.mg_output < Cv_nn.Network.out_dim net)
    "milp goal: output %d out of range" g.mg_output;
  require
    (Float.is_finite g.mg_target && Float.is_finite g.mg_shift
   && Float.is_finite g.mg_const)
    "milp goal: non-finite frame";
  check_milp_tree ~max_nodes g.mg_lp g.mg_binaries g.mg_target g.mg_tree;
  (* Translate the proven standard-form bound back to the model level
     with outward rounding; the claimed [c_sign] must match the side. *)
  let bound =
    match g.mg_side with
    | `Upper ->
      require (g.mg_sign = -1.) "milp goal: upper bound needs c_sign = -1";
      Ival.up (-.Ival.dn (g.mg_target +. g.mg_shift) +. g.mg_const)
    | `Lower ->
      require (g.mg_sign = 1.) "milp goal: lower bound needs c_sign = 1";
      Ival.dn (Ival.dn (g.mg_target +. g.mg_shift) +. g.mg_const)
  in
  List.iter
    (fun x ->
      let out = output_enclosure net x in
      let v = out.(g.mg_output) in
      match g.mg_side with
      | `Upper ->
        require (v.lo <= bound)
          "milp goal: spot check exceeds the certified upper bound"
      | `Lower ->
        require (v.hi >= bound)
          "milp goal: spot check undercuts the certified lower bound")
    (spot_points din);
  bound

let check_milp_goals ~max_nodes net din dout goals =
  let bound_for output side =
    match
      List.find_opt
        (fun (g : Cert.milp_goal) -> g.mg_output = output && g.mg_side = side)
        goals
    with
    | Some g -> check_goal ~max_nodes net din g
    | None -> fail "milp goals: no goal for output %d" output
  in
  for k = 0 to Box.dim dout - 1 do
    let iv = Box.get dout k in
    let hi = Interval.hi iv and lo = Interval.lo iv in
    if hi < Float.infinity then
      require (bound_for k `Upper <= hi)
        "milp goals: certified upper bound escapes D_out at %d" k;
    if lo > Float.neg_infinity then
      require (bound_for k `Lower >= lo)
        "milp goals: certified lower bound escapes D_out at %d" k
  done

(* ------------------------------------------------------------------ *)
(* Lipschitz-product certificates                                      *)
(* ------------------------------------------------------------------ *)

(* Upward-rounded ∞-norm operator bound: max absolute row sum times the
   activation's Lipschitz factor, across all layers. *)
let lipschitz_up net =
  let layers = Cv_nn.Network.layers net in
  Array.fold_left
    (fun acc (l : Cv_nn.Layer.t) ->
      let gamma =
        match Ival.act_factor l.act with
        | Some g -> g
        | None -> invalid_arg "lipschitz_up: unsupported activation"
      in
      let rows = Cv_linalg.Mat.rows l.weights in
      let cols = Cv_linalg.Mat.cols l.weights in
      let opnorm = ref 0. in
      for i = 0 to rows - 1 do
        let s = ref 0. in
        for j = 0 to cols - 1 do
          s := Ival.up (!s +. Float.abs (Cv_linalg.Mat.get l.weights i j))
        done;
        opnorm := Float.max !opnorm !s
      done;
      Ival.up (acc *. Ival.up (!opnorm *. gamma)))
    1. layers

let kappa_up ~old_din ~din =
  if Box.dim old_din <> Box.dim din then
    invalid_arg "kappa_up: box dimension mismatch";
  let k = ref 0. in
  for j = 0 to Box.dim din - 1 do
    let o = Box.get old_din j and n = Box.get din j in
    k := Float.max !k (Ival.up (Interval.lo o -. Interval.lo n));
    k := Float.max !k (Ival.up (Interval.hi n -. Interval.hi o))
  done;
  Float.max 0. !k

let check_lipschitz net din dout ~old_din ~chain ~lip ~kappa =
  require
    (Float.is_finite lip && lip >= 0. && Float.is_finite kappa && kappa >= 0.)
    "lipschitz: claimed constants not sane";
  let final = chain_steps net old_din chain in
  let ell = lipschitz_up net in
  let k = kappa_up ~old_din ~din in
  let margin = Ival.up (ell *. k) in
  let expanded =
    Array.map
      (fun (v : Ival.t) ->
        { Ival.lo = Ival.dn (v.lo -. margin); hi = Ival.up (v.hi +. margin) })
      final
  in
  check_final expanded dout

(* ------------------------------------------------------------------ *)
(* Split trees                                                         *)
(* ------------------------------------------------------------------ *)

let check_split ~max_nodes net din dout tree =
  let dim = Box.dim din in
  let nodes = ref 0 in
  let rec go lo hi = function
    | Cert.Split_leaf chain ->
      let sub = Box.of_bounds lo hi in
      let final = chain_steps net sub chain in
      check_final final dout
    | Cert.Split_node { axis; at; below; above } ->
      incr nodes;
      require (!nodes <= max_nodes) "split tree exceeds the node budget";
      require (axis >= 0 && axis < dim) "split axis %d out of range" axis;
      require
        (at >= lo.(axis) && at <= hi.(axis))
        "split point outside the node box on axis %d" axis;
      let hi' = Array.copy hi in
      hi'.(axis) <- at;
      go lo hi' below;
      let lo' = Array.copy lo in
      lo'.(axis) <- at;
      go lo' hi above
  in
  go (Box.lower din) (Box.upper din) tree

(* ------------------------------------------------------------------ *)
(* Counterexamples                                                     *)
(* ------------------------------------------------------------------ *)

let check_counterexample net din dout x =
  require (Ival.all_finite x) "counterexample: non-finite input";
  require
    (Array.length x = Box.dim din)
    "counterexample: input dimension mismatch";
  Array.iteri
    (fun j v ->
      let iv = Box.get din j in
      require
        (v >= Interval.lo iv && v <= Interval.hi iv)
        "counterexample: input leaves D_in at coordinate %d" j)
    x;
  let out = output_enclosure net x in
  require (Array.length out = Box.dim dout)
    "counterexample: output dimension mismatch";
  let escapes = ref false in
  Array.iteri
    (fun k (v : Ival.t) ->
      let iv = Box.get dout k in
      if v.lo > Interval.hi iv || v.hi < Interval.lo iv then escapes := true)
    out;
  require !escapes "counterexample: output provably inside D_out bounds"

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let check_reuse_frame ~route ~proposition ~slack =
  require (route <> "") "reuse: empty route";
  require (proposition <> "") "reuse: empty proposition";
  require (Float.is_finite slack && slack >= 0.) "reuse: negative slack"

let rec check_safe_proof ~max_nodes net din dout = function
  | Cert.P_chain chain ->
    let final = chain_steps net din chain in
    check_final final dout
  | Cert.P_split tree -> check_split ~max_nodes net din dout tree
  | Cert.P_lipschitz { old_din; chain; lip; kappa } ->
    check_lipschitz net din dout ~old_din ~chain ~lip ~kappa
  | Cert.P_milp_goals goals -> check_milp_goals ~max_nodes net din dout goals
  | Cert.P_reuse { route; proposition; slack; inner } ->
    check_reuse_frame ~route ~proposition ~slack;
    check_safe_proof ~max_nodes net din dout inner
  | p -> fail "proof kind %S cannot establish safety" (Cert.proof_kind p)

let rec check_unsafe_proof ~max_nodes net din dout = function
  | Cert.P_counterexample x -> check_counterexample net din dout x
  | Cert.P_reuse { route; proposition; slack; inner } ->
    check_reuse_frame ~route ~proposition ~slack;
    check_unsafe_proof ~max_nodes net din dout inner
  | p -> fail "proof kind %S cannot establish a violation" (Cert.proof_kind p)

(* Every side of a claim's boxes must be an interval of numbers,
   [lo <= hi], as {!Cv_interval.Interval.make} builds them: a NaN bound
   fails every comparison, so a check that skips an infinite side would
   read it as no bound at all. *)
let check_claim_boxes din dout =
  List.iter
    (fun (name, b) ->
      for k = 0 to Box.dim b - 1 do
        let iv = Box.get b k in
        require
          (Interval.lo iv <= Interval.hi iv)
          "claim %s side %d is not an interval of numbers" name k
      done)
    [ ("D_in", din); ("D_out", dout) ]

let check ?(max_split_nodes = 200_000) (cert : Cert.t) =
  match
    match (cert.claim, cert.proof) with
    | Cert.Network_safe { net; din; dout }, proof ->
      check_claim_boxes din dout;
      check_safe_proof ~max_nodes:max_split_nodes net din dout proof
    | Cert.Network_unsafe { net; din; dout }, proof ->
      check_claim_boxes din dout;
      check_unsafe_proof ~max_nodes:max_split_nodes net din dout proof
    | Cert.Lp_infeasible lp, Cert.P_farkas z ->
      check_system lp;
      check_farkas_sys lp lp.lp_b z
    | Cert.Lp_min_at_least (lp, target), Cert.P_dual { dual; bound } ->
      require (Float.is_finite bound) "dual: non-finite recorded bound";
      check_system lp;
      check_dual_sys lp lp.lp_b dual (Float.max target bound)
    | Cert.Milp_min_at_least { lp; binaries; target }, Cert.P_milp_tree tree ->
      check_milp_tree ~max_nodes:max_split_nodes lp binaries target tree
    | _, p ->
      fail "proof kind %S does not match the claim" (Cert.proof_kind p)
  with
  | () -> Valid
  | exception Reject msg -> Invalid msg
  | exception e -> Invalid (Printexc.to_string e)
