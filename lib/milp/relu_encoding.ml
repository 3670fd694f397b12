(** Big-M MILP encoding of piecewise-linear network slices.

    This is the paper's "exact method" (cf. Equation (2)): the
    nonlinearity of each unstable ReLU is encoded with one binary
    variable and big-M constraints, with the big-M values taken from a
    sound symbolic-interval pre-analysis (tight Ms keep branch-and-bound
    shallow).

    The encoding is {e compact}: stable neurons introduce no variables at
    all — every neuron's value is carried as an affine expression over
    the base variables (network inputs plus the post-activation variables
    of unstable neurons), so the LP relaxations solved inside
    branch-and-bound stay small and contain only inequality rows (whose
    slacks give the simplex a ready-made feasible basis). Branch-and-bound
    is additionally seeded with the best concrete network value found by
    sampling, which prunes early.

    Only piecewise-linear activations (ReLU, Leaky ReLU, Identity) are
    supported; sigmoid/tanh slices must go through the abstract domains
    instead. *)

(** Affine expression over LP variables. *)
type expr = { terms : (float * Cv_lp.Lp.var) list; const : float }

type encoding = {
  problem : Milp.problem;
  net : Cv_nn.Network.t;
  input_box : Cv_interval.Box.t;
  input_vars : Cv_lp.Lp.var array;
  outputs : expr array;  (** affine expressions of the output neurons *)
  pre_bounds : Cv_interval.Box.t array;  (** per-layer pre-activation bounds *)
  seeds : (float * Cv_linalg.Vec.t) array array;
      (** per output: [(max_seed, input); (min_seed, input)] from sampling *)
}

let check_encodable net =
  Array.iter
    (fun (l : Cv_nn.Layer.t) ->
      if not (Cv_nn.Activation.is_piecewise_linear l.Cv_nn.Layer.act) then
        invalid_arg
          ("Relu_encoding: activation not piecewise linear: "
          ^ Cv_nn.Activation.to_string l.Cv_nn.Layer.act))
    (Cv_nn.Network.layers net)

(* Combine [Σ_j w_j · expr_j + bias] into one expression, merging
   duplicate variables. *)
let affine_combine row exprs bias =
  let acc = Hashtbl.create 16 in
  let const = ref bias in
  Array.iteri
    (fun j w ->
      if w <> 0. then begin
        let e = exprs.(j) in
        const := !const +. (w *. e.const);
        List.iter
          (fun (c, v) ->
            let cur = try Hashtbl.find acc v with Not_found -> 0. in
            Hashtbl.replace acc v (cur +. (w *. c)))
          e.terms
      end)
    row;
  let terms = Hashtbl.fold (fun v c l -> if c = 0. then l else (c, v) :: l) acc [] in
  { terms; const = !const }

let scale_expr s e =
  { terms = List.map (fun (c, v) -> (s *. c, v)) e.terms; const = s *. e.const }


(* y (op) e + shift  ⟺  y − e.terms (op) e.const + shift *)
let constrain problem ~y_terms op e ~shift =
  Milp.add_constraint problem
    (y_terms @ List.map (fun (c, v) -> (-.c, v)) e.terms)
    op (e.const +. shift)

(* Encode y = act(z) for an unstable piecewise-linear neuron:
   z ∈ [l, u] with l < 0 < u, slope = negative-side slope. *)
let encode_unstable problem ~slope ~z_expr ~l ~u ~name =
  let open Cv_lp.Lp in
  let y = Milp.add_var problem ~lo:(slope *. l) ~hi:u ~name () in
  let delta = Milp.add_binary problem ~name:(name ^ "_d") () in
  (* y ≥ z  and  y ≥ slope·z *)
  constrain problem ~y_terms:[ (1., y) ] Ge z_expr ~shift:0.;
  constrain problem ~y_terms:[ (1., y) ] Ge (scale_expr slope z_expr) ~shift:0.;
  (* y ≤ z − (1−slope)·l·(1−δ) *)
  let oml = (1. -. slope) *. l in
  constrain problem
    ~y_terms:[ (1., y); (-.oml, delta) ]
    Le z_expr ~shift:(-.oml);
  (* y ≤ slope·z + (1−slope)·u·δ *)
  let omu = (1. -. slope) *. u in
  constrain problem
    ~y_terms:[ (1., y); (-.omu, delta) ]
    Le (scale_expr slope z_expr) ~shift:0.;
  { terms = [ (1., y) ]; const = 0. }

(** [encode ~net ~input_box] builds the exact MILP of the slice [net]
    over [input_box]. *)
let encode ~net ~input_box =
  check_encodable net;
  let problem = Milp.create () in
  let in_dim = Cv_nn.Network.in_dim net in
  if Cv_interval.Box.dim input_box <> in_dim then
    invalid_arg "Relu_encoding.encode: input box dimension";
  let input_vars =
    Array.init in_dim (fun j ->
        let iv = Cv_interval.Box.get input_box j in
        Milp.add_var problem
          ~lo:(Cv_interval.Interval.lo iv)
          ~hi:(Cv_interval.Interval.hi iv)
          ~name:(Printf.sprintf "in%d" j) ())
  in
  let n = Cv_nn.Network.num_layers net in
  let pre_bounds = Array.make n [||] in
  let sym = ref (Cv_domains.Symint.of_box input_box) in
  let exprs =
    ref (Array.map (fun v -> { terms = [ (1., v) ]; const = 0. }) input_vars)
  in
  for i = 0 to n - 1 do
    let layer = Cv_nn.Network.layer net i in
    let w = layer.Cv_nn.Layer.weights and bias = layer.Cv_nn.Layer.bias in
    let pre_sym = Cv_domains.Symint.affine w bias !sym in
    let pre_box = Cv_domains.Symint.to_box pre_sym in
    pre_bounds.(i) <- pre_box;
    let slope =
      match layer.Cv_nn.Layer.act with
      | Cv_nn.Activation.Relu -> 0.
      | Cv_nn.Activation.Leaky_relu s -> s
      | Cv_nn.Activation.Identity -> 1.
      | _ -> assert false
    in
    let out_dim = Cv_nn.Layer.out_dim layer in
    exprs :=
      Array.init out_dim (fun r ->
          let z_expr = affine_combine (Cv_linalg.Mat.row w r) !exprs bias.(r) in
          let iv = Cv_interval.Box.get pre_box r in
          let l = Cv_interval.Interval.lo iv
          and u = Cv_interval.Interval.hi iv in
          if slope = 1. || l >= 0. then z_expr
          else if u <= 0. then scale_expr slope z_expr
          else
            encode_unstable problem ~slope ~z_expr ~l ~u
              ~name:(Printf.sprintf "y%d_%d" i r));
    sym := Cv_domains.Symint.apply_layer layer !sym
  done;
  (* Concrete sampling seeds: best/worst observed value per output. *)
  let rng = Cv_util.Rng.create 61 in
  let out_dim = Cv_nn.Network.out_dim net in
  let seeds =
    let center = Cv_interval.Box.center input_box in
    let points =
      center :: List.init 32 (fun _ -> Cv_interval.Box.sample rng input_box)
    in
    let best = Array.map (fun _ -> ((Float.neg_infinity, [||]), (Float.infinity, [||])))
        (Array.make out_dim ()) in
    List.iter
      (fun x ->
        let y = Cv_nn.Network.eval net x in
        Array.iteri
          (fun o yo ->
            let (hi, hx), (lo, lx) = best.(o) in
            let hi' = if yo > hi then (yo, x) else (hi, hx) in
            let lo' = if yo < lo then (yo, x) else (lo, lx) in
            best.(o) <- (hi', lo'))
          y)
      points;
    Array.map (fun ((hi, hx), (lo, lx)) -> [| (hi, hx); (lo, lx) |]) best
  in
  { problem; net; input_box; input_vars; outputs = !exprs; pre_bounds; seeds }

(* Lift a Milp result over [terms] back to the expression [e] (adds the
   constant) and substitute seeded values when branch-and-bound never
   produced an explicit incumbent. *)
let lift_result e ~seed_input ~in_dim = function
  | Milp.Optimal s when Array.length s.Milp.values = 0 ->
    (* Branch-and-bound closed on the sampling seed: the optimum equals
       the seed value and the seed input is its witness. *)
    if Array.length seed_input = in_dim then
      Milp.Optimal
        { Milp.objective = s.Milp.objective +. e.const;
          values = Array.copy seed_input }
    else Milp.Optimal { s with Milp.objective = s.Milp.objective +. e.const }
  | Milp.Optimal s ->
    Milp.Optimal { s with Milp.objective = s.Milp.objective +. e.const }
  | Milp.Cutoff_reached s ->
    Milp.Cutoff_reached { s with Milp.objective = s.Milp.objective +. e.const }
  | Milp.Below_cutoff ub -> Milp.Below_cutoff (ub +. e.const)
  | Milp.Infeasible -> Milp.Infeasible
  | Milp.Unbounded -> Milp.Unbounded
  | Milp.Timeout { bound; incumbent } ->
    Milp.Timeout
      { bound = bound +. e.const;
        incumbent =
          Option.map
            (fun s -> { s with Milp.objective = s.Milp.objective +. e.const })
            incumbent }

(** [max_output ?deadline ?cutoff ?domains enc ~output] maximises one
    output neuron over the encoded set (exactly — the sampling seed only
    accelerates pruning). [domains > 1] parallelises the
    branch-and-bound dives. A seed above [cutoff] returns
    [Cutoff_reached] with the seed input as [values]. *)
let max_output ?deadline ?cutoff ?domains ?checkpoint ?resume enc ~output =
  let e = enc.outputs.(output) in
  let seed_val, seed_input = enc.seeds.(output).(0) in
  match cutoff with
  | Some t when seed_val > t +. 1e-7 ->
    (* The seed is a concrete network value: beating the cutoff (by the
       solver's own margin) it answers the decision query, witness
       included. *)
    Milp.Cutoff_reached
      { Milp.objective = seed_val; values = Array.copy seed_input }
  | _ ->
    let cutoff' = Option.map (fun t -> t -. e.const) cutoff in
    (* The seed is a feasible value, so the optimum is ≥ seed: it prunes
       as the incumbent floor ([known_feasible]). *)
    Milp.maximize ?deadline ?cutoff:cutoff' ?domains ?checkpoint ?resume
      ~known_feasible:(seed_val -. e.const)
      enc.problem e.terms
    |> lift_result e ~seed_input ~in_dim:(Array.length enc.input_vars)

(** [min_output ?deadline ?cutoff ?domains enc ~output] minimises one
    output neuron; a seed below [cutoff] returns [Cutoff_reached] with
    the seed input. *)
let min_output ?deadline ?cutoff ?domains ?checkpoint ?resume enc ~output =
  let e = enc.outputs.(output) in
  let seed_val, seed_input = enc.seeds.(output).(1) in
  match cutoff with
  | Some t when seed_val < t -. 1e-7 ->
    Milp.Cutoff_reached
      { Milp.objective = seed_val; values = Array.copy seed_input }
  | _ ->
    let cutoff' = Option.map (fun t -> t -. e.const) cutoff in
    Milp.minimize ?deadline ?cutoff:cutoff' ?domains ?checkpoint ?resume
      ~known_feasible:(seed_val -. e.const)
      enc.problem e.terms
    |> lift_result e ~seed_input ~in_dim:(Array.length enc.input_vars)

(** [stats enc] is [(vars, constraints, binaries)] for reports. *)
let stats enc =
  ( Milp.var_count enc.problem,
    Milp.constraint_count enc.problem,
    Milp.binary_count enc.problem )
