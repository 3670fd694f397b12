module Ival = Cv_cert.Ival
module Cert = Cv_cert.Cert

type extraction = { ex_witness : Cert.lp_witness; ex_value : float }

let snapshot compiled =
  let st = Lp.compiled_state compiled in
  {
    Cert.lp_a = Simplex.system_rows st;
    lp_b = Simplex.system_rhs st;
    lp_c = Simplex.system_obj st;
    lp_xu = Lp.compiled_uppers compiled;
  }

(* Outward validation — the same obligations {!Cv_cert.Check} replays. *)
let column_dot_up (a : float array array) j z =
  let s = ref 0. in
  Array.iteri
    (fun i row ->
      if row.(j) <> 0. then s := Ival.up (!s +. Ival.up (row.(j) *. z.(i))))
    a;
  !s

(* Neumaier–Shcherbina compensation, mirroring {!Cv_cert.Check}: a
   basic column binds its dual inequality exactly, so outward rounding
   leaves a few-ulp residual of the wrong sign; charge it its worst
   case over the column's [0, xu] range instead of rejecting. *)
let valid_farkas (sys : Cert.lp_system) b z =
  let n = Array.length sys.lp_c in
  let s = ref 0. in
  let ok = ref (Ival.all_finite z) in
  for j = 0 to n - 1 do
    let cu = column_dot_up sys.lp_a j z in
    if cu > 0. then
      if sys.lp_xu.(j) < Float.infinity then
        s := Ival.up (!s +. Ival.up (cu *. sys.lp_xu.(j)))
      else ok := false
  done;
  !ok && Ival.dot_dn b z > !s

(* The compensated weak-duality bound — exactly the value the checker
   recomputes, so using it as the claim target is replay-stable. *)
let dual_bound (sys : Cert.lp_system) b z =
  let n = Array.length sys.lp_c in
  let ok = ref (Ival.all_finite z) in
  let bound = ref (Ival.dot_dn b z) in
  for j = 0 to n - 1 do
    let r_lo = Ival.dn (sys.lp_c.(j) -. column_dot_up sys.lp_a j z) in
    if r_lo < 0. then
      if sys.lp_xu.(j) < Float.infinity then
        bound := Ival.dn (!bound +. Ival.dn (r_lo *. sys.lp_xu.(j)))
      else ok := false
  done;
  if !ok && Float.is_finite !bound then Some !bound else None

(* The last verdict's witness ({!Simplex.witness}), validated against
   [sys]'s matrix and objective with the state's current rhs — a
   branch-tree leaf's own rhs, while [sys] is its goal's base
   snapshot. *)
let extract (sys : Cert.lp_system) st =
  let b = Simplex.system_rhs st in
  match Simplex.witness st with
  | Some (Simplex.Ray z) when valid_farkas sys b z ->
    Some { ex_witness = Cert.Farkas z; ex_value = Float.infinity }
  | Some (Simplex.Dual y) ->
    Option.map
      (fun v -> { ex_witness = Cert.Dual_bound y; ex_value = v })
      (dual_bound sys b y)
  | Some (Simplex.Ray _) | None -> None

let validated cert =
  match Cv_cert.Check.check cert with
  | Cv_cert.Check.Valid -> Some cert
  | Invalid _ -> None

let lp_certificate ?max_iters ~mode ~solver ~fingerprint compiled =
  let sys = snapshot compiled in
  match Lp.solve_compiled ?max_iters compiled with
  | Lp.Unbounded | Lp.Stalled -> None
  | Lp.Optimal _ | Lp.Infeasible ->
    Option.bind (extract sys (Lp.compiled_state compiled)) (fun ex ->
        let claim, proof =
          match ex.ex_witness with
          | Cert.Farkas z -> (Cert.Lp_infeasible sys, Cert.P_farkas z)
          | Cert.Dual_bound z ->
            ( Cert.Lp_min_at_least (sys, ex.ex_value),
              Cert.P_dual { dual = z; bound = ex.ex_value } )
        in
        validated { Cert.mode; solver; fingerprint; claim; proof })

type branch_result = {
  br_system : Cert.lp_system;
  br_binaries : Cert.milp_binary array;
  br_tree : Cert.milp_tree;
  br_bound : float;
}

exception Give_up

let branch_and_certify ?(max_nodes = 512) ?max_iters ?target compiled
    ~binaries =
  let binaries = Array.of_list binaries in
  let relax_all () =
    Array.iter
      (fun v -> Lp.set_bounds_compiled compiled v ~lo:0. ~hi:1.)
      binaries
  in
  match
    let bins =
      Array.map
        (fun v ->
          match Lp.compiled_fix_rows compiled v with
          | Some (ub, lb, shift) ->
            { Cert.bin_ub_row = ub; bin_lb_row = lb; bin_shift = shift }
          | None -> raise Give_up)
        binaries
    in
    relax_all ();
    (* The certificate's base system: every binary relaxed to [0, 1];
       the checker re-derives each leaf's rhs from the path fixings.
       The compile-time column bounds stay valid at every leaf — rhs
       tightening only shrinks the feasible set. *)
    let st = Lp.compiled_state compiled in
    let base = snapshot compiled in
    (* Nodes are solved in the model's frame; [std] maps a model
       objective back to the standard form the target lives in. With a
       target, a warm solve may stop as soon as weak duality puts the
       node a hair past it. *)
    let sign, shift = Lp.compiled_frame compiled in
    let std v = (sign *. v) -. shift in
    let bound_cutoff =
      Option.map
        (fun t -> sign *. (t +. (1e-6 *. (1. +. Float.abs t)) +. shift))
        target
    in
    let reaches v = match target with Some t -> v >= t | None -> true in
    let nodes = ref 0 in
    let bound = ref Float.infinity in
    let is_frac x = Float.abs (x -. Float.round x) > 1e-6 in
    let leaf () =
      match extract base st with
      | Some ex when reaches ex.ex_value ->
        bound := Float.min !bound ex.ex_value;
        Some (Cert.Milp_leaf ex.ex_witness)
      | Some _ | None -> None
    in
    (* An integral node short of the target is a counterexample to the
       claim, and a witness that fails validation ends the search too. *)
    let close () = match leaf () with Some l -> l | None -> raise Give_up in
    let rec go fixings remaining =
      incr nodes;
      if !nodes > max_nodes then raise Give_up;
      List.iter
        (fun (k, v) ->
          Lp.set_bounds_compiled compiled binaries.(k) ~lo:v ~hi:v)
        fixings;
      (* Branch on the first fractional binary of an optimal node. *)
      let split values =
        match
          List.find_opt (fun k -> is_frac values.(binaries.(k))) remaining
        with
        | None -> close ()
        | Some k ->
          let rest = List.filter (( <> ) k) remaining in
          let node v =
            let t = go ((k, v) :: fixings) rest in
            Lp.set_bounds_compiled compiled binaries.(k) ~lo:0. ~hi:1.;
            t
          in
          let zero = node 0. in
          let one = node 1. in
          Cert.Milp_branch { bin = k; zero; one }
      in
      match Lp.solve_compiled ?max_iters ?bound_cutoff compiled with
      | Lp.Infeasible -> close ()
      | Lp.Unbounded | Lp.Stalled -> raise Give_up
      | Lp.Optimal { objective; values } -> (
        match target with
        | Some t when std objective >= t -> (
          (* The node may already be closed at the target. Its values
             can come from a solve stopped at the cutoff, so a node
             that falls short after validation is first solved to
             optimality. *)
          match leaf () with
          | Some l -> l
          | None -> (
            match Lp.solve_compiled ?max_iters compiled with
            | Lp.Optimal { values; _ } -> split values
            | Lp.Infeasible -> close ()
            | Lp.Unbounded | Lp.Stalled -> raise Give_up))
        | Some _ | None -> split values)
    in
    let all = List.init (Array.length binaries) Fun.id in
    let tree = go [] all in
    relax_all ();
    (* With every leaf infeasible the claim holds vacuously. *)
    let vacuous = Option.value target ~default:0. in
    { br_system = base; br_binaries = bins; br_tree = tree;
      br_bound = (if !bound = Float.infinity then vacuous else !bound) }
  with
  | r -> Some r
  | exception Give_up ->
    relax_all ();
    None

let milp_certificate ?max_nodes ?max_iters ~mode ~solver ~fingerprint
    compiled ~binaries =
  Option.bind (branch_and_certify ?max_nodes ?max_iters compiled ~binaries)
    (fun br ->
      validated
        {
          Cert.mode;
          solver;
          fingerprint;
          claim =
            Cert.Milp_min_at_least
              {
                lp = br.br_system;
                binaries = br.br_binaries;
                target = br.br_bound;
              };
          proof = Cert.P_milp_tree br.br_tree;
        })
