(* Tests for Cv_milp: branch-and-bound and the big-M ReLU encoding. *)

let check_float = Alcotest.(check (float 1e-5))

(* ------------------------------------------------------------------ *)
(* Branch & bound on hand-made MILPs                                   *)
(* ------------------------------------------------------------------ *)

let test_knapsack () =
  (* max 10a + 13b + 7c  s.t. 3a + 4b + 2c <= 5, binary: optimum 17
     (a=1, c=1; the 23-profit pair a+b needs weight 7 > 5). *)
  let p = Cv_milp.Milp.create () in
  let a = Cv_milp.Milp.add_binary p () in
  let b = Cv_milp.Milp.add_binary p () in
  let c = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (3., a); (4., b); (2., c) ] Cv_lp.Lp.Le 5.;
  match Cv_milp.Milp.maximize p [ (10., a); (13., b); (7., c) ] with
  | Cv_milp.Milp.Optimal s ->
    check_float "objective" 17. s.Cv_milp.Milp.objective;
    check_float "a" 1. s.Cv_milp.Milp.values.(a);
    check_float "b" 0. s.Cv_milp.Milp.values.(b);
    check_float "c" 1. s.Cv_milp.Milp.values.(c)
  | _ -> Alcotest.fail "expected optimal"

let test_mixed_integer () =
  (* max x + 10d s.t. x <= 3 + 2d, x ∈ [0, 10], d binary: optimum x=5,d=1 → 15 *)
  let p = Cv_milp.Milp.create () in
  let x = Cv_milp.Milp.add_var p ~lo:0. ~hi:10. () in
  let d = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (1., x); (-2., d) ] Cv_lp.Lp.Le 3.;
  match Cv_milp.Milp.maximize p [ (1., x); (10., d) ] with
  | Cv_milp.Milp.Optimal s -> check_float "objective" 15. s.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "expected optimal"

let test_milp_infeasible () =
  let p = Cv_milp.Milp.create () in
  let d = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (1., d) ] Cv_lp.Lp.Ge 2.;
  match Cv_milp.Milp.maximize p [ (1., d) ] with
  | Cv_milp.Milp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_cutoff_below () =
  (* optimum 17; cutoff 30 → Below_cutoff with bound in [17, 30]. *)
  let p = Cv_milp.Milp.create () in
  let a = Cv_milp.Milp.add_binary p () in
  let b = Cv_milp.Milp.add_binary p () in
  let c = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (3., a); (4., b); (2., c) ] Cv_lp.Lp.Le 5.;
  match
    Cv_milp.Milp.maximize ~cutoff:30. p [ (10., a); (13., b); (7., c) ]
  with
  | Cv_milp.Milp.Below_cutoff ub ->
    Alcotest.(check bool) "bound within [17, 30]" true
      (ub >= 17. -. 1e-5 && ub <= 30. +. 1e-6)
  | Cv_milp.Milp.Optimal s when s.Cv_milp.Milp.objective <= 30. -> ()
  | _ -> Alcotest.fail "expected below-cutoff style result"

let test_cutoff_reached () =
  (* optimum 17; cutoff 10 → some integer point above 10 must surface. *)
  let p = Cv_milp.Milp.create () in
  let a = Cv_milp.Milp.add_binary p () in
  let b = Cv_milp.Milp.add_binary p () in
  let c = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (3., a); (4., b); (2., c) ] Cv_lp.Lp.Le 5.;
  match
    Cv_milp.Milp.maximize ~cutoff:10. p [ (10., a); (13., b); (7., c) ]
  with
  | Cv_milp.Milp.Cutoff_reached s ->
    Alcotest.(check bool) "above cutoff" true (s.Cv_milp.Milp.objective > 10.)
  | _ -> Alcotest.fail "expected cutoff reached"

let test_minimize_milp () =
  (* min a + b s.t. a + b >= 1, binary: optimum 1. *)
  let p = Cv_milp.Milp.create () in
  let a = Cv_milp.Milp.add_binary p () in
  let b = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (1., a); (1., b) ] Cv_lp.Lp.Ge 1.;
  match Cv_milp.Milp.minimize p [ (1., a); (1., b) ] with
  | Cv_milp.Milp.Optimal s -> check_float "objective" 1. s.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "expected optimal"

(* Randomized: MILP optimum equals brute-force enumeration over binaries. *)
let milp_vs_bruteforce_prop =
  QCheck.Test.make ~name:"b&b matches brute force on binary programs"
    ~count:60
    QCheck.(pair (list_of_size (Gen.return 4) (float_range (-5.) 5.))
              (list_of_size (Gen.return 4) (float_range 0.5 3.)))
    (fun (profits, weights) ->
      let capacity = 4. in
      let p = Cv_milp.Milp.create () in
      let vars = List.map (fun _ -> Cv_milp.Milp.add_binary p ()) profits in
      Cv_milp.Milp.add_constraint p
        (List.map2 (fun w v -> (w, v)) weights vars)
        Cv_lp.Lp.Le capacity;
      let terms = List.map2 (fun c v -> (c, v)) profits vars in
      let best = ref Float.neg_infinity in
      for mask = 0 to 15 do
        let bit i = if mask land (1 lsl i) <> 0 then 1. else 0. in
        let w = List.fold_left ( +. ) 0. (List.mapi (fun i wi -> wi *. bit i) weights) in
        if w <= capacity +. 1e-9 then begin
          let v =
            List.fold_left ( +. ) 0. (List.mapi (fun i c -> c *. bit i) profits)
          in
          best := Float.max !best v
        end
      done;
      match Cv_milp.Milp.maximize p terms with
      | Cv_milp.Milp.Optimal s -> Float.abs (s.Cv_milp.Milp.objective -. !best) < 1e-5
      | _ -> false)

(* A cutoff query seeded with a feasible value above its cutoff must not
   report [Below_cutoff] with that value: the seed beats the cutoff. *)
let test_seed_above_cutoff () =
  (* max x s.t. x <= b, x in [0,1], b binary: optimum 1 *)
  let p = Cv_milp.Milp.create () in
  let x = Cv_milp.Milp.add_var p ~lo:0. ~hi:1. () in
  let b = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (1., x); (-1., b) ] Cv_lp.Lp.Le 0.;
  match Cv_milp.Milp.maximize ~cutoff:0.5 ~known_feasible:1. p [ (1., x) ] with
  | Cv_milp.Milp.Below_cutoff ub ->
    Alcotest.failf "Below_cutoff %g above the 0.5 cutoff" ub
  | Cv_milp.Milp.Optimal s -> check_float "the seed is optimal" 1. s.Cv_milp.Milp.objective
  | Cv_milp.Milp.Cutoff_reached s ->
    Alcotest.(check bool) "beats the cutoff" true (s.Cv_milp.Milp.objective > 0.5)
  | _ -> Alcotest.fail "expected an answer above the cutoff"

(* Brute-force optimum of [max profits·b s.t. weights·b <= 4] over
   binary [b], and the objective of the [pick]-th feasible point. *)
let knapsack_brute profits weights ~pick =
  let best = ref Float.neg_infinity and feasible = ref [] in
  for mask = 0 to 15 do
    let bit i = if mask land (1 lsl i) <> 0 then 1. else 0. in
    let dot c = List.fold_left ( +. ) 0. (List.mapi (fun i ci -> ci *. bit i) c) in
    if dot weights <= 4. +. 1e-9 then begin
      best := Float.max !best (dot profits);
      feasible := dot profits :: !feasible
    end
  done;
  (!best, List.nth !feasible (pick mod List.length !feasible))

let knapsack profits weights =
  let p = Cv_milp.Milp.create () in
  let vars = List.map (fun _ -> Cv_milp.Milp.add_binary p ()) profits in
  Cv_milp.Milp.add_constraint p
    (List.map2 (fun w v -> (w, v)) weights vars)
    Cv_lp.Lp.Le 4.;
  (p, List.map2 (fun c v -> (c, v)) profits vars)

(* [Below_cutoff ub] is a proof that the optimum is at most the cutoff:
   whatever the seed, [ub] never exceeds it. *)
let milp_below_cutoff_sound_prop =
  QCheck.Test.make ~name:"Below_cutoff never exceeds its cutoff" ~count:200
    QCheck.(
      quad
        (list_of_size (Gen.return 4) (float_range (-5.) 5.))
        (list_of_size (Gen.return 4) (float_range 0.5 3.))
        (float_range (-6.) 12.) small_nat)
    (fun (profits, weights, cutoff, pick) ->
      let best, seed = knapsack_brute profits weights ~pick in
      let p, terms = knapsack profits weights in
      match Cv_milp.Milp.maximize ~cutoff ~known_feasible:seed p terms with
      | Cv_milp.Milp.Below_cutoff ub -> ub <= cutoff +. 1e-7 && best <= cutoff +. 1e-6
      | Cv_milp.Milp.Optimal s -> Float.abs (s.Cv_milp.Milp.objective -. best) < 1e-6
      | Cv_milp.Milp.Cutoff_reached s ->
        s.Cv_milp.Milp.objective > cutoff && s.Cv_milp.Milp.objective <= best +. 1e-6
      | _ -> false)

(* Small mixed programs for the objective-swap checks: four binaries
   and one continuous variable, two rows satisfied at the origin. *)
let mixed_program rows =
  let rows = Array.of_list rows in
  let p = Cv_milp.Milp.create () in
  let bins = List.init 4 (fun _ -> Cv_milp.Milp.add_binary p ()) in
  let x = Cv_milp.Milp.add_var p ~lo:(-1.) ~hi:2. () in
  let vars = Array.of_list (bins @ [ x ]) in
  for k = 0 to 1 do
    Cv_milp.Milp.add_constraint p
      (List.init 5 (fun j -> (rows.((6 * k) + j), vars.(j))))
      Cv_lp.Lp.Le
      (Float.abs rows.((6 * k) + 5) +. 0.5)
  done;
  (p, vars)

let same_result a b =
  match (a, b) with
  | Cv_milp.Milp.Optimal sa, Cv_milp.Milp.Optimal sb ->
    Float.abs (sa.Cv_milp.Milp.objective -. sb.Cv_milp.Milp.objective) < 1e-6
  | Cv_milp.Milp.Infeasible, Cv_milp.Milp.Infeasible
  | Cv_milp.Milp.Unbounded, Cv_milp.Milp.Unbounded ->
    true
  | _ -> false

(* One problem answering a sequence of alternating max/min queries —
   each restarting from the previous root state — agrees with fresh
   problems built for every query. *)
let milp_alternating_prop =
  QCheck.Test.make ~name:"alternating max/min on one problem = fresh problems"
    ~count:80
    QCheck.(
      pair
        (list_of_size (Gen.return 12) (float_range (-3.) 3.))
        (list_of_size (Gen.return 20) (float_range (-5.) 5.)))
    (fun (rows, objs) ->
      let objs = Array.of_list objs in
      let shared, vars = mixed_program rows in
      List.for_all
        (fun k ->
          let terms = List.init 5 (fun j -> (objs.((5 * k) + j), vars.(j))) in
          let solve p =
            if k mod 2 = 0 then Cv_milp.Milp.maximize p terms
            else Cv_milp.Milp.minimize p terms
          in
          same_result (solve shared) (solve (fst (mixed_program rows))))
        [ 0; 1; 2; 3 ])

(* Model changes after a solve drop the cached root state: a new row
   and a new binary both shape the next answer. *)
let test_model_change_after_solve () =
  let p = Cv_milp.Milp.create () in
  let a = Cv_milp.Milp.add_binary p () in
  let b = Cv_milp.Milp.add_binary p () in
  let c = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (3., a); (4., b); (2., c) ] Cv_lp.Lp.Le 5.;
  let objective s = match s with
    | Cv_milp.Milp.Optimal s -> s.Cv_milp.Milp.objective
    | _ -> Alcotest.fail "expected optimal"
  in
  check_float "knapsack" 17.
    (objective (Cv_milp.Milp.maximize p [ (10., a); (13., b); (7., c) ]));
  Cv_milp.Milp.add_constraint p [ (1., a) ] Cv_lp.Lp.Le 0.;
  check_float "a forced out" 13.
    (objective (Cv_milp.Milp.maximize p [ (10., a); (13., b); (7., c) ]));
  let d = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (4., b); (5., d) ] Cv_lp.Lp.Le 5.;
  check_float "new binary" 27.
    (objective
       (Cv_milp.Milp.maximize p [ (10., a); (13., b); (7., c); (20., d) ]))

(* ------------------------------------------------------------------ *)
(* ReLU encoding                                                       *)
(* ------------------------------------------------------------------ *)

let fig2_net () =
  Cv_nn.Network.of_list
    [ Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 1.; -2. |]; [| -2.; 1. |]; [| 1.; -1. |] ])
        [| 0.; 0.; 0. |] Cv_nn.Activation.Relu;
      Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 2.; 2.; -1. |] ])
        [| 0. |] Cv_nn.Activation.Relu ]

(* The paper's Figure 2 example: exact max of n4 over the enlarged
   domain is 6.2 (< the interval bound 12.4). *)
let test_paper_example_62 () =
  let net = fig2_net () in
  let box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.1 in
  let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
  match Cv_milp.Relu_encoding.max_output enc ~output:0 with
  | Cv_milp.Milp.Optimal s -> check_float "max n4 = 6.2" 6.2 s.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "expected optimal"

let test_encoding_exact_vs_sampling () =
  (* Exact bounds must dominate sampled values and be attained nearby. *)
  let rng = Cv_util.Rng.create 77 in
  for seed = 1 to 4 do
    let net =
      Cv_nn.Network.random ~rng:(Cv_util.Rng.create seed) ~dims:[ 3; 6; 4; 1 ]
        ~act:Cv_nn.Activation.Relu ()
    in
    let box = Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:1. in
    let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
    let hi =
      match Cv_milp.Relu_encoding.max_output enc ~output:0 with
      | Cv_milp.Milp.Optimal s -> s.Cv_milp.Milp.objective
      | _ -> Alcotest.fail "max failed"
    in
    let lo =
      match Cv_milp.Relu_encoding.min_output enc ~output:0 with
      | Cv_milp.Milp.Optimal s -> s.Cv_milp.Milp.objective
      | _ -> Alcotest.fail "min failed"
    in
    let sampled_max = ref Float.neg_infinity and sampled_min = ref Float.infinity in
    for _ = 1 to 2000 do
      let y = (Cv_nn.Network.eval net (Cv_interval.Box.sample rng box)).(0) in
      sampled_max := Float.max !sampled_max y;
      sampled_min := Float.min !sampled_min y
    done;
    Alcotest.(check bool) "exact max >= sampled" true (hi >= !sampled_max -. 1e-6);
    Alcotest.(check bool) "exact min <= sampled" true (lo <= !sampled_min +. 1e-6);
    (* Exact bounds are inside the symint reach. *)
    let reach =
      Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint net box
    in
    Alcotest.(check bool) "within symint reach" true
      (Cv_interval.Interval.subset_tol ~tol:1e-6
         (Cv_interval.Interval.make lo hi)
         (Cv_interval.Box.get reach 0))
  done

let test_encoding_identity_and_stable () =
  (* A purely linear network: exact range = interval arithmetic. *)
  let net =
    Cv_nn.Network.of_list
      [ Cv_nn.Layer.make
          (Cv_linalg.Mat.of_rows [ [| 2.; -1. |] ])
          [| 3. |] Cv_nn.Activation.Identity ]
  in
  let box = Cv_interval.Box.uniform 2 ~lo:0. ~hi:1. in
  let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
  let _, _, binaries = Cv_milp.Relu_encoding.stats enc in
  Alcotest.(check int) "no binaries for linear net" 0 binaries;
  (match Cv_milp.Relu_encoding.max_output enc ~output:0 with
  | Cv_milp.Milp.Optimal s -> check_float "max 5" 5. s.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "max failed");
  match Cv_milp.Relu_encoding.min_output enc ~output:0 with
  | Cv_milp.Milp.Optimal s -> check_float "min 2" 2. s.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "min failed"

let test_encoding_leaky_relu () =
  let rng = Cv_util.Rng.create 31 in
  let net =
    Cv_nn.Network.random ~rng:(Cv_util.Rng.create 21) ~dims:[ 2; 5; 1 ]
      ~act:(Cv_nn.Activation.Leaky_relu 0.2) ()
  in
  let box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
  let hi =
    match Cv_milp.Relu_encoding.max_output enc ~output:0 with
    | Cv_milp.Milp.Optimal s -> s.Cv_milp.Milp.objective
    | _ -> Alcotest.fail "max failed"
  in
  let sampled = ref Float.neg_infinity in
  for _ = 1 to 3000 do
    let y = (Cv_nn.Network.eval net (Cv_interval.Box.sample rng box)).(0) in
    sampled := Float.max !sampled y
  done;
  Alcotest.(check bool) "leaky exact >= sampled" true (hi >= !sampled -. 1e-6);
  Alcotest.(check bool) "leaky exact close to sampled" true
    (hi <= !sampled +. 0.5)

let test_encoding_rejects_sigmoid () =
  let net =
    Cv_nn.Network.random ~rng:(Cv_util.Rng.create 1) ~dims:[ 2; 3; 1 ]
      ~act:Cv_nn.Activation.Sigmoid ()
  in
  try
    ignore
      (Cv_milp.Relu_encoding.encode ~net
         ~input_box:(Cv_interval.Box.uniform 2 ~lo:0. ~hi:1.));
    Alcotest.fail "should reject sigmoid"
  with Invalid_argument _ -> ()

let test_cutoff_decision_queries () =
  (* Decision-style use as in Containment: max <= theta? *)
  let net = fig2_net () in
  let box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.1 in
  let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
  (match Cv_milp.Relu_encoding.max_output enc ~output:0 ~cutoff:12. with
  | Cv_milp.Milp.Below_cutoff ub ->
    Alcotest.(check bool) "ub <= 12" true (ub <= 12. +. 1e-6)
  | Cv_milp.Milp.Optimal s ->
    Alcotest.(check bool) "optimal <= 12" true (s.Cv_milp.Milp.objective <= 12.)
  | _ -> Alcotest.fail "expected proof below cutoff");
  match Cv_milp.Relu_encoding.max_output enc ~output:0 ~cutoff:5. with
  | Cv_milp.Milp.Cutoff_reached s ->
    Alcotest.(check bool) "witness above 5" true (s.Cv_milp.Milp.objective > 5.)
  | Cv_milp.Milp.Optimal s ->
    Alcotest.(check bool) "optimum above 5" true (s.Cv_milp.Milp.objective > 5.)
  | _ -> Alcotest.fail "expected cutoff reached"

(* ------------------------------------------------------------------ *)
(* Parallel dives and iteration-limit degradation                      *)
(* ------------------------------------------------------------------ *)

(* The parallel node-batch mode must reproduce the sequential verdicts
   and objectives exactly (deterministic event replay). *)
let test_parallel_matches_sequential () =
  let knapsack () =
    let p = Cv_milp.Milp.create () in
    let vars = Array.init 8 (fun _ -> Cv_milp.Milp.add_binary p ()) in
    let weights = [| 3.; 4.; 2.; 5.; 1.; 6.; 2.; 3. |] in
    let profits = [| 10.; 13.; 7.; 11.; 2.; 15.; 5.; 8. |] in
    Cv_milp.Milp.add_constraint p
      (Array.to_list (Array.mapi (fun i v -> (weights.(i), v)) vars))
      Cv_lp.Lp.Le 12.;
    (p, Array.to_list (Array.mapi (fun i v -> (profits.(i), v)) vars))
  in
  let solve domains =
    let p, terms = knapsack () in
    Cv_milp.Milp.maximize ~domains p terms
  in
  (match (solve 1, solve 3) with
  | Cv_milp.Milp.Optimal s1, Cv_milp.Milp.Optimal s3 ->
    check_float "parallel = sequential optimum" s1.Cv_milp.Milp.objective
      s3.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "expected optimal from both searches");
  (* Figure 2 exact query, sequential vs 2 domains. *)
  let fig2_max domains =
    let net = fig2_net () in
    let box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.1 in
    let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
    Cv_milp.Relu_encoding.max_output ~domains enc ~output:0
  in
  match (fig2_max 1, fig2_max 2) with
  | Cv_milp.Milp.Optimal s1, Cv_milp.Milp.Optimal s2 ->
    check_float "fig2 sequential" 6.2 s1.Cv_milp.Milp.objective;
    check_float "fig2 parallel" 6.2 s2.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "expected optimal fig2 maxima"

(* A simplex iteration budget small enough to stall every node must
   degrade to [Timeout] (with an infinite bound — nothing certified),
   never raise. *)
let test_stalled_root_times_out () =
  let p = Cv_milp.Milp.create () in
  let a = Cv_milp.Milp.add_binary p () in
  let b = Cv_milp.Milp.add_binary p () in
  let c = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (3., a); (4., b); (2., c) ] Cv_lp.Lp.Le 5.;
  match Cv_milp.Milp.maximize ~max_iters:1 p [ (10., a); (13., b); (7., c) ] with
  | Cv_milp.Milp.Timeout { bound; incumbent } ->
    Alcotest.(check bool) "no certified bound" true (bound = Float.infinity);
    Alcotest.(check bool) "no incumbent" true (incumbent = None)
  | _ -> Alcotest.fail "expected Timeout when the root solve stalls"

let () =
  Alcotest.run "cv_milp"
    [ ( "branch-and-bound",
        [ Alcotest.test_case "knapsack" `Quick test_knapsack;
          Alcotest.test_case "mixed integer" `Quick test_mixed_integer;
          Alcotest.test_case "infeasible" `Quick test_milp_infeasible;
          Alcotest.test_case "cutoff below" `Quick test_cutoff_below;
          Alcotest.test_case "cutoff reached" `Quick test_cutoff_reached;
          Alcotest.test_case "minimize" `Quick test_minimize_milp;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "stalled root times out" `Quick
            test_stalled_root_times_out;
          Alcotest.test_case "seed above cutoff" `Quick test_seed_above_cutoff;
          Alcotest.test_case "model change after solve" `Quick
            test_model_change_after_solve;
          QCheck_alcotest.to_alcotest milp_vs_bruteforce_prop;
          QCheck_alcotest.to_alcotest milp_below_cutoff_sound_prop;
          QCheck_alcotest.to_alcotest milp_alternating_prop ] );
      ( "relu-encoding",
        [ Alcotest.test_case "paper fig2: max = 6.2" `Quick
            test_paper_example_62;
          Alcotest.test_case "exact vs sampling" `Quick
            test_encoding_exact_vs_sampling;
          Alcotest.test_case "linear network" `Quick
            test_encoding_identity_and_stable;
          Alcotest.test_case "leaky relu" `Quick test_encoding_leaky_relu;
          Alcotest.test_case "rejects sigmoid" `Quick
            test_encoding_rejects_sigmoid;
          Alcotest.test_case "cutoff decision queries" `Quick
            test_cutoff_decision_queries ] ) ]
