(* Tests for the query modules on top of containment: local robustness
   (Cv_verify.Robustness) and argmax/advisory properties
   (Cv_verify.Argmax). *)

let net3 = Gen.net3

(* ------------------------------------------------------------------ *)
(* Robustness                                                          *)
(* ------------------------------------------------------------------ *)

let test_robustness_holds_small_eps () =
  let net = net3 3 in
  let x = [| 0.5; 0.5; 0.5 |] in
  let q = { Cv_verify.Robustness.x; epsilon = 1e-4; delta = 0.5 } in
  (match Cv_verify.Robustness.check Cv_verify.Containment.Milp net q with
  | Cv_verify.Containment.Proved -> ()
  | _ -> Alcotest.fail "tiny ball must be robust");
  (* Sampling confirms. *)
  let rng = Cv_util.Rng.create 5 in
  let y = (Cv_nn.Network.eval net x).(0) in
  for _ = 1 to 500 do
    let x' = Cv_interval.Box.sample rng (Cv_verify.Robustness.ball q) in
    Alcotest.(check bool) "within delta" true
      (Float.abs ((Cv_nn.Network.eval net x').(0) -. y) <= q.Cv_verify.Robustness.delta)
  done

let test_robustness_fails_large_eps () =
  let net = net3 3 in
  let q =
    { Cv_verify.Robustness.x = [| 0.5; 0.5; 0.5 |]; epsilon = 5.; delta = 1e-6 }
  in
  match Cv_verify.Robustness.check Cv_verify.Containment.Milp net q with
  | Cv_verify.Containment.Proved -> Alcotest.fail "must not be robust"
  | _ -> ()

let test_robustness_lipschitz_condition () =
  let net = net3 3 in
  let ell = Cv_lipschitz.Lipschitz.global ~norm:Cv_lipschitz.Lipschitz.Linf net in
  let q =
    { Cv_verify.Robustness.x = [| 0.5; 0.5; 0.5 |];
      epsilon = 0.001;
      delta = ell *. 0.001 *. 1.01 }
  in
  Alcotest.(check bool) "ell*eps <= delta" true
    (Cv_verify.Robustness.check_lipschitz ~ell q);
  Alcotest.(check bool) "fails when budget below ell*eps" false
    (Cv_verify.Robustness.check_lipschitz ~ell
       { q with Cv_verify.Robustness.delta = ell *. 0.001 /. 2. })

let test_robustness_transfer () =
  let net = net3 7 in
  let net' =
    Cv_nn.Network.map_layers
      (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create 9) ~sigma:0.0005)
      net
  in
  let q =
    { Cv_verify.Robustness.x = [| 0.5; 0.5; 0.5 |]; epsilon = 0.01; delta = 0.5 }
  in
  let residual = Cv_verify.Robustness.transfer_budget ~old_net:net ~new_net:net' q in
  Alcotest.(check bool) "residual below delta" true
    (residual < q.Cv_verify.Robustness.delta);
  Alcotest.(check bool) "residual positive for small drift" true (residual > 0.);
  match
    Cv_verify.Robustness.check_transfer Cv_verify.Containment.Milp ~old_net:net
      ~new_net:net' q
  with
  | Cv_verify.Containment.Proved ->
    (* Then f' really is robust: sample check. *)
    let rng = Cv_util.Rng.create 11 in
    let y = (Cv_nn.Network.eval net' q.Cv_verify.Robustness.x).(0) in
    for _ = 1 to 500 do
      let x' = Cv_interval.Box.sample rng (Cv_verify.Robustness.ball q) in
      Alcotest.(check bool) "transferred robustness sound" true
        (Float.abs ((Cv_nn.Network.eval net' x').(0) -. y)
        <= q.Cv_verify.Robustness.delta +. 1e-9)
    done
  | _ -> () (* transfer may honestly fail *)

let test_certified_radius () =
  let net = net3 13 in
  let x = [| 0.5; 0.5; 0.5 |] in
  let delta = 0.2 in
  let r = Cv_verify.Robustness.certified_radius net ~x ~delta in
  Alcotest.(check bool) "positive radius" true (r > 0.);
  (* The certified radius must itself verify. *)
  match
    Cv_verify.Robustness.check Cv_verify.Containment.Milp net
      { Cv_verify.Robustness.x; epsilon = r; delta }
  with
  | Cv_verify.Containment.Proved -> ()
  | _ -> Alcotest.fail "certified radius must verify"

(* ------------------------------------------------------------------ *)
(* Argmax                                                              *)
(* ------------------------------------------------------------------ *)

(* A hand-made 2-in 3-out network where output ordering is controlled:
   s = W x + b with no hidden layer. *)
let linear_scores w b =
  Cv_nn.Network.make
    [| Cv_nn.Layer.make (Cv_linalg.Mat.of_rows w) b Cv_nn.Activation.Identity |]

let region2 = Cv_interval.Box.uniform 2 ~lo:0. ~hi:1.

let test_difference_network () =
  let net =
    linear_scores [ [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] ] [| 0.; 0.; 0. |]
  in
  let diff = Cv_verify.Argmax.difference_network net ~output:0 in
  Alcotest.(check int) "two differences" 2 (Cv_nn.Network.out_dim diff);
  let d = Cv_nn.Network.eval diff [| 0.3; 0.4 |] in
  (* s = (0.3, 0.4, 0.7): s1−s0 = 0.1, s2−s0 = 0.4 *)
  Alcotest.(check (float 1e-9)) "d0" 0.1 d.(0);
  Alcotest.(check (float 1e-9)) "d1" 0.4 d.(1)

let test_always_maximal () =
  (* s2 = x0 + x1 + 10 dominates everywhere on [0,1]^2. *)
  let net =
    linear_scores [ [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] ] [| 0.; 0.; 10. |]
  in
  (match
     Cv_verify.Argmax.always_maximal Cv_verify.Containment.Milp net ~output:2
       ~region:region2 ~margin:1.
   with
  | Cv_verify.Argmax.Holds -> ()
  | _ -> Alcotest.fail "s2 dominates");
  match
    Cv_verify.Argmax.always_maximal Cv_verify.Containment.Milp net ~output:0
      ~region:region2 ~margin:0.
  with
  | Cv_verify.Argmax.Fails x ->
    Alcotest.(check bool) "witness in region" true
      (Cv_interval.Box.mem_tol ~tol:1e-9 x region2)
  | _ -> Alcotest.fail "s0 does not dominate"

let test_never_maximal () =
  let net =
    linear_scores [ [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] ] [| 0.; 0.; 10. |]
  in
  (* s0 can never beat s2 (gap at least 9). *)
  (match
     Cv_verify.Argmax.never_maximal Cv_verify.Containment.Milp net ~output:0
       ~region:region2 ~margin:1.
   with
  | Cv_verify.Argmax.Holds -> ()
  | _ -> Alcotest.fail "s0 never maximal");
  (* s2 IS maximal somewhere (everywhere): Fails with witness. *)
  match
    Cv_verify.Argmax.never_maximal Cv_verify.Containment.Milp net ~output:2
      ~region:region2 ~margin:0.
  with
  | Cv_verify.Argmax.Fails _ -> ()
  | _ -> Alcotest.fail "s2 is maximal somewhere"

let test_score_gap () =
  let net =
    linear_scores [ [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] ] [| 0.; 0.; 10. |]
  in
  (* For output 2: max_j≠2 (s_j − s_2) = max(x0, x1) − (x0+x1) − 10 ≤ −10. *)
  let gap = Cv_verify.Argmax.score_gap net ~output:2 ~region:region2 in
  Alcotest.(check bool) "certified margin ~ -10" true
    (gap <= -9.99 && gap >= -10.01);
  (* For output 0 the gap is large and positive. *)
  let gap0 = Cv_verify.Argmax.score_gap net ~output:0 ~region:region2 in
  Alcotest.(check bool) "positive gap for dominated advisory" true (gap0 > 9.)

let test_argmax_on_relu_net () =
  (* Sanity on a nonlinear multi-output net: verdicts must be consistent
     with sampling. *)
  let net =
    Cv_nn.Network.random ~rng:(Cv_util.Rng.create 21) ~dims:[ 3; 6; 3 ]
      ~act:Cv_nn.Activation.Relu ()
  in
  let region = Cv_interval.Box.uniform 3 ~lo:0. ~hi:1. in
  for output = 0 to 2 do
    match
      Cv_verify.Argmax.never_maximal Cv_verify.Containment.Milp net ~output
        ~region ~margin:0.
    with
    | Cv_verify.Argmax.Holds ->
      (* sampling must find no argmax point *)
      let rng = Cv_util.Rng.create 23 in
      for _ = 1 to 1000 do
        let x = Cv_interval.Box.sample rng region in
        let s = Cv_nn.Network.eval net x in
        Alcotest.(check bool) "never argmax confirmed" false
          (Array.for_all (fun v -> s.(output) >= v) s)
      done
    | Cv_verify.Argmax.Fails x ->
      let s = Cv_nn.Network.eval net x in
      Alcotest.(check bool) "witness really argmax" true
        (Array.for_all (fun v -> s.(output) >= v) s)
    | Cv_verify.Argmax.Unknown _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Metamorphic oracles: domain-change monotonicity                     *)
(* ------------------------------------------------------------------ *)

(* The sound directions of the D_in metamorphic relation:

   - abstract domains never report false-unsafe, so a property proved
     on a widened D_in must hold for the {e true} behaviour on every
     sub-box: widening can only weaken verdicts (safe → safe|unknown),
     never flip safe → unsafe;
   - for the box domain the abstract verdict itself is monotone:
     proved on a widened D_in implies proved on any sub-box (shrinking
     only strengthens). Symint and zonotope reaches are not isotone
     (see [reach_monotone]), so for them the shrink check holds only up
     to the 0.05 slack it adds. DeepPoly is deliberately excluded from
     the strict direction: its relaxation-slope choice flips with the
     pre-activation bounds, so a narrower input can get a looser bound —
     only the soundness direction is a theorem there;
   - for the exact engine, a counterexample on a narrow D_in lives in
     every wider D_in, so Violated can only persist under widening
     (unsafe never heals into safe). *)

let meta_domains =
  [ Cv_domains.Analyzer.Symint;
    Cv_domains.Analyzer.Zonotope;
    Cv_domains.Analyzer.Deeppoly ]

let shrink_domains =
  [ Cv_domains.Analyzer.Box;
    Cv_domains.Analyzer.Symint;
    Cv_domains.Analyzer.Zonotope ]

let meta_gen =
  (* network seed, box placement, widening amounts: din ⊆ wide1 ⊆ wide2 *)
  QCheck.(
    quad (int_range 0 1000)
      (float_range (-0.5) 0.5)
      (float_range 0.01 0.3) (float_range 0.01 0.3))

let abstract_widening_never_unsafe_prop =
  QCheck.Test.make
    ~name:"abstract: proved on widened D_in is truly safe on every sub-box"
    ~count:25 meta_gen
    (fun (seed, center, w1, w2) ->
      let net = net3 seed in
      let din = Cv_interval.Box.uniform 3 ~lo:(center -. 0.3) ~hi:(center +. 0.3) in
      let wider = Cv_interval.Box.expand (w1 +. w2) din in
      List.for_all
        (fun domain ->
          let dout =
            Cv_interval.Box.expand 0.05
              (Cv_domains.Analyzer.output_box domain net wider)
          in
          (not (Cv_domains.Analyzer.verify domain net ~din:wider ~dout))
          ||
          (* Ground truth on the widened box — and with it every
             sub-box — must agree: sampling may never find a
             counterexample to a proved property. *)
          let rng = Cv_util.Rng.create (seed + 1) in
          List.for_all
            (fun box ->
              List.for_all
                (fun _ ->
                  let x = Cv_interval.Box.sample rng box in
                  Cv_interval.Box.mem_tol ~tol:1e-9 (Cv_nn.Network.eval net x)
                    dout)
                (List.init 100 Fun.id))
            [ din; wider ])
        meta_domains)

let abstract_shrink_strengthens_prop =
  QCheck.Test.make
    ~name:"abstract: proved on widened D_in implies proved on sub-box"
    ~count:25 meta_gen
    (fun (seed, center, w1, w2) ->
      let net = net3 seed in
      let din = Cv_interval.Box.uniform 3 ~lo:(center -. 0.3) ~hi:(center +. 0.3) in
      let wide = Cv_interval.Box.expand w1 din in
      let wider = Cv_interval.Box.expand (w1 +. w2) din in
      List.for_all
        (fun domain ->
          (* A dout proved on the widest box (its own over-approximation
             plus slack) must be proved on every sub-box. *)
          let dout =
            Cv_interval.Box.expand 0.05
              (Cv_domains.Analyzer.output_box domain net wider)
          in
          List.for_all
            (fun narrow ->
              (not (Cv_domains.Analyzer.verify domain net ~din:wider ~dout))
              || Cv_domains.Analyzer.verify domain net ~din:narrow ~dout)
            [ din; wide ])
        shrink_domains)

(* Under D_in widening the box reach is monotone. Symint and zonotope
   reaches are not: their relaxations follow the pre-activation bounds,
   so a wider box can get a tighter bound on one side (the fixed cases
   below). What reuse needs of them holds all the same: the reach over
   each box contains the exact range over the narrower one. *)
let reach_monotone (seed, center, w1, w2) =
  let net = net3 seed in
  let din = Cv_interval.Box.uniform 3 ~lo:(center -. 0.3) ~hi:(center +. 0.3) in
  let wide = Cv_interval.Box.expand w1 din in
  let wider = Cv_interval.Box.expand (w1 +. w2) din in
  let reach domain b = Cv_domains.Analyzer.output_box domain net b in
  let exact b = (Cv_verify.Range.exact_range net ~din:b).Cv_verify.Range.range in
  let box = reach Cv_domains.Analyzer.Box in
  Cv_interval.Box.subset_tol ~tol:1e-9 (box din) (box wide)
  && Cv_interval.Box.subset_tol ~tol:1e-9 (box wide) (box wider)
  && List.for_all
       (fun domain ->
         Cv_interval.Box.subset_tol ~tol:1e-9 (exact din) (reach domain wide)
         && Cv_interval.Box.subset_tol ~tol:1e-9 (exact wide)
              (reach domain wider))
       [ Cv_domains.Analyzer.Symint; Cv_domains.Analyzer.Zonotope ]

let abstract_reach_monotone_prop =
  QCheck.Test.make
    ~name:"abstract: reachable set monotone under D_in widening" ~count:25
    meta_gen reach_monotone

(* Inputs where the zonotope lower bound over [din] (0.07177) is below
   the one over [wide] (0.07248), and where the symint upper bound over
   [wide] (0.13877) is above the one over [wider] (0.13394). *)
let test_reach_not_isotone () =
  List.iter
    (fun case ->
      Alcotest.(check bool) "reach contains the narrower exact range" true
        (reach_monotone case))
    [ (286, 0.403571662609, 0.0367200528808, 0.287338429689);
      (465, -0.447996050696, 0.0638227176472, 0.0274409290426) ]

let exact_widen_keeps_counterexample_prop =
  QCheck.Test.make
    ~name:"exact: violated on narrow D_in stays violated when widened"
    ~count:10
    QCheck.(pair (int_range 0 1000) (float_range 0.01 0.25))
    (fun (seed, w) ->
      let net = net3 seed in
      let din = Cv_interval.Box.uniform 3 ~lo:0. ~hi:1. in
      (* A target strictly inside the exact range is falsifiable. *)
      let r = (Cv_verify.Range.exact_range net ~din).Cv_verify.Range.range in
      let lo = (Cv_interval.Box.lower r).(0)
      and hi = (Cv_interval.Box.upper r).(0) in
      QCheck.assume (hi -. lo > 1e-6);
      let c = (lo +. hi) /. 2. and q = (hi -. lo) /. 8. in
      let target = Cv_interval.Box.of_bounds [| c -. q |] [| c +. q |] in
      let check box =
        Cv_verify.Containment.check Cv_verify.Containment.Milp net
          ~input_box:box ~target
      in
      match check din with
      | Cv_verify.Containment.Violated v ->
        (* The recorded witness carries over verbatim ... *)
        let wide = Cv_interval.Box.expand w din in
        Cv_interval.Box.mem_tol ~tol:1e-9 v.Cv_verify.Falsify.input wide
        &&
        (* ... and the widened query agrees. *)
        (match check wide with
        | Cv_verify.Containment.Violated _ -> true
        | _ -> false)
      | _ -> QCheck.assume_fail ())

let () =
  Alcotest.run "cv_queries"
    [ ( "robustness",
        [ Alcotest.test_case "holds small eps" `Quick
            test_robustness_holds_small_eps;
          Alcotest.test_case "fails large eps" `Quick
            test_robustness_fails_large_eps;
          Alcotest.test_case "lipschitz condition" `Quick
            test_robustness_lipschitz_condition;
          Alcotest.test_case "transfer across fine-tuning" `Quick
            test_robustness_transfer;
          Alcotest.test_case "certified radius" `Quick test_certified_radius ] );
      ( "argmax",
        [ Alcotest.test_case "difference network" `Quick
            test_difference_network;
          Alcotest.test_case "always maximal" `Quick test_always_maximal;
          Alcotest.test_case "never maximal" `Quick test_never_maximal;
          Alcotest.test_case "score gap" `Quick test_score_gap;
          Alcotest.test_case "relu net consistency" `Quick
            test_argmax_on_relu_net ] );
      ( "metamorphic",
        [ QCheck_alcotest.to_alcotest abstract_widening_never_unsafe_prop;
          QCheck_alcotest.to_alcotest abstract_shrink_strengthens_prop;
          QCheck_alcotest.to_alcotest abstract_reach_monotone_prop;
          Alcotest.test_case "reach not isotone: zonotope 286, symint 465"
            `Quick test_reach_not_isotone;
          QCheck_alcotest.to_alcotest exact_widen_keeps_counterexample_prop ] ) ]
