(* Tests for the proof-certificate pipeline: outward interval arithmetic
   (Cv_cert.Ival), the trusted checker (Cv_cert.Check), emission
   (Cv_cert.Emit, Cv_lp.Lp_cert, Cv_milp.Cert_bridge), the JSON codec,
   and — the soundness backbone — one guaranteed-invalid corruption per
   certificate kind that the checker must reject. *)

module Box = Cv_interval.Box
module Interval = Cv_interval.Interval
module Cert = Cv_cert.Cert
module Check = Cv_cert.Check
module Emit = Cv_cert.Emit
module Ival = Cv_cert.Ival
module Lp = Cv_lp.Lp
module Lp_cert = Cv_lp.Lp_cert
module Json = Cv_util.Json

let meta ~mode = (mode, "test", "v2:test")

let fig2_net () =
  Cv_nn.Network.of_list
    [ Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 1.; -2. |]; [| -2.; 1. |]; [| 1.; -1. |] ])
        [| 0.; 0.; 0. |] Cv_nn.Activation.Relu;
      Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 2.; 2.; -1. |] ])
        [| 0. |] Cv_nn.Activation.Relu ]

let fig2_din = Box.uniform 2 ~lo:(-1.) ~hi:1.

let check_valid what = function
  | Some cert -> (
    match Check.check cert with
    | Check.Valid -> cert
    | Check.Invalid r -> Alcotest.failf "%s rejected: %s" what r)
  | None -> Alcotest.failf "%s: emission failed" what

let expect_invalid what cert =
  match Check.check cert with
  | Check.Invalid _ -> ()
  | Check.Valid -> Alcotest.failf "%s: corrupted certificate accepted" what

let roundtrip cert =
  match Cert.of_json_result (Json.parse (Json.to_string (Cert.to_json cert))) with
  | Ok c -> c
  | Error e -> Alcotest.failf "codec round-trip failed: %s" e

(* ------------------------------------------------------------------ *)
(* Outward arithmetic                                                  *)
(* ------------------------------------------------------------------ *)

let test_ival_outward () =
  let rng = Cv_util.Rng.create 7 in
  for _ = 1 to 200 do
    let n = 1 + Cv_util.Rng.int rng 8 in
    let a = Array.init n (fun _ -> Cv_util.Rng.float rng ~lo:(-2.) ~hi:2.) in
    let z = Array.init n (fun _ -> Cv_util.Rng.float rng ~lo:(-2.) ~hi:2.) in
    let exact = ref 0. in
    Array.iteri (fun i x -> exact := !exact +. (x *. z.(i))) a;
    Alcotest.(check bool) "dot_up above" true (Ival.dot_up a z >= !exact);
    Alcotest.(check bool) "dot_dn below" true (Ival.dot_dn a z <= !exact)
  done;
  (* Zero coefficients must neutralise infinities. *)
  let inf = [| Float.infinity |] and zero = [| 0. |] in
  Alcotest.(check (float 0.)) "0*inf up" 0. (Ival.dot_up zero inf);
  Alcotest.(check (float 0.)) "0*inf dn" 0. (Ival.dot_dn zero inf)

let test_ival_network_contains_eval () =
  let net = Gen.net3 11 in
  let din = Box.uniform 3 ~lo:(-1.) ~hi:1. in
  let rng = Cv_util.Rng.create 3 in
  let chain = Emit.chain_boxes net din in
  let final = chain.(Array.length chain - 1) in
  for _ = 1 to 100 do
    let x = Box.sample rng din in
    let y = Cv_nn.Network.eval net x in
    Alcotest.(check bool) "eval inside outward chain" true
      (Box.mem y final)
  done

(* ------------------------------------------------------------------ *)
(* Chain / split / lipschitz / counterexample emission                 *)
(* ------------------------------------------------------------------ *)

let fig2_safe_cert ?max_depth ?max_leaves ~dout () =
  let mode, solver, fingerprint = meta ~mode:"verify" in
  Emit.safe_cert ?max_depth ?max_leaves ~mode ~solver ~fingerprint
    (fig2_net ()) ~din:fig2_din
    ~dout:(Box.of_bounds [| Float.neg_infinity |] [| dout |])

let test_chain_cert () =
  (* Interval arithmetic alone proves y ≤ 13 on fig2 (cf. the chaos
     suite's provable scenario). *)
  let cert = check_valid "chain" (fig2_safe_cert ~dout:13.1 ()) in
  Alcotest.(check string) "kind" "chain" (Cert.proof_kind cert.Cert.proof);
  ignore (check_valid "chain roundtrip" (Some (roundtrip cert)))

let test_split_cert () =
  (* y ≤ 9 needs case splitting: plain intervals give 12 on fig2. *)
  match fig2_safe_cert ~max_depth:0 ~dout:9. () with
  | Some _ -> Alcotest.fail "interval chain alone cannot prove y <= 9"
  | None ->
    let cert = check_valid "split" (fig2_safe_cert ~dout:9. ()) in
    Alcotest.(check string) "kind" "split" (Cert.proof_kind cert.Cert.proof);
    ignore (check_valid "split roundtrip" (Some (roundtrip cert)))

let test_lipschitz_cert () =
  let net = Gen.net3 5 in
  let old_din = Box.uniform 3 ~lo:0. ~hi:1. in
  let din = Box.expand 1e-4 old_din in
  let chain = Emit.chain_boxes net old_din in
  let dout = Box.expand 1.0 chain.(Array.length chain - 1) in
  let mode, solver, fingerprint = meta ~mode:"svudc" in
  let cert =
    check_valid "lipschitz"
      (Emit.lipschitz_cert ~mode ~solver ~fingerprint net ~old_din ~din ~dout)
  in
  Alcotest.(check string) "kind" "lipschitz" (Cert.proof_kind cert.Cert.proof);
  ignore (check_valid "lipschitz roundtrip" (Some (roundtrip cert)))

let test_counterexample_cert () =
  let net = fig2_net () in
  (* f(−1, 1) = 6 > 1, so [−1, 1] is violated at that input. *)
  let dout = Box.of_bounds [| -1. |] [| 1. |] in
  let mode, solver, fingerprint = meta ~mode:"verify" in
  let cert =
    check_valid "counterexample"
      (Emit.unsafe_cert ~mode ~solver ~fingerprint net ~din:fig2_din ~dout
         ~x:[| -1.; 1. |])
  in
  ignore (check_valid "cex roundtrip" (Some (roundtrip cert)));
  (* A point whose output is inside D_out must not certify. *)
  Alcotest.(check bool) "inside point refused" true
    (Emit.unsafe_cert ~mode ~solver ~fingerprint net ~din:fig2_din ~dout
       ~x:[| 0.; 0. |]
    = None)

let test_reuse_cert () =
  let cert = check_valid "chain" (fig2_safe_cert ~dout:13.1 ()) in
  let wrapped =
    check_valid "reuse"
      (Emit.reuse_cert ~route:"prop1" ~proposition:"Proposition 1" ~slack:0.1
         cert)
  in
  Alcotest.(check string) "kind" "reuse" (Cert.proof_kind wrapped.Cert.proof)

(* ------------------------------------------------------------------ *)
(* LP and MILP witnesses                                               *)
(* ------------------------------------------------------------------ *)

(* x + y ≤ 1 ∧ x + y ≥ 2 is infeasible. *)
let infeasible_problem () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lo:0. ~hi:10. ()
  and y = Lp.add_var p ~lo:0. ~hi:10. () in
  Lp.add_constraint p [ (1., x); (1., y) ] Lp.Le 1.;
  Lp.add_constraint p [ (1., x); (1., y) ] Lp.Ge 2.;
  Lp.set_objective p ~maximize:false [ (1., x) ];
  p

(* min x + 2y s.t. x + y ≥ 1, bounds [0, 10]: optimum 1. *)
let feasible_problem () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lo:0. ~hi:10. ()
  and y = Lp.add_var p ~lo:0. ~hi:10. () in
  Lp.add_constraint p [ (1., x); (1., y) ] Lp.Ge 1.;
  Lp.set_objective p ~maximize:false [ (1., x); (2., y) ];
  p

let lp_cert_of problem ~mode =
  let compiled = Lp.compile problem in
  let mode, solver, fingerprint = meta ~mode in
  Lp_cert.lp_certificate ~mode ~solver ~fingerprint compiled

let test_lp_farkas_cert () =
  let cert = check_valid "farkas" (lp_cert_of (infeasible_problem ()) ~mode:"lp") in
  Alcotest.(check string) "kind" "farkas" (Cert.proof_kind cert.Cert.proof);
  ignore (check_valid "farkas roundtrip" (Some (roundtrip cert)))

let test_lp_dual_cert () =
  let cert = check_valid "dual" (lp_cert_of (feasible_problem ()) ~mode:"lp") in
  Alcotest.(check string) "kind" "dual" (Cert.proof_kind cert.Cert.proof);
  (match cert.Cert.claim with
  | Cert.Lp_min_at_least (_, t) ->
    Alcotest.(check bool) "bound near optimum" true (Float.abs (t -. 1.) < 1e-6)
  | _ -> Alcotest.fail "wrong claim");
  ignore (check_valid "dual roundtrip" (Some (roundtrip cert)))

(* min x + 2 b s.t. x ≥ 1.5 − 3 b, x ∈ [0, 10], b binary.
   b = 0 → min 1.5; b = 1 → min 2. MILP optimum 1.5, relaxation ≈ 1
   (fractional b), so the tree must branch. *)
let milp_compiled () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lo:0. ~hi:10. () in
  let b = Lp.add_var p ~lo:0. ~hi:1. () in
  Lp.add_constraint p [ (1., x); (3., b) ] Lp.Ge 1.5;
  Lp.set_objective p ~maximize:false [ (1., x); (2., b) ];
  (Lp.compile ~fixable:[ b ] p, [ b ])

let test_milp_tree_cert () =
  let compiled, binaries = milp_compiled () in
  let mode, solver, fingerprint = meta ~mode:"milp" in
  let cert =
    check_valid "milp-tree"
      (Lp_cert.milp_certificate ~mode ~solver ~fingerprint compiled ~binaries)
  in
  Alcotest.(check string) "kind" "milp-tree" (Cert.proof_kind cert.Cert.proof);
  (match cert.Cert.claim with
  | Cert.Milp_min_at_least { target; _ } ->
    Alcotest.(check bool) "proves the integral optimum" true
      (target > 1.4 && target <= 1.5)
  | _ -> Alcotest.fail "wrong claim");
  (match cert.Cert.proof with
  | Cert.P_milp_tree (Cert.Milp_branch _) -> ()
  | _ -> Alcotest.fail "expected a branching tree");
  ignore (check_valid "milp roundtrip" (Some (roundtrip cert)))

let test_milp_goals_cert () =
  let net = fig2_net () in
  let din = fig2_din in
  let dout = Box.of_bounds [| -0.5 |] [| 12.5 |] in
  let mode, solver, fingerprint = meta ~mode:"verify" in
  let cert =
    check_valid "milp-goals"
      (Cv_milp.Cert_bridge.safe_cert ~mode ~solver ~fingerprint net ~din
         ~dout)
  in
  Alcotest.(check string) "kind" "milp-goals" (Cert.proof_kind cert.Cert.proof);
  ignore (check_valid "goals roundtrip" (Some (roundtrip cert)))

(* ------------------------------------------------------------------ *)
(* MILP goal trees stop at the D_out bound                             *)
(* ------------------------------------------------------------------ *)

(* The seeded 4×5×5×1 nets of the certify benchmark, over D_in =
   [−1, 1]⁴. *)
let bench_net seed = Gen.net_of seed [ 4; 5; 5; 1 ]

let bench_din = Box.uniform 4 ~lo:(-1.) ~hi:1.

let exact_range net ~din =
  (Cv_verify.Range.exact_range net ~din).Cv_verify.Range.range

let goals_cert net ~din ~dout =
  let mode, solver, fingerprint = meta ~mode:"verify" in
  Cv_milp.Cert_bridge.safe_cert ~mode ~solver ~fingerprint net ~din ~dout

let rec tree_nodes = function
  | Cert.Milp_leaf _ -> 1
  | Cert.Milp_branch { zero; one; _ } -> 1 + tree_nodes zero + tree_nodes one

(* A node closes once its witness reaches D_out's bound, so the trees
   are far smaller than the optimum's: 247 and 81 nodes for net 0 of
   seed 1 when every leaf had to be integral. *)
let test_goal_tree_sizes () =
  let net = bench_net 1000003 in
  let dout = Box.expand 0.01 (exact_range net ~din:bench_din) in
  let cert =
    check_valid "net 0 goals" (goals_cert net ~din:bench_din ~dout)
  in
  match cert.Cert.proof with
  | Cert.P_milp_goals goals ->
    let size side =
      match
        List.find_opt (fun (g : Cert.milp_goal) -> g.Cert.mg_side = side) goals
      with
      | Some g -> tree_nodes g.Cert.mg_tree
      | None -> Alcotest.fail "missing goal"
    in
    Alcotest.(check int) "upper goal nodes" 15 (size `Upper);
    Alcotest.(check int) "lower goal nodes" 3 (size `Lower)
  | _ -> Alcotest.fail "expected milp goals"

(* Net 13 of seed 3 needed 605 upper-goal nodes to reach integral
   leaves; stopping at the bound fits the default 512-node budget. The
   seed-1 nets 0–16 close some leaves on a warm Farkas ray (nets 7 and
   16 among them), whose orientation the checker replays. *)
let test_goal_default_budget () =
  List.iter
    (fun seed ->
      let net = bench_net seed in
      let dout = Box.expand 0.01 (exact_range net ~din:bench_din) in
      ignore
        (check_valid (Printf.sprintf "net %d goals" seed)
           (goals_cert net ~din:bench_din ~dout)))
    (3000022 :: List.init 17 (fun k -> 1000003 + k))

(* Moving either side of D_out 0.01 inside the exact range makes that
   side false: some integral node falls short of the target. *)
let test_goal_refuses_false_side () =
  let net = bench_net 1000003 in
  let exact = exact_range net ~din:bench_din in
  let lo = (Box.lower exact).(0) and hi = (Box.upper exact).(0) in
  List.iter
    (fun (what, lo, hi) ->
      let dout = Box.of_bounds [| lo |] [| hi |] in
      Alcotest.(check bool) what true
        (goals_cert net ~din:bench_din ~dout = None))
    [ ("upper inside", lo -. 0.01, hi -. 0.01);
      ("lower inside", lo +. 0.01, hi +. 0.01) ]

(* Random small ReLU nets (2–4 inputs, at most 8 hidden neurons, so at
   most 8 binaries and a full tree within the default budget), D_out =
   exact range ± m: the certificate exists, checks Valid, and sampled
   outputs stay inside D_out. *)
let goals_random_prop =
  let gen =
    QCheck.Gen.(
      map
        (fun (seed, (d_in, h1, h2, d_out), m) ->
          (seed, [ d_in; h1 ] @ h2 @ [ d_out ], m))
        (triple (int_bound 1_000_000)
           (quad (int_range 2 4) (int_range 1 5)
              (oneof [ return []; map (fun h -> [ h ]) (int_range 1 3) ])
              (int_range 1 2))
           (float_range 1e-3 0.5)))
  in
  let print (seed, dims, m) =
    Printf.sprintf "seed %d dims [%s] margin %g" seed
      (String.concat ";" (List.map string_of_int dims))
      m
  in
  QCheck.Test.make ~name:"milp goal certificates on random nets" ~count:100
    (QCheck.make ~print gen)
    (fun (seed, dims, m) ->
      let net = Gen.net_of seed dims in
      let din = Box.uniform (List.hd dims) ~lo:(-1.) ~hi:1. in
      let dout = Box.expand m (exact_range net ~din) in
      (match goals_cert net ~din ~dout with
      | None -> QCheck.Test.fail_report "no certificate"
      | Some cert -> (
        match Check.check cert with
        | Check.Valid -> ()
        | Check.Invalid r -> QCheck.Test.fail_reportf "rejected: %s" r));
      let rng = Cv_util.Rng.create seed in
      for _ = 1 to 1000 do
        let y = Cv_nn.Network.eval net (Box.sample rng din) in
        if not (Box.mem_tol ~tol:1e-9 y dout) then
          QCheck.Test.fail_report "sampled output outside D_out"
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Corruption rejection — one guaranteed-invalid mutation per kind     *)
(* ------------------------------------------------------------------ *)

let degenerate_last_box chain =
  let chain = Array.copy chain in
  let last = chain.(Array.length chain - 1) in
  let c = Box.center last in
  chain.(Array.length chain - 1) <- Box.point c;
  chain

let test_reject_chain () =
  let cert = check_valid "chain" (fig2_safe_cert ~dout:13.1 ()) in
  match cert.Cert.proof with
  | Cert.P_chain chain ->
    expect_invalid "chain"
      { cert with Cert.proof = Cert.P_chain (degenerate_last_box chain) }
  | _ -> Alcotest.fail "expected chain"

let test_reject_split () =
  let cert = check_valid "split" (fig2_safe_cert ~dout:9. ()) in
  match cert.Cert.proof with
  | Cert.P_split (Cert.Split_node { at; below; above; axis = _ }) ->
    expect_invalid "split axis"
      { cert with
        Cert.proof =
          Cert.P_split (Cert.Split_node { axis = 99; at; below; above })
      }
  | _ -> Alcotest.fail "expected split node"

let test_reject_lipschitz () =
  let net = Gen.net3 5 in
  let old_din = Box.uniform 3 ~lo:0. ~hi:1. in
  let din = Box.expand 1e-4 old_din in
  let chain = Emit.chain_boxes net old_din in
  let dout = Box.expand 1.0 chain.(Array.length chain - 1) in
  let mode, solver, fingerprint = meta ~mode:"svudc" in
  let cert =
    check_valid "lipschitz"
      (Emit.lipschitz_cert ~mode ~solver ~fingerprint net ~old_din ~din ~dout)
  in
  match cert.Cert.proof with
  | Cert.P_lipschitz { old_din; chain; lip; kappa } ->
    expect_invalid "lipschitz chain"
      { cert with
        Cert.proof =
          Cert.P_lipschitz
            { old_din; chain = degenerate_last_box chain; lip; kappa }
      }
  | _ -> Alcotest.fail "expected lipschitz"

let test_reject_counterexample () =
  let net = fig2_net () in
  let dout = Box.of_bounds [| -1. |] [| 1. |] in
  let mode, solver, fingerprint = meta ~mode:"verify" in
  let cert =
    check_valid "cex"
      (Emit.unsafe_cert ~mode ~solver ~fingerprint net ~din:fig2_din ~dout
         ~x:[| -1.; 1. |])
  in
  expect_invalid "cex outside din"
    { cert with Cert.proof = Cert.P_counterexample [| 7.; 0. |] }

let test_reject_farkas () =
  let cert = check_valid "farkas" (lp_cert_of (infeasible_problem ()) ~mode:"lp") in
  match cert.Cert.proof with
  | Cert.P_farkas z ->
    expect_invalid "farkas zeroed"
      { cert with Cert.proof = Cert.P_farkas (Array.map (fun _ -> 0.) z) }
  | _ -> Alcotest.fail "expected farkas"

let test_reject_dual () =
  let cert = check_valid "dual" (lp_cert_of (feasible_problem ()) ~mode:"lp") in
  match cert.Cert.proof with
  | Cert.P_dual { dual; bound } ->
    expect_invalid "dual bound inflated"
      { cert with
        Cert.proof = Cert.P_dual { dual; bound = bound +. 1e9 }
      }
  | _ -> Alcotest.fail "expected dual"

let test_reject_milp_tree () =
  let compiled, binaries = milp_compiled () in
  let mode, solver, fingerprint = meta ~mode:"milp" in
  let cert =
    check_valid "milp-tree"
      (Lp_cert.milp_certificate ~mode ~solver ~fingerprint compiled ~binaries)
  in
  match cert.Cert.claim with
  | Cert.Milp_min_at_least { lp; binaries; target } ->
    (* The feasible MILP has dual leaves, so an inflated target must
       break at least one of them. *)
    expect_invalid "milp target inflated"
      { cert with
        Cert.claim =
          Cert.Milp_min_at_least { lp; binaries; target = target +. 1e9 }
      }
  | _ -> Alcotest.fail "expected milp claim"

let test_reject_milp_goals () =
  let net = fig2_net () in
  let dout = Box.of_bounds [| -0.5 |] [| 12.5 |] in
  let mode, solver, fingerprint = meta ~mode:"verify" in
  let cert =
    check_valid "goals"
      (Cv_milp.Cert_bridge.safe_cert ~mode ~solver ~fingerprint net
         ~din:fig2_din ~dout)
  in
  match cert.Cert.proof with
  | Cert.P_milp_goals goals ->
    let tampered =
      List.map
        (fun (g : Cert.milp_goal) ->
          { g with Cert.mg_const = g.Cert.mg_const +. 1e9 })
        goals
    in
    expect_invalid "goal const shifted"
      { cert with Cert.proof = Cert.P_milp_goals tampered }
  | _ -> Alcotest.fail "expected goals"

(* An honest goal certificate over a seeded net, with one D_out side
   then set to NaN: the checker must refuse the claim rather than read
   the NaN as an absent bound. *)
let test_reject_nan_claim () =
  let net = bench_net 1000003 in
  let dout = Box.expand 0.01 (exact_range net ~din:bench_din) in
  let cert = check_valid "goals" (goals_cert net ~din:bench_din ~dout) in
  let nan_side upper =
    let lo = (Box.lower dout).(0) and hi = (Box.upper dout).(0) in
    Box.of_json
      (Json.List
         [ Json.List
             (if upper then [ Json.Num lo; Json.Num Float.nan ]
              else [ Json.Num Float.nan; Json.Num hi ]) ])
  in
  match cert.Cert.claim with
  | Cert.Network_safe { net; din; _ } ->
    List.iter
      (fun (what, upper) ->
        expect_invalid what
          { cert with
            Cert.claim = Cert.Network_safe { net; din; dout = nan_side upper } })
      [ ("NaN upper D_out side", true); ("NaN lower D_out side", false) ]
  | _ -> Alcotest.fail "expected a safety claim"

let test_reject_reuse () =
  let cert = check_valid "chain" (fig2_safe_cert ~dout:13.1 ()) in
  let wrapped =
    check_valid "reuse"
      (Emit.reuse_cert ~route:"prop1" ~proposition:"Proposition 1" ~slack:0.1
         cert)
  in
  match wrapped.Cert.proof with
  | Cert.P_reuse { route; proposition; inner; slack = _ } ->
    expect_invalid "negative slack"
      { wrapped with
        Cert.proof = Cert.P_reuse { route; proposition; slack = -1.; inner }
      }
  | _ -> Alcotest.fail "expected reuse"

let test_reject_kind_mismatch () =
  let cert = check_valid "chain" (fig2_safe_cert ~dout:13.1 ()) in
  match (lp_cert_of (infeasible_problem ()) ~mode:"lp" : Cert.t option) with
  | Some lp ->
    expect_invalid "safety claim with farkas proof"
      { cert with Cert.proof = lp.Cert.proof }
  | None -> Alcotest.fail "farkas emission failed"

(* ------------------------------------------------------------------ *)
(* Acceptance-scale emission: the 32×256³×1 net                        *)
(* ------------------------------------------------------------------ *)

let test_big_net_chain () =
  let net = Gen.net_of 1 [ 32; 256; 256; 256; 1 ] in
  let din = Box.uniform 32 ~lo:(-1.) ~hi:1. in
  let chain = Emit.chain_boxes net din in
  let dout = Box.expand 1.0 chain.(Array.length chain - 1) in
  let mode, solver, fingerprint = meta ~mode:"verify" in
  let cert =
    check_valid "big chain"
      (Emit.safe_cert ~mode ~solver ~fingerprint net ~din ~dout)
  in
  (* And the codec survives ~770 boxes of 256 floats. *)
  ignore (check_valid "big roundtrip" (Some (roundtrip cert)))

let () =
  Alcotest.run "cert"
    [ ( "ival",
        [ Alcotest.test_case "outward dots" `Quick test_ival_outward;
          Alcotest.test_case "network enclosure" `Quick
            test_ival_network_contains_eval ] );
      ( "emit",
        [ Alcotest.test_case "chain" `Quick test_chain_cert;
          Alcotest.test_case "split" `Quick test_split_cert;
          Alcotest.test_case "lipschitz" `Quick test_lipschitz_cert;
          Alcotest.test_case "counterexample" `Quick test_counterexample_cert;
          Alcotest.test_case "reuse" `Quick test_reuse_cert ] );
      ( "lp",
        [ Alcotest.test_case "farkas" `Quick test_lp_farkas_cert;
          Alcotest.test_case "dual" `Quick test_lp_dual_cert;
          Alcotest.test_case "milp tree" `Quick test_milp_tree_cert;
          Alcotest.test_case "milp goals" `Quick test_milp_goals_cert ] );
      ( "milp goals",
        [ Alcotest.test_case "tree sizes" `Quick test_goal_tree_sizes;
          Alcotest.test_case "default budget" `Quick test_goal_default_budget;
          Alcotest.test_case "refuses a false side" `Quick
            test_goal_refuses_false_side;
          QCheck_alcotest.to_alcotest goals_random_prop ] );
      ( "reject",
        [ Alcotest.test_case "chain" `Quick test_reject_chain;
          Alcotest.test_case "split" `Quick test_reject_split;
          Alcotest.test_case "lipschitz" `Quick test_reject_lipschitz;
          Alcotest.test_case "counterexample" `Quick
            test_reject_counterexample;
          Alcotest.test_case "farkas" `Quick test_reject_farkas;
          Alcotest.test_case "dual" `Quick test_reject_dual;
          Alcotest.test_case "milp tree" `Quick test_reject_milp_tree;
          Alcotest.test_case "milp goals" `Quick test_reject_milp_goals;
          Alcotest.test_case "NaN claim bound" `Quick test_reject_nan_claim;
          Alcotest.test_case "reuse" `Quick test_reject_reuse;
          Alcotest.test_case "kind mismatch" `Quick
            test_reject_kind_mismatch ] );
      ( "scale",
        [ Alcotest.test_case "32x256^3x1 chain" `Quick test_big_net_chain ] )
    ]
