(* Tests for Cv_verify.Split_cert (bisection-tree proof artifacts) and
   the SVbTV leaf-reuse route built on them. *)

let fig2_net () =
  Cv_nn.Network.of_list
    [ Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 1.; -2. |]; [| -2.; 1. |]; [| 1.; -1. |] ])
        [| 0.; 0.; 0. |] Cv_nn.Activation.Relu;
      Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 2.; 2.; -1. |] ])
        [| 0. |] Cv_nn.Activation.Relu ]

let fig2_box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.

(* Exact max over the box is 6, one-shot symint gives more: a target of
   [0, 6.5] forces real splitting. *)
let tight_target = Cv_interval.Box.of_bounds [| -0.5 |] [| 6.5 |]

let test_prove_with_splitting () =
  let net = fig2_net () in
  match Cv_verify.Split_cert.prove net ~input_box:fig2_box ~target:tight_target with
  | None -> Alcotest.fail "should prove 6.5 with splitting"
  | Some cert ->
    Alcotest.(check bool) "needed splitting" true
      (Cv_verify.Split_cert.num_leaves cert > 1);
    (* Leaves cover the input box. *)
    let rng = Cv_util.Rng.create 4 in
    for _ = 1 to 1000 do
      let x = Cv_interval.Box.sample rng fig2_box in
      Alcotest.(check bool) "covered" true
        (Array.exists
           (fun leaf -> Cv_interval.Box.mem_tol ~tol:1e-9 x leaf)
           cert.Cv_verify.Split_cert.leaves)
    done;
    (* Self-revalidation succeeds. *)
    Alcotest.(check bool) "revalidate self" true
      (Cv_verify.Split_cert.revalidate cert net)

let test_prove_no_split_needed () =
  let net = fig2_net () in
  let loose = Cv_interval.Box.of_bounds [| -1. |] [| 20. |] in
  match Cv_verify.Split_cert.prove net ~input_box:fig2_box ~target:loose with
  | Some cert ->
    Alcotest.(check int) "single leaf" 1 (Cv_verify.Split_cert.num_leaves cert)
  | None -> Alcotest.fail "loose target must be provable"

let test_prove_fails_on_false_property () =
  let net = fig2_net () in
  let false_target = Cv_interval.Box.of_bounds [| -0.5 |] [| 3. |] in
  Alcotest.(check bool) "cannot prove falsity" true
    (Cv_verify.Split_cert.prove ~budget:2000 net ~input_box:fig2_box
       ~target:false_target
    = None)

let test_revalidate_perturbed_soundness () =
  let net = fig2_net () in
  let cert =
    Option.get
      (Cv_verify.Split_cert.prove net ~input_box:fig2_box ~target:tight_target)
  in
  let rng = Cv_util.Rng.create 7 in
  for trial = 1 to 10 do
    let net' =
      Cv_nn.Network.map_layers
        (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create (trial * 3)) ~sigma:0.01)
        net
    in
    if Cv_verify.Split_cert.revalidate cert net' then
      (* Accepted: the property must really hold for net'. *)
      for _ = 1 to 300 do
        let x = Cv_interval.Box.sample rng fig2_box in
        Alcotest.(check bool) "revalidation sound" true
          (Cv_interval.Box.mem_tol ~tol:1e-7 (Cv_nn.Network.eval net' x)
             tight_target)
      done
  done

let test_repair () =
  let net = fig2_net () in
  let cert =
    Option.get
      (Cv_verify.Split_cert.prove net ~input_box:fig2_box ~target:tight_target)
  in
  (* A moderate perturbation: some leaves may fail; repair should
     re-split them and produce a valid certificate for net'. *)
  let net' =
    Cv_nn.Network.map_layers
      (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create 5) ~sigma:0.03)
      net
  in
  match Cv_verify.Split_cert.repair cert net' with
  | None -> () (* genuinely unprovable for net' — acceptable *)
  | Some cert' ->
    Alcotest.(check bool) "repaired validates" true
      (Cv_verify.Split_cert.revalidate cert' net');
    let rng = Cv_util.Rng.create 11 in
    for _ = 1 to 500 do
      let x = Cv_interval.Box.sample rng fig2_box in
      Alcotest.(check bool) "repaired sound" true
        (Cv_interval.Box.mem_tol ~tol:1e-7 (Cv_nn.Network.eval net' x)
           tight_target)
    done

(* Fig. 2 network with the first layer's weights scaled by [f]: ReLU is
   positively homogeneous, so every output scales by exactly [f] — a
   deterministic drift that fails precisely the leaves whose output
   bound sat close to the target. *)
let fig2_net_scaled f =
  Cv_nn.Network.of_list
    [ Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows
           [ [| f; -2. *. f |]; [| -2. *. f; f |]; [| f; -.f |] ])
        [| 0.; 0.; 0. |] Cv_nn.Activation.Relu;
      Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 2.; 2.; -1. |] ])
        [| 0. |] Cv_nn.Activation.Relu ]

(* Regression: repair used to grant each failed leaf the full split
   budget (worst case |failed| x budget). The budget is now shared: the
   whole repair may spend at most [budget] new splits, observable via
   the splitcert.splits counter. *)
let test_repair_shares_budget () =
  let net = fig2_net () in
  (* Exact max over the box is 6; the near-exact target needs real
     splitting and leaves no slack for drift. *)
  let target = Cv_interval.Box.of_bounds [| -0.01 |] [| 6.05 |] in
  let cert =
    Option.get (Cv_verify.Split_cert.prove net ~input_box:fig2_box ~target)
  in
  Alcotest.(check bool) "multi-leaf certificate" true
    (Cv_verify.Split_cert.num_leaves cert > 2);
  (* Scaling by 1.02 pushes the true max to 6.12 > 6.05: the property is
     genuinely false for net', so every failed leaf would, under the old
     per-leaf grant, burn a full budget of its own. *)
  let net' = fig2_net_scaled 1.02 in
  let failed = Cv_verify.Split_cert.revalidate_detailed cert net' in
  Alcotest.(check bool) "drift fails several leaves" true
    (List.length failed >= 2);
  let c_splits = Cv_util.Metrics.counter "splitcert.splits" in
  let budget = 3 in
  let before = Cv_util.Metrics.value c_splits in
  let result = Cv_verify.Split_cert.repair ~budget ~domains:1 cert net' in
  let spent = Cv_util.Metrics.value c_splits - before in
  Alcotest.(check bool)
    (Printf.sprintf "spent %d <= shared budget %d" spent budget)
    true (spent <= budget);
  (* Unprovable for net', so a shared-budget repair must give up. *)
  Alcotest.(check bool) "repair gives up within budget" true (result = None)

let test_repair_parallel_revalidation () =
  (* ?domains now reaches the internal revalidation sweep; the verdict
     must not depend on the worker count. *)
  let net = fig2_net () in
  let cert =
    Option.get
      (Cv_verify.Split_cert.prove net ~input_box:fig2_box ~target:tight_target)
  in
  (* Scaled max 6.3 still fits tight_target's 6.5 bound: one leaf fails
     and the repair is genuinely provable. *)
  let net' = fig2_net_scaled 1.05 in
  Alcotest.(check bool) "drift fails a leaf" true
    (Cv_verify.Split_cert.revalidate_detailed cert net' <> []);
  let leaves = function
    | None -> -1
    | Some c -> Cv_verify.Split_cert.num_leaves c
  in
  let r1 = Cv_verify.Split_cert.repair ~domains:1 cert net' in
  let r4 = Cv_verify.Split_cert.repair ~domains:4 cert net' in
  Alcotest.(check bool) "repair succeeds" true (r1 <> None);
  Alcotest.(check int) "same outcome at domains 1 and 4" (leaves r1) (leaves r4)

let test_json_roundtrip () =
  let net = fig2_net () in
  let cert =
    Option.get
      (Cv_verify.Split_cert.prove net ~input_box:fig2_box ~target:tight_target)
  in
  let cert' =
    Cv_verify.Split_cert.of_json (Cv_verify.Split_cert.to_json cert)
  in
  Alcotest.(check int) "leaf count" (Cv_verify.Split_cert.num_leaves cert)
    (Cv_verify.Split_cert.num_leaves cert');
  Alcotest.(check bool) "boxes equal" true
    (Cv_interval.Box.equal cert.Cv_verify.Split_cert.input_box
       cert'.Cv_verify.Split_cert.input_box)

(* ------------------------------------------------------------------ *)
(* The leaf-reuse SVbTV route                                          *)
(* ------------------------------------------------------------------ *)

let svbtv_with_cert ~drift_sigma =
  let net =
    Cv_nn.Network.random ~rng:(Cv_util.Rng.create 31) ~dims:[ 3; 6; 5; 1 ]
      ~act:Cv_nn.Activation.Relu ()
  in
  let din = Cv_interval.Box.uniform 3 ~lo:0. ~hi:1. in
  let chain =
    Cv_domains.Analyzer.abstractions ~widen:0.05 Cv_domains.Analyzer.Symint net
      din
  in
  let dout = Cv_interval.Box.expand 0.05 (chain.(Array.length chain - 1)) in
  let prop = Cv_verify.Property.make ~din ~dout in
  let cert =
    Option.get (Cv_verify.Split_cert.prove net ~input_box:din ~target:dout)
  in
  let artifact =
    Cv_artifacts.Artifacts.make ~state_abstractions:chain ~split_cert:cert
      ~property:prop ~net ~solver:"split" ~solve_seconds:1. ()
  in
  let net' =
    Cv_nn.Network.map_layers
      (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create 37) ~sigma:drift_sigma)
      net
  in
  (net, net', din, dout, artifact)

let test_leaf_reuse_small_drift () =
  let _, net', din, dout, artifact = svbtv_with_cert ~drift_sigma:0.001 in
  let p =
    Cv_core.Problem.svbtv
      ~old_net:
        (Cv_nn.Serialize.roundtrip
           (* the artifact's source net: reconstruct via fingerprint match *)
           (let net, _, _, _, _ = svbtv_with_cert ~drift_sigma:0.001 in
            net))
      ~new_net:net' ~artifact ~new_din:din
  in
  let a = Cv_core.Svbtv.leaf_reuse p in
  Alcotest.(check bool) ("leaf-reuse: " ^ a.Cv_core.Report.detail) true
    (Cv_core.Report.is_safe a);
  let rng = Cv_util.Rng.create 13 in
  for _ = 1 to 1000 do
    let x = Cv_interval.Box.sample rng din in
    Alcotest.(check bool) "target safe" true
      (Cv_interval.Box.mem_tol ~tol:1e-7 (Cv_nn.Network.eval net' x) dout)
  done

let test_leaf_reuse_with_enlargement () =
  let _, net', din, dout, artifact = svbtv_with_cert ~drift_sigma:0.001 in
  let new_din = Cv_interval.Box.expand 0.002 din in
  let old_net, _, _, _, _ = svbtv_with_cert ~drift_sigma:0.001 in
  let p = Cv_core.Problem.svbtv ~old_net ~new_net:net' ~artifact ~new_din in
  let a = Cv_core.Svbtv.leaf_reuse p in
  (match a.Cv_core.Report.outcome with
  | Cv_core.Report.Unsafe _ -> Alcotest.fail "leaf-reuse never proves unsafety"
  | _ -> ());
  if Cv_core.Report.is_safe a then begin
    let rng = Cv_util.Rng.create 17 in
    for _ = 1 to 1000 do
      let x = Cv_interval.Box.sample rng new_din in
      Alcotest.(check bool) "enlarged target safe" true
        (Cv_interval.Box.mem_tol ~tol:1e-7 (Cv_nn.Network.eval net' x) dout)
    done
  end

let test_leaf_reuse_requires_cert () =
  let net, net', din, dout, _ = svbtv_with_cert ~drift_sigma:0.001 in
  let prop = Cv_verify.Property.make ~din ~dout in
  let artifact =
    Cv_artifacts.Artifacts.make ~property:prop ~net ~solver:"none"
      ~solve_seconds:1. ()
  in
  let p = Cv_core.Problem.svbtv ~old_net:net ~new_net:net' ~artifact ~new_din:din in
  Alcotest.(check bool) "inconclusive without cert" true
    (not (Cv_core.Report.is_safe (Cv_core.Svbtv.leaf_reuse p)))

(* Leaf reuse revalidates through Split_cert.revalidate, so a Safe
   attempt checks, and counts, every stored leaf exactly once. The
   certificate targets the exact range plus 0.2, tighter than the
   one-shot symint reach, so the proof splits (8 leaves). *)
let test_leaf_reuse_counts_leaves () =
  let old_net, net', din, dout, _ = svbtv_with_cert ~drift_sigma:0.001 in
  let target =
    Cv_interval.Box.expand 0.2
      (Cv_verify.Range.exact_range old_net ~din).Cv_verify.Range.range
  in
  let cert =
    Option.get (Cv_verify.Split_cert.prove old_net ~input_box:din ~target)
  in
  let artifact =
    Cv_artifacts.Artifacts.make ~split_cert:cert
      ~property:(Cv_verify.Property.make ~din ~dout)
      ~net:old_net ~solver:"split" ~solve_seconds:1. ()
  in
  let p = Cv_core.Problem.svbtv ~old_net ~new_net:net' ~artifact ~new_din:din in
  let checked = Cv_util.Metrics.counter "splitcert.leaves_checked" in
  let before = Cv_util.Metrics.value checked in
  let a = Cv_core.Svbtv.leaf_reuse p in
  Alcotest.(check bool) ("leaf-reuse: " ^ a.Cv_core.Report.detail) true
    (Cv_core.Report.is_safe a);
  Alcotest.(check bool) "the proof split" true
    (Cv_verify.Split_cert.num_leaves cert > 1);
  Alcotest.(check int) "splitcert.leaves_checked rises by num_leaves"
    (Cv_verify.Split_cert.num_leaves cert)
    (Cv_util.Metrics.value checked - before)

(* A stored leaf that fails under the fine-tuned net is re-split, not
   the end of the route. Certificates proved on the exact range plus
   0.01, 0.02, 0.05 and 0.1 (92, 75, 30 and 19 leaves) each lose a few
   leaves (5, 4, 3 and 1) to σ = 0.001 drift; leaf-reuse must repair
   them and answer Safe, and the new net must then sample inside the
   target. *)
let test_leaf_reuse_repairs_failed_leaves () =
  let old_net, net', din, _, _ = svbtv_with_cert ~drift_sigma:0.001 in
  let exact =
    (Cv_verify.Range.exact_range old_net ~din).Cv_verify.Range.range
  in
  List.iter
    (fun margin ->
      let target = Cv_interval.Box.expand margin exact in
      let cert =
        Option.get (Cv_verify.Split_cert.prove old_net ~input_box:din ~target)
      in
      Alcotest.(check bool)
        (Printf.sprintf "+%g: some stored leaf fails" margin)
        true
        (Cv_verify.Split_cert.revalidate_detailed cert net' <> []);
      let artifact =
        Cv_artifacts.Artifacts.make ~split_cert:cert
          ~property:(Cv_verify.Property.make ~din ~dout:target)
          ~net:old_net ~solver:"split" ~solve_seconds:1. ()
      in
      let p =
        Cv_core.Problem.svbtv ~old_net ~new_net:net' ~artifact ~new_din:din
      in
      let a = Cv_core.Svbtv.leaf_reuse p in
      Alcotest.(check bool)
        (Printf.sprintf "+%g leaf-reuse: %s" margin a.Cv_core.Report.detail)
        true (Cv_core.Report.is_safe a);
      let rng = Cv_util.Rng.create 19 in
      for _ = 1 to 1000 do
        let x = Cv_interval.Box.sample rng din in
        Alcotest.(check bool) "repaired target safe" true
          (Cv_interval.Box.mem_tol ~tol:1e-7 (Cv_nn.Network.eval net' x) target)
      done)
    [ 0.01; 0.02; 0.05; 0.1 ]

let test_artifact_persists_cert () =
  let _, _, _, _, artifact = svbtv_with_cert ~drift_sigma:0.001 in
  let artifact' =
    Cv_artifacts.Artifacts.of_json (Cv_artifacts.Artifacts.to_json artifact)
  in
  match artifact'.Cv_artifacts.Artifacts.split_cert with
  | Some cert ->
    Alcotest.(check bool) "leaves preserved" true
      (Cv_verify.Split_cert.num_leaves cert >= 1)
  | None -> Alcotest.fail "certificate lost in persistence"

let () =
  Alcotest.run "cv_splitcert"
    [ ( "certificates",
        [ Alcotest.test_case "prove with splitting" `Quick
            test_prove_with_splitting;
          Alcotest.test_case "no split needed" `Quick test_prove_no_split_needed;
          Alcotest.test_case "fails on falsity" `Quick
            test_prove_fails_on_false_property;
          Alcotest.test_case "revalidate soundness" `Quick
            test_revalidate_perturbed_soundness;
          Alcotest.test_case "repair" `Quick test_repair;
          Alcotest.test_case "repair shares budget" `Quick
            test_repair_shares_budget;
          Alcotest.test_case "repair parallel revalidation" `Quick
            test_repair_parallel_revalidation;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip ] );
      ( "leaf-reuse",
        [ Alcotest.test_case "small drift" `Quick test_leaf_reuse_small_drift;
          Alcotest.test_case "with enlargement" `Quick
            test_leaf_reuse_with_enlargement;
          Alcotest.test_case "requires cert" `Quick test_leaf_reuse_requires_cert;
          Alcotest.test_case "counts its leaves" `Quick
            test_leaf_reuse_counts_leaves;
          Alcotest.test_case "repairs failed leaves" `Quick
            test_leaf_reuse_repairs_failed_leaves;
          Alcotest.test_case "artifact persistence" `Quick
            test_artifact_persists_cert ] ) ]
