(* Tests for Cv_domains: soundness of every abstract transformer,
   precision relations, and the inductive-chain property of the
   analyzer. *)

let rng () = Cv_util.Rng.create 2718

let random_net ?(seed = 5) ~dims () =
  Cv_nn.Network.random ~rng:(Cv_util.Rng.create seed) ~dims
    ~act:Cv_nn.Activation.Relu ()

let all_domains =
  [ Cv_domains.Analyzer.Box;
    Cv_domains.Analyzer.Symint;
    Cv_domains.Analyzer.Zonotope;
    Cv_domains.Analyzer.Deeppoly;
    Cv_domains.Analyzer.Star ]

(* Soundness: concrete outputs always inside the abstract reach. *)
let soundness_test kind () =
  let rng = rng () in
  for seed = 1 to 5 do
    let net = random_net ~seed ~dims:[ 3; 7; 6; 2 ] () in
    let din = Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:1. in
    let reach = Cv_domains.Analyzer.output_box kind net din in
    for _ = 1 to 500 do
      let x = Cv_interval.Box.sample rng din in
      let y = Cv_nn.Network.eval net x in
      Alcotest.(check bool)
        (Printf.sprintf "%s sound (seed %d)"
           (Cv_domains.Analyzer.domain_name kind)
           seed)
        true
        (Cv_interval.Box.mem_tol ~tol:1e-6 y reach)
    done
  done

(* Soundness on other activations via the generic transformers. *)
let soundness_activations_test kind () =
  let rng = rng () in
  List.iter
    (fun act ->
      let net =
        Cv_nn.Network.random ~rng:(Cv_util.Rng.create 11) ~dims:[ 2; 5; 1 ] ~act ()
      in
      let din = Cv_interval.Box.uniform 2 ~lo:(-2.) ~hi:2. in
      let reach = Cv_domains.Analyzer.output_box kind net din in
      for _ = 1 to 300 do
        let x = Cv_interval.Box.sample rng din in
        Alcotest.(check bool)
          (Cv_nn.Activation.to_string act)
          true
          (Cv_interval.Box.mem_tol ~tol:1e-6 (Cv_nn.Network.eval net x) reach)
      done)
    [ Cv_nn.Activation.Leaky_relu 0.2;
      Cv_nn.Activation.Sigmoid;
      Cv_nn.Activation.Tanh ]

(* Paper Figure 2: box analysis on the worked example. *)
let fig2_net () =
  Cv_nn.Network.of_list
    [ Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 1.; -2. |]; [| -2.; 1. |]; [| 1.; -1. |] ])
        [| 0.; 0.; 0. |] Cv_nn.Activation.Relu;
      Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 2.; 2.; -1. |] ])
        [| 0. |] Cv_nn.Activation.Relu ]

let test_fig2_box_bounds () =
  let net = fig2_net () in
  let reach kind box = Cv_domains.Analyzer.output_box kind net box in
  let original = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let enlarged = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.1 in
  let r0 = reach Cv_domains.Analyzer.Box original in
  Alcotest.(check (float 1e-9)) "n4 hi = 12 on [-1,1]^2" 12.
    (Cv_interval.Interval.hi (Cv_interval.Box.get r0 0));
  let r1 = reach Cv_domains.Analyzer.Box enlarged in
  Alcotest.(check (float 1e-9)) "n4 hi = 12.4 enlarged" 12.4
    (Cv_interval.Interval.hi (Cv_interval.Box.get r1 0))

(* Precision: symbolic intervals are never looser than box (their ReLU
   relaxation keeps lower bounds at >= 0 and chords below the box upper
   bound). Zonotope and DeepPoly are usually tighter but their ReLU
   relaxations can dip below zero, so we only require them to stay
   within a constant factor of box, and to contain the exact range. *)
let test_precision_ordering () =
  for seed = 1 to 5 do
    let net = random_net ~seed ~dims:[ 3; 8; 6; 1 ] () in
    let din = Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:1. in
    let width kind =
      Cv_interval.Box.total_width (Cv_domains.Analyzer.output_box kind net din)
    in
    let box_w = width Cv_domains.Analyzer.Box in
    Alcotest.(check bool) "symint <= box" true
      (width Cv_domains.Analyzer.Symint <= box_w +. 1e-9);
    Alcotest.(check bool) "zonotope within 2x box" true
      (width Cv_domains.Analyzer.Zonotope <= (2. *. box_w) +. 1e-9);
    Alcotest.(check bool) "deeppoly within 2x box" true
      (width Cv_domains.Analyzer.Deeppoly <= (2. *. box_w) +. 1e-9);
    (* star's LP-backed bounds should beat symint *)
    Alcotest.(check bool) "star <= symint" true
      (width Cv_domains.Analyzer.Star
      <= width Cv_domains.Analyzer.Symint +. 1e-6)
  done

(* Inductive chain: S_{i+1} contains the layer image of (samples of)
   S_i. This is the property Propositions 1-5 lean on. *)
let chain_induction_test kind () =
  let rng = rng () in
  let net = random_net ~seed:3 ~dims:[ 3; 6; 5; 2 ] () in
  let din = Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:1. in
  let s = Cv_domains.Analyzer.abstractions kind net din in
  for i = 0 to Cv_nn.Network.num_layers net - 1 do
    let source = if i = 0 then din else s.(i - 1) in
    let layer = Cv_nn.Network.layer net i in
    for _ = 1 to 300 do
      let x = Cv_interval.Box.sample rng source in
      Alcotest.(check bool)
        (Printf.sprintf "layer %d induction" i)
        true
        (Cv_interval.Box.mem_tol ~tol:1e-6 (Cv_nn.Layer.eval layer x) s.(i))
    done
  done

let test_widening_contains_plain () =
  let net = random_net ~seed:4 ~dims:[ 3; 6; 2 ] () in
  let din = Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:1. in
  let plain = Cv_domains.Analyzer.abstractions Cv_domains.Analyzer.Symint net din in
  let wide =
    Cv_domains.Analyzer.abstractions ~widen:0.1 Cv_domains.Analyzer.Symint net din
  in
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "S_%d widened contains plain" i)
        true
        (Cv_interval.Box.subset s wide.(i)))
    plain

(* A negative or NaN slack would shrink or poison the chain: refused,
   on every domain, instead of read as 0. *)
let test_widen_rejects_negative_and_nan () =
  let net = random_net ~seed:4 ~dims:[ 3; 6; 2 ] () in
  let din = Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:1. in
  List.iter
    (fun kind ->
      List.iter
        (fun widen ->
          Alcotest.check_raises
            (Printf.sprintf "%s widen %g"
               (Cv_domains.Analyzer.domain_name kind)
               widen)
            (Invalid_argument "Analyzer.abstractions: widen must be >= 0")
            (fun () ->
              ignore (Cv_domains.Analyzer.abstractions ~widen kind net din)))
        [ -0.5; Float.nan ])
    Cv_domains.Analyzer.[ Box; Symint; Zonotope; Deeppoly; Star ]

let test_verify_dispatch () =
  let net = fig2_net () in
  let din = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let dout_ok = Cv_interval.Box.of_bounds [| -13. |] [| 13. |] in
  let dout_tight = Cv_interval.Box.of_bounds [| -1. |] [| 7. |] in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Cv_domains.Analyzer.domain_name kind ^ " proves loose")
        true
        (Cv_domains.Analyzer.verify kind net ~din ~dout:dout_ok))
    all_domains;
  (* The box domain cannot prove the tight property (reach [0,12]). *)
  Alcotest.(check bool) "box cannot prove tight" false
    (Cv_domains.Analyzer.verify Cv_domains.Analyzer.Box net ~din ~dout:dout_tight)

let test_domain_of_string () =
  List.iter
    (fun kind ->
      Alcotest.(check bool) "roundtrip" true
        (Cv_domains.Analyzer.domain_of_string
           (Cv_domains.Analyzer.domain_name kind)
        = kind))
    all_domains;
  try
    ignore (Cv_domains.Analyzer.domain_of_string "nope");
    Alcotest.fail "should reject"
  with Invalid_argument _ -> ()

(* through-variant is at least as tight as the re-launched chain. *)
let test_through_tighter () =
  let net = random_net ~seed:6 ~dims:[ 3; 8; 6; 1 ] () in
  let din = Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:1. in
  let chain = Cv_domains.Analyzer.Symint_analysis.abstractions net din in
  let through = Cv_domains.Analyzer.Symint_analysis.abstractions_through net din in
  let n = Array.length chain in
  Alcotest.(check bool) "through final ⊆ chain final" true
    (Cv_interval.Box.subset_tol through.(n - 1) chain.(n - 1))

(* Zonotope generator growth stays bounded by unstable relus. *)
let test_zonotope_generator_growth () =
  let z0 = Cv_domains.Zonotope.of_box (Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:1.) in
  Alcotest.(check int) "initial generators" 3
    (Cv_domains.Zonotope.num_generators z0);
  let l =
    Cv_nn.Layer.random ~rng:(Cv_util.Rng.create 8) ~in_dim:3 ~out_dim:5
      Cv_nn.Activation.Relu
  in
  let z1 = Cv_domains.Zonotope.apply_layer l z0 in
  Alcotest.(check bool) "generators grow by at most out_dim" true
    (Cv_domains.Zonotope.num_generators z1 <= 3 + 5)


(* Star-set specifics: predicate growth and LP-backed tightening. *)
let test_star_predicates_grow_with_unstable () =
  let net = random_net ~seed:8 ~dims:[ 3; 6; 1 ] () in
  let din = Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:1. in
  let s0 = Cv_domains.Starset.of_box din in
  Alcotest.(check int) "initial predicates" 3
    (Cv_domains.Starset.num_predicates s0);
  let s1 = Cv_domains.Starset.apply_layer (Cv_nn.Network.layer net 0) s0 in
  Alcotest.(check bool) "at most one new predicate per neuron" true
    (Cv_domains.Starset.num_predicates s1 <= 3 + 6)

let test_star_affine_exact () =
  (* A purely linear network: star concretisation equals the exact
     affine image bounds. *)
  let w = Cv_linalg.Mat.of_rows [ [| 2.; -1. |]; [| 1.; 1. |] ] in
  let net =
    Cv_nn.Network.make
      [| Cv_nn.Layer.make w [| 0.5; 0. |] Cv_nn.Activation.Identity |]
  in
  let din = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let reach = Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Star net din in
  Alcotest.(check (float 1e-6)) "dim0 hi" 3.5
    (Cv_interval.Interval.hi (Cv_interval.Box.get reach 0));
  Alcotest.(check (float 1e-6)) "dim0 lo" (-2.5)
    (Cv_interval.Interval.lo (Cv_interval.Box.get reach 0));
  Alcotest.(check (float 1e-6)) "dim1 hi" 2.
    (Cv_interval.Interval.hi (Cv_interval.Box.get reach 1))

let test_star_beats_symint_on_fig2 () =
  let net = fig2_net () in
  let din = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let star_w =
    Cv_interval.Box.total_width
      (Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Star net din)
  in
  let sym_w =
    Cv_interval.Box.total_width
      (Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint net din)
  in
  Alcotest.(check bool)
    (Printf.sprintf "star %.3f <= symint %.3f" star_w sym_w)
    true (star_w <= sym_w +. 1e-6)


let test_zonotope_order_reduction_sound () =
  let rng = rng () in
  let net = random_net ~seed:14 ~dims:[ 3; 10; 8; 2 ] () in
  let din = Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:1. in
  (* Push a zonotope through and reduce aggressively. *)
  let z =
    Array.fold_left
      (fun acc l ->
        Cv_domains.Zonotope.reduce_order ~max_generators:6
          (Cv_domains.Zonotope.apply_layer l acc))
      (Cv_domains.Zonotope.of_box din)
      (Cv_nn.Network.layers net)
  in
  Alcotest.(check bool) "budget respected" true
    (Cv_domains.Zonotope.num_generators z <= 6 + 2);
  let reach = Cv_domains.Zonotope.to_box z in
  (* Reduction is sound: concrete outputs stay inside. *)
  for _ = 1 to 1000 do
    let x = Cv_interval.Box.sample rng din in
    Alcotest.(check bool) "sound after reduction" true
      (Cv_interval.Box.mem_tol ~tol:1e-6 (Cv_nn.Network.eval net x) reach)
  done;
  (* And contains the unreduced zonotope's box. *)
  let exact_z =
    Array.fold_left
      (fun acc l -> Cv_domains.Zonotope.apply_layer l acc)
      (Cv_domains.Zonotope.of_box din)
      (Cv_nn.Network.layers net)
  in
  Alcotest.(check bool) "contains unreduced" true
    (Cv_interval.Box.subset_tol (Cv_domains.Zonotope.to_box exact_z) reach)

let test_zonotope_reduction_noop_under_budget () =
  let z = Cv_domains.Zonotope.of_box (Cv_interval.Box.uniform 3 ~lo:0. ~hi:1.) in
  let z' = Cv_domains.Zonotope.reduce_order ~max_generators:10 z in
  Alcotest.(check int) "unchanged" (Cv_domains.Zonotope.num_generators z)
    (Cv_domains.Zonotope.num_generators z')

let transformer_pre_activation_exact_prop =
  QCheck.Test.make ~name:"pre_activation_box contains sampled pre-acts"
    ~count:100
    QCheck.(list_of_size (Gen.return 3) (float_range (-1.) 1.))
    (fun xs ->
      let l =
        Cv_nn.Layer.random ~rng:(Cv_util.Rng.create 12) ~in_dim:3 ~out_dim:4
          Cv_nn.Activation.Relu
      in
      let box = Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:1. in
      let pre_box = Cv_domains.Transformer.pre_activation_box l box in
      let x = Array.of_list xs in
      Cv_interval.Box.mem_tol ~tol:1e-9 (Cv_nn.Layer.pre_activation l x) pre_box)

let () =
  let soundness_cases =
    List.map
      (fun kind ->
        Alcotest.test_case
          (Cv_domains.Analyzer.domain_name kind ^ " soundness")
          `Quick (soundness_test kind))
      all_domains
  in
  let activation_cases =
    List.map
      (fun kind ->
        Alcotest.test_case
          (Cv_domains.Analyzer.domain_name kind ^ " other activations")
          `Quick
          (soundness_activations_test kind))
      all_domains
  in
  let chain_cases =
    List.map
      (fun kind ->
        Alcotest.test_case
          (Cv_domains.Analyzer.domain_name kind ^ " chain induction")
          `Quick (chain_induction_test kind))
      all_domains
  in
  Alcotest.run "cv_domains"
    [ ("soundness", soundness_cases);
      ("soundness-activations", activation_cases);
      ( "paper-fig2",
        [ Alcotest.test_case "box bounds 12 / 12.4" `Quick test_fig2_box_bounds ] );
      ( "precision",
        [ Alcotest.test_case "relational <= box" `Quick test_precision_ordering;
          Alcotest.test_case "through tighter than chain" `Quick
            test_through_tighter ] );
      ("chain-induction", chain_cases);
      ( "analyzer",
        [ Alcotest.test_case "widening contains plain" `Quick
            test_widening_contains_plain;
          Alcotest.test_case "widen rejects negative and NaN" `Quick
            test_widen_rejects_negative_and_nan;
          Alcotest.test_case "verify dispatch" `Quick test_verify_dispatch;
          Alcotest.test_case "domain_of_string" `Quick test_domain_of_string;
          Alcotest.test_case "zonotope generators" `Quick
            test_zonotope_generator_growth;
          Alcotest.test_case "zonotope order reduction" `Quick
            test_zonotope_order_reduction_sound;
          Alcotest.test_case "zonotope reduction noop" `Quick
            test_zonotope_reduction_noop_under_budget;
          Alcotest.test_case "star predicates" `Quick
            test_star_predicates_grow_with_unstable;
          Alcotest.test_case "star affine exact" `Quick test_star_affine_exact;
          Alcotest.test_case "star beats symint (fig2)" `Quick
            test_star_beats_symint_on_fig2;
          QCheck_alcotest.to_alcotest transformer_pre_activation_exact_prop ] ) ]
