(* Tests for Cv_nn: activations, layers, networks, training,
   serialization. *)

let check_float = Alcotest.(check (float 1e-9))

let rng () = Cv_util.Rng.create 123

(* ------------------------------------------------------------------ *)
(* Activation                                                          *)
(* ------------------------------------------------------------------ *)

let test_activation_apply () =
  let open Cv_nn.Activation in
  check_float "relu+" 2. (apply Relu 2.);
  check_float "relu-" 0. (apply Relu (-2.));
  check_float "leaky-" (-0.2) (apply (Leaky_relu 0.1) (-2.));
  check_float "identity" 5. (apply Identity 5.);
  check_float "sigmoid 0" 0.5 (apply Sigmoid 0.);
  check_float "tanh 0" 0. (apply Tanh 0.)

let test_activation_derivative () =
  let open Cv_nn.Activation in
  check_float "relu'+" 1. (derivative Relu 2.);
  check_float "relu'-" 0. (derivative Relu (-2.));
  check_float "sigmoid' 0" 0.25 (derivative Sigmoid 0.);
  check_float "tanh' 0" 1. (derivative Tanh 0.)

let test_activation_lipschitz () =
  let open Cv_nn.Activation in
  check_float "relu" 1. (lipschitz Relu);
  check_float "sigmoid" 0.25 (lipschitz Sigmoid);
  check_float "leaky" 1. (lipschitz (Leaky_relu 0.1))

let activation_derivative_bound_prop =
  QCheck.Test.make ~name:"derivative bounded by lipschitz" ~count:500
    QCheck.(pair (float_range (-5.) 5.) (int_range 0 3))
    (fun (x, which) ->
      let open Cv_nn.Activation in
      let act =
        match which with
        | 0 -> Relu
        | 1 -> Leaky_relu 0.3
        | 2 -> Sigmoid
        | _ -> Tanh
      in
      Float.abs (derivative act x) <= lipschitz act +. 1e-9)

let test_activation_interval_image () =
  let open Cv_nn.Activation in
  let img = interval Sigmoid (Cv_interval.Interval.make (-1.) 1.) in
  Alcotest.(check bool) "sigmoid image" true
    (Cv_util.Float_utils.approx_eq ~tol:1e-9 (Cv_interval.Interval.lo img)
       (apply Sigmoid (-1.))
    && Cv_util.Float_utils.approx_eq ~tol:1e-9 (Cv_interval.Interval.hi img)
         (apply Sigmoid 1.))

let test_activation_json () =
  let open Cv_nn.Activation in
  List.iter
    (fun a -> Alcotest.(check bool) (to_string a) true (of_json (to_json a) = a))
    [ Relu; Leaky_relu 0.2; Sigmoid; Tanh; Identity ]

(* Leaky slopes outside [0, 1] break the big-M rows and every abstract
   domain: a model carrying one is refused as malformed on load. *)
let test_leaky_slope_validated () =
  let model slope =
    let net =
      Cv_nn.Network.of_list
        [ Cv_nn.Layer.make
            (Cv_linalg.Mat.of_rows [ [| 1. |]; [| -1. |] ])
            [| 0.; 0. |] (Cv_nn.Activation.Leaky_relu slope);
          Cv_nn.Layer.make
            (Cv_linalg.Mat.of_rows [ [| 1.; 1. |] ])
            [| 0. |] Cv_nn.Activation.Identity ]
    in
    Cv_util.Json.to_string (Cv_nn.Serialize.network_to_json net)
  in
  let load slope =
    let path = Filename.temp_file "cv_nn_leaky" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc (model slope);
        close_out oc;
        Cv_nn.Serialize.load_network_result path)
  in
  List.iter
    (fun slope ->
      match load slope with
      | Error (Cv_nn.Serialize.Malformed _) -> ()
      | _ -> Alcotest.failf "slope %g must be refused as malformed" slope)
    [ -1.; 2. ];
  List.iter
    (fun slope ->
      match load slope with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "slope %g must load: %s" slope
          (Cv_nn.Serialize.load_error_message e))
    [ 0.; 0.1; 1. ]

(* ------------------------------------------------------------------ *)
(* Layer / Network                                                     *)
(* ------------------------------------------------------------------ *)

let simple_layer () =
  Cv_nn.Layer.make
    (Cv_linalg.Mat.of_rows [ [| 1.; -1. |]; [| 2.; 0. |] ])
    [| 0.5; -1. |] Cv_nn.Activation.Relu

let test_layer_eval () =
  let l = simple_layer () in
  Alcotest.(check (array (float 1e-9))) "pre" [| 0.5; 1. |]
    (Cv_nn.Layer.pre_activation l [| 1.; 1. |]);
  Alcotest.(check (array (float 1e-9))) "eval relu" [| 0.5; 1. |]
    (Cv_nn.Layer.eval l [| 1.; 1. |]);
  Alcotest.(check (array (float 1e-9))) "negative clipped" [| 0.; 0. |]
    (Cv_nn.Layer.eval l [| -2.; 2. |]);
  Alcotest.(check int) "params" 6 (Cv_nn.Layer.num_params l)

let test_layer_bias_mismatch () =
  Alcotest.check_raises "bias"
    (Invalid_argument "Layer.make: bias dimension mismatch") (fun () ->
      ignore
        (Cv_nn.Layer.make
           (Cv_linalg.Mat.of_rows [ [| 1. |] ])
           [| 1.; 2. |] Cv_nn.Activation.Relu))

let small_net () =
  Cv_nn.Network.random ~rng:(rng ()) ~dims:[ 3; 5; 4; 2 ]
    ~act:Cv_nn.Activation.Relu ()

let test_network_shape () =
  let net = small_net () in
  Alcotest.(check int) "layers" 3 (Cv_nn.Network.num_layers net);
  Alcotest.(check int) "in" 3 (Cv_nn.Network.in_dim net);
  Alcotest.(check int) "out" 2 (Cv_nn.Network.out_dim net);
  Alcotest.(check (list int)) "dims" [ 3; 5; 4; 2 ] (Cv_nn.Network.layer_dims net);
  Alcotest.(check int) "neurons" 11 (Cv_nn.Network.num_neurons net);
  Alcotest.(check int) "params" (20 + 24 + 10) (Cv_nn.Network.num_params net)

let test_network_eval_composition () =
  let net = small_net () in
  let x = [| 0.3; -0.7; 1.1 |] in
  (* eval = fold of layer evals *)
  let manual =
    Array.fold_left
      (fun acc l -> Cv_nn.Layer.eval l acc)
      x (Cv_nn.Network.layers net)
  in
  Alcotest.(check (array (float 1e-12))) "composition" manual
    (Cv_nn.Network.eval net x);
  (* trace last element = output *)
  let trace = Cv_nn.Network.eval_trace net x in
  Alcotest.(check (array (float 1e-12))) "trace output" manual
    trace.(Array.length trace - 1)

let test_network_slices () =
  let net = small_net () in
  let x = [| 0.5; 0.5; -0.5 |] in
  let p = Cv_nn.Network.prefix net 2 in
  let s = Cv_nn.Network.suffix net 2 in
  Alcotest.(check (array (float 1e-12))) "prefix;suffix = whole"
    (Cv_nn.Network.eval net x)
    (Cv_nn.Network.eval s (Cv_nn.Network.eval p x));
  let sl = Cv_nn.Network.slice net ~from_:1 ~to_:2 in
  Alcotest.(check int) "slice layers" 1 (Cv_nn.Network.num_layers sl);
  let c = Cv_nn.Network.compose p s in
  Alcotest.(check (array (float 1e-12))) "compose" (Cv_nn.Network.eval net x)
    (Cv_nn.Network.eval c x)

let test_network_same_shape_dist () =
  let net = small_net () in
  Alcotest.(check bool) "same shape self" true
    (Cv_nn.Network.same_shape net net);
  check_float "self dist" 0. (Cv_nn.Network.param_dist_inf net net);
  let perturbed =
    Cv_nn.Network.map_layers
      (Cv_nn.Layer.perturb ~rng:(rng ()) ~sigma:0.01)
      net
  in
  Alcotest.(check bool) "dist positive" true
    (Cv_nn.Network.param_dist_inf net perturbed > 0.)

let test_network_validation () =
  let l1 =
    Cv_nn.Layer.make (Cv_linalg.Mat.zeros 3 2) (Array.make 3 0.)
      Cv_nn.Activation.Relu
  in
  let bad =
    Cv_nn.Layer.make (Cv_linalg.Mat.zeros 3 5) (Array.make 3 0.)
      Cv_nn.Activation.Relu
  in
  try
    ignore (Cv_nn.Network.make [| l1; bad |]);
    Alcotest.fail "should reject mismatched chain"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Train                                                               *)
(* ------------------------------------------------------------------ *)

let linear_dataset rng n =
  (* Learn y = 0.7 x1 - 0.3 x2 + 0.1 *)
  List.init n (fun _ ->
      let x = Cv_util.Rng.uniform_array rng 2 ~lo:(-1.) ~hi:1. in
      { Cv_nn.Train.input = x;
        target = [| (0.7 *. x.(0)) -. (0.3 *. x.(1)) +. 0.1 |] })

let test_train_reduces_loss () =
  let rng = rng () in
  let data = linear_dataset rng 200 in
  let net =
    Cv_nn.Network.random ~rng ~dims:[ 2; 8; 1 ] ~act:Cv_nn.Activation.Relu ()
  in
  let loss0 = Cv_nn.Train.loss net data in
  let trained, history =
    Cv_nn.Train.fit
      ~config:{ Cv_nn.Train.default_config with Cv_nn.Train.epochs = 30 }
      net data
  in
  let loss1 = Cv_nn.Train.loss trained data in
  Alcotest.(check bool) "loss decreased" true (loss1 < loss0 /. 2.);
  Alcotest.(check int) "history length" 30 (List.length history)

let test_backprop_matches_numeric_gradient () =
  let rng = rng () in
  let net =
    Cv_nn.Network.random ~rng ~dims:[ 2; 3; 1 ] ~act:Cv_nn.Activation.Tanh ()
  in
  let sample = { Cv_nn.Train.input = [| 0.4; -0.6 |]; target = [| 0.25 |] } in
  let grads, _ = Cv_nn.Train.backprop net sample in
  (* Numeric check on a few weight entries. *)
  let eps = 1e-6 in
  let loss_of n =
    let err =
      Cv_linalg.Vec.sub (Cv_nn.Network.eval n sample.Cv_nn.Train.input)
        sample.Cv_nn.Train.target
    in
    0.5 *. Cv_linalg.Vec.dot err err
  in
  let check_entry li r c =
    let bump delta =
      Cv_nn.Network.make
        (Array.mapi
           (fun i (l : Cv_nn.Layer.t) ->
             if i <> li then l
             else begin
               let w = Cv_linalg.Mat.copy l.Cv_nn.Layer.weights in
               Cv_linalg.Mat.set w r c (Cv_linalg.Mat.get w r c +. delta);
               Cv_nn.Layer.make w l.Cv_nn.Layer.bias l.Cv_nn.Layer.act
             end)
           (Cv_nn.Network.layers net))
    in
    let numeric = (loss_of (bump eps) -. loss_of (bump (-.eps))) /. (2. *. eps) in
    let analytic = Cv_linalg.Mat.get grads.Cv_nn.Train.d_weights.(li) r c in
    Alcotest.(check bool)
      (Printf.sprintf "grad[%d][%d,%d]" li r c)
      true
      (Float.abs (numeric -. analytic) < 1e-4)
  in
  check_entry 0 0 0;
  check_entry 0 2 1;
  check_entry 1 0 2

let test_slice_bounds () =
  let net = small_net () in
  List.iter
    (fun f -> try ignore (f ()); Alcotest.fail "should reject" with Invalid_argument _ -> ())
    [ (fun () -> Cv_nn.Network.prefix net 0);
      (fun () -> Cv_nn.Network.prefix net 4);
      (fun () -> Cv_nn.Network.suffix net 3);
      (fun () -> Cv_nn.Network.slice net ~from_:2 ~to_:2) ]

let test_train_without_clipping () =
  let rng = rng () in
  let data = linear_dataset rng 50 in
  let net =
    Cv_nn.Network.random ~rng ~dims:[ 2; 4; 1 ] ~act:Cv_nn.Activation.Relu ()
  in
  let trained, _ =
    Cv_nn.Train.fit
      ~config:
        { Cv_nn.Train.default_config with
          Cv_nn.Train.epochs = 5;
          clip_grad = None }
      net data
  in
  Alcotest.(check bool) "finite params" true
    (Float.is_finite (Cv_nn.Network.param_dist_inf net trained))

let test_fine_tune_small_drift () =
  let rng = rng () in
  let data = linear_dataset rng 100 in
  let net =
    Cv_nn.Network.random ~rng ~dims:[ 2; 6; 1 ] ~act:Cv_nn.Activation.Relu ()
  in
  let trained, _ = Cv_nn.Train.fit net data in
  let tuned, _ = Cv_nn.Train.fine_tune trained data in
  let drift = Cv_nn.Network.param_dist_inf trained tuned in
  Alcotest.(check bool) "drift small but nonzero" true
    (drift > 0. && drift < 0.5)

(* ------------------------------------------------------------------ *)
(* Serialize / Describe                                                *)
(* ------------------------------------------------------------------ *)

let test_serialize_roundtrip () =
  let net = small_net () in
  let net' = Cv_nn.Serialize.roundtrip net in
  Alcotest.(check bool) "same shape" true (Cv_nn.Network.same_shape net net');
  check_float "zero drift" 0. (Cv_nn.Network.param_dist_inf net net')

let test_serialize_file () =
  let net = small_net () in
  let path = Filename.temp_file "cv_nn_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cv_nn.Serialize.save_network ~name:"test" path net;
      let net' = Cv_nn.Serialize.load_network path in
      check_float "file roundtrip" 0. (Cv_nn.Network.param_dist_inf net net'))

let test_serialize_rejects_garbage () =
  try
    ignore (Cv_nn.Serialize.network_of_json (Cv_util.Json.parse "{\"x\": 1}"));
    Alcotest.fail "should reject"
  with Cv_util.Json.Error _ -> ()

let test_describe () =
  let net = small_net () in
  let table = Cv_nn.Describe.layer_table net in
  let contains_substring haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions relu" true (contains_substring table "relu");
  Alcotest.(check bool) "mentions totals" true (contains_substring table "total");
  Alcotest.(check string) "shape string" "[3; 5; 4; 2]"
    (Cv_nn.Describe.shape_string net)


(* ------------------------------------------------------------------ *)
(* Conv                                                                *)
(* ------------------------------------------------------------------ *)

let conv_spec =
  { Cv_nn.Conv.in_height = 8; in_width = 12; kernel = 4; stride = 3;
    out_channels = 2 }

let test_conv_dims () =
  let oh, ow = Cv_nn.Conv.out_dims conv_spec in
  Alcotest.(check (pair int int)) "out dims" (2, 3) (oh, ow);
  Alcotest.(check int) "output size" 12 (Cv_nn.Conv.output_size conv_spec)

let test_conv_matches_direct () =
  let rng = Cv_util.Rng.create 77 in
  let kernels =
    Array.init 2 (fun _ -> Cv_util.Rng.uniform_array rng 16 ~lo:(-1.) ~hi:1.)
  in
  let bias = [| 0.1; -0.2 |] in
  let layer =
    Cv_nn.Conv.to_layer conv_spec ~kernels ~bias ~act:Cv_nn.Activation.Relu
  in
  Alcotest.(check int) "layer out" 12 (Cv_nn.Layer.out_dim layer);
  Alcotest.(check int) "layer in" 96 (Cv_nn.Layer.in_dim layer);
  for _ = 1 to 30 do
    let img = Cv_util.Rng.uniform_array rng 96 ~lo:0. ~hi:1. in
    let via_layer = Cv_nn.Layer.eval layer img in
    let direct =
      Cv_nn.Conv.eval_direct conv_spec ~kernels ~bias
        ~act:Cv_nn.Activation.Relu img
    in
    Alcotest.(check bool) "lowering exact" true
      (Cv_linalg.Vec.approx_eq ~tol:1e-9 via_layer direct)
  done

let test_conv_validation () =
  (try
     ignore (Cv_nn.Conv.out_dims { conv_spec with Cv_nn.Conv.kernel = 20 });
     Alcotest.fail "kernel too large"
   with Invalid_argument _ -> ());
  try
    ignore
      (Cv_nn.Conv.to_layer conv_spec
         ~kernels:[| Array.make 16 0. |]
         ~bias:[| 0.; 0. |] ~act:Cv_nn.Activation.Relu);
    Alcotest.fail "kernel count"
  with Invalid_argument _ -> ()

let test_conv_composes_into_network () =
  let rng = Cv_util.Rng.create 5 in
  let conv = Cv_nn.Conv.random ~rng conv_spec ~act:Cv_nn.Activation.Relu in
  let head =
    Cv_nn.Layer.random ~rng ~in_dim:12 ~out_dim:1 Cv_nn.Activation.Identity
  in
  let net = Cv_nn.Network.of_list [ conv; head ] in
  let y = Cv_nn.Network.eval net (Array.make 96 0.5) in
  Alcotest.(check bool) "finite output" true (Float.is_finite y.(0))

(* ------------------------------------------------------------------ *)
(* Nnet format                                                         *)
(* ------------------------------------------------------------------ *)

let test_nnet_roundtrip () =
  let net = small_net () in
  let doc =
    Cv_nn.Nnet.of_network ~input_box:(Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:2.)
      net
  in
  let doc' = Cv_nn.Nnet.parse (Cv_nn.Nnet.to_string doc) in
  Alcotest.(check (float 1e-12)) "weights identical" 0.
    (Cv_nn.Network.param_dist_inf net doc'.Cv_nn.Nnet.network);
  Alcotest.(check bool) "box identical" true
    (Cv_interval.Box.equal doc.Cv_nn.Nnet.input_box doc'.Cv_nn.Nnet.input_box)

let test_nnet_file_roundtrip () =
  let net = small_net () in
  let doc = Cv_nn.Nnet.of_network net in
  let path = Filename.temp_file "cv_nnet" ".nnet" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cv_nn.Nnet.save path doc;
      let doc' = Cv_nn.Nnet.load path in
      Alcotest.(check (float 1e-12)) "file roundtrip" 0.
        (Cv_nn.Network.param_dist_inf net doc'.Cv_nn.Nnet.network))

let test_nnet_parse_handcrafted () =
  (* A tiny 1-hidden-layer net written by hand:
     y = identity(1*h1 - 1*h2 + 0.5), h = relu([[1,0],[0,1]]x + [0,0]). *)
  let text =
    "// test network\n\
     2,2,1,2,\n\
     2,2,1,\n\
     0,\n\
     -1,-1,\n\
     1,1,\n\
     0,0,0,\n\
     1,1,1,\n\
     1,0,\n\
     0,1,\n\
     0,\n\
     0,\n\
     1,-1,\n\
     0.5,\n"
  in
  let doc = Cv_nn.Nnet.parse text in
  let y = Cv_nn.Network.eval doc.Cv_nn.Nnet.network [| 0.7; 0.2 |] in
  Alcotest.(check (float 1e-9)) "eval" 1. y.(0);
  let y2 = Cv_nn.Network.eval doc.Cv_nn.Nnet.network [| -0.5; 0.3 |] in
  (* relu(-0.5)=0, relu(0.3)=0.3 -> 0 - 0.3 + 0.5 = 0.2 *)
  Alcotest.(check (float 1e-9)) "eval with clipping" 0.2 y2.(0)

let test_nnet_rejects_garbage () =
  (try
     ignore (Cv_nn.Nnet.parse "not a network");
     Alcotest.fail "should reject"
   with Cv_nn.Nnet.Parse_error _ -> ());
  try
    ignore
      (Cv_nn.Nnet.of_network
         (Cv_nn.Network.random ~rng:(Cv_util.Rng.create 1) ~dims:[ 2; 3; 1 ]
            ~act:Cv_nn.Activation.Sigmoid ()));
    Alcotest.fail "sigmoid unrepresentable"
  with Invalid_argument _ -> ()

let test_nnet_verifiable_after_load () =
  (* External networks drop straight into the verifier. *)
  let net = small_net () in
  let doc = Cv_nn.Nnet.of_network net in
  let doc' = Cv_nn.Nnet.parse (Cv_nn.Nnet.to_string doc) in
  let reach =
    Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint
      doc'.Cv_nn.Nnet.network doc'.Cv_nn.Nnet.input_box
  in
  Alcotest.(check int) "reach dim" 2 (Cv_interval.Box.dim reach)

let eval_trace_prop =
  QCheck.Test.make ~name:"trace entries feed forward" ~count:50
    QCheck.(list_of_size (Gen.return 3) (float_range (-2.) 2.))
    (fun xs ->
      let net = small_net () in
      let x = Array.of_list xs in
      let trace = Cv_nn.Network.eval_trace net x in
      let l1 = Cv_nn.Network.layer net 1 in
      Cv_linalg.Vec.approx_eq ~tol:1e-9 trace.(1) (Cv_nn.Layer.eval l1 trace.(0)))

let () =
  Alcotest.run "cv_nn"
    [ ( "activation",
        [ Alcotest.test_case "apply" `Quick test_activation_apply;
          Alcotest.test_case "derivative" `Quick test_activation_derivative;
          Alcotest.test_case "lipschitz" `Quick test_activation_lipschitz;
          Alcotest.test_case "interval image" `Quick
            test_activation_interval_image;
          Alcotest.test_case "json" `Quick test_activation_json;
          Alcotest.test_case "leaky slope validated" `Quick
            test_leaky_slope_validated;
          QCheck_alcotest.to_alcotest activation_derivative_bound_prop ] );
      ( "layer+network",
        [ Alcotest.test_case "layer eval" `Quick test_layer_eval;
          Alcotest.test_case "layer validation" `Quick test_layer_bias_mismatch;
          Alcotest.test_case "network shape" `Quick test_network_shape;
          Alcotest.test_case "eval composition" `Quick
            test_network_eval_composition;
          Alcotest.test_case "slices" `Quick test_network_slices;
          Alcotest.test_case "same_shape/dist" `Quick
            test_network_same_shape_dist;
          Alcotest.test_case "chain validation" `Quick test_network_validation;
          QCheck_alcotest.to_alcotest eval_trace_prop ] );
      ( "train",
        [ Alcotest.test_case "loss decreases" `Quick test_train_reduces_loss;
          Alcotest.test_case "backprop vs numeric gradient" `Quick
            test_backprop_matches_numeric_gradient;
          Alcotest.test_case "fine-tune drift" `Quick test_fine_tune_small_drift;
          Alcotest.test_case "slice bounds" `Quick test_slice_bounds;
          Alcotest.test_case "train without clipping" `Quick
            test_train_without_clipping ] );
      ( "conv",
        [ Alcotest.test_case "dims" `Quick test_conv_dims;
          Alcotest.test_case "matches direct" `Quick test_conv_matches_direct;
          Alcotest.test_case "validation" `Quick test_conv_validation;
          Alcotest.test_case "composes" `Quick test_conv_composes_into_network ] );
      ( "nnet",
        [ Alcotest.test_case "roundtrip" `Quick test_nnet_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_nnet_file_roundtrip;
          Alcotest.test_case "handcrafted parse" `Quick
            test_nnet_parse_handcrafted;
          Alcotest.test_case "rejects garbage" `Quick test_nnet_rejects_garbage;
          Alcotest.test_case "verifiable after load" `Quick
            test_nnet_verifiable_after_load ] );
      ( "serialize",
        [ Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_serialize_file;
          Alcotest.test_case "rejects garbage" `Quick
            test_serialize_rejects_garbage;
          Alcotest.test_case "describe" `Quick test_describe ] ) ]
