(* Tests for Cv_monitor: bound construction, OOD detection, enlargement
   and kappa measurement. *)

let check_float = Alcotest.(check (float 1e-9))

let samples =
  [ [| 0.; 0. |]; [| 1.; 2. |]; [| 0.5; -1. |]; [| 0.2; 0.7 |] ]

let test_of_samples_bounds () =
  let m = Cv_monitor.Monitor.of_samples ~buffer:0. samples in
  let box = Cv_monitor.Monitor.current m in
  Alcotest.(check (array (float 1e-9))) "lower" [| 0.; -1. |]
    (Cv_interval.Box.lower box);
  Alcotest.(check (array (float 1e-9))) "upper" [| 1.; 2. |]
    (Cv_interval.Box.upper box);
  (* all samples in-distribution *)
  List.iter
    (fun x ->
      Alcotest.(check bool) "sample inside" true
        (Cv_monitor.Monitor.observe m x = None))
    samples;
  Alcotest.(check int) "no events" 0 (Cv_monitor.Monitor.event_count m)

let test_buffer () =
  let m = Cv_monitor.Monitor.of_samples ~buffer:0.1 samples in
  let box = Cv_monitor.Monitor.current m in
  (* width of axis 0 is 1.0 -> buffered to [-0.1, 1.1] *)
  check_float "buffered lo" (-0.1)
    (Cv_interval.Interval.lo (Cv_interval.Box.get box 0));
  check_float "buffered hi" 1.1
    (Cv_interval.Interval.hi (Cv_interval.Box.get box 0))

let test_ood_detection_and_enlargement () =
  let m = Cv_monitor.Monitor.of_samples ~buffer:0. samples in
  (match Cv_monitor.Monitor.observe m [| 1.5; 0. |] with
  | Some ev ->
    check_float "overshoot" 0.5 ev.Cv_monitor.Monitor.overshoot;
    Alcotest.(check int) "index" 1 ev.Cv_monitor.Monitor.index
  | None -> Alcotest.fail "should flag OOD");
  ignore (Cv_monitor.Monitor.observe m [| 0.; 3. |]);
  Alcotest.(check int) "two events" 2 (Cv_monitor.Monitor.event_count m);
  (* kappa = max overshoot *)
  check_float "kappa" 1. (Cv_monitor.Monitor.kappa m);
  let enlarged = Cv_monitor.Monitor.enlarged_box m in
  Alcotest.(check bool) "contains current" true
    (Cv_interval.Box.subset (Cv_monitor.Monitor.current m) enlarged);
  Alcotest.(check bool) "contains events" true
    (Cv_interval.Box.mem [| 1.5; 0. |] enlarged
    && Cv_interval.Box.mem [| 0.; 3. |] enlarged)

let test_enlarged_margin () =
  let m = Cv_monitor.Monitor.of_samples ~buffer:0. samples in
  ignore (Cv_monitor.Monitor.observe m [| 1.5; 0. |]);
  let enlarged = Cv_monitor.Monitor.enlarged_box ~margin:0.1 m in
  Alcotest.(check bool) "margin applied" true
    (Cv_interval.Box.mem [| 1.6; 0. |] enlarged)

let test_commit () =
  let m = Cv_monitor.Monitor.of_samples ~buffer:0. samples in
  ignore (Cv_monitor.Monitor.observe m [| 1.5; 0. |]);
  let enlarged = Cv_monitor.Monitor.enlarged_box m in
  Cv_monitor.Monitor.commit m enlarged;
  Alcotest.(check int) "events cleared" 0 (Cv_monitor.Monitor.event_count m);
  Alcotest.(check bool) "point now inside" true
    (Cv_monitor.Monitor.observe m [| 1.5; 0. |] = None);
  (* committing a smaller box is rejected *)
  try
    Cv_monitor.Monitor.commit m (Cv_interval.Box.uniform 2 ~lo:0. ~hi:0.1);
    Alcotest.fail "should reject shrinking commit"
  with Invalid_argument _ -> ()

let test_kappa_l2 () =
  let m = Cv_monitor.Monitor.of_samples ~buffer:0. samples in
  ignore (Cv_monitor.Monitor.observe m [| 1.3; 2.4 |]);
  (* overshoot (0.3, 0.4): Linf = 0.4, L2 = 0.5 *)
  check_float "linf" 0.4 (Cv_monitor.Monitor.kappa m);
  check_float "l2" 0.5 (Cv_monitor.Monitor.kappa ~norm:`L2 m)

let test_monitored_layer_features () =
  let net =
    Cv_nn.Network.random ~rng:(Cv_util.Rng.create 3) ~dims:[ 2; 4; 3; 1 ]
      ~act:Cv_nn.Activation.Relu ()
  in
  let x = [| 0.5; -0.5 |] in
  let f0 = Cv_monitor.Monitor.monitored_layer_features net ~layer:0 x in
  Alcotest.(check int) "layer-0 width" 4 (Array.length f0);
  let trace = Cv_nn.Network.eval_trace net x in
  Alcotest.(check (array (float 1e-12))) "matches trace" trace.(0) f0

let test_empty_samples_rejected () =
  try
    ignore (Cv_monitor.Monitor.of_samples []);
    Alcotest.fail "should reject"
  with Invalid_argument _ -> ()

(* Regression: commit must clear only the events the committed box
   covers. An event observed after the enlargement was computed used to
   be wiped with the rest and never re-trigger verification. *)
let test_commit_keeps_later_events () =
  let m = Cv_monitor.Monitor.of_samples ~buffer:0. samples in
  ignore (Cv_monitor.Monitor.observe m [| 1.5; 0. |]);
  let enlarged = Cv_monitor.Monitor.enlarged_box m in
  (* lands after the enlargement was computed, outside it *)
  ignore (Cv_monitor.Monitor.observe m [| 3.; 0. |]);
  Cv_monitor.Monitor.commit m enlarged;
  Alcotest.(check int) "later event survives" 1
    (Cv_monitor.Monitor.event_count m);
  check_float "kappa still reflects it" 1.5 (Cv_monitor.Monitor.kappa m);
  Alcotest.(check bool) "next enlargement covers it" true
    (Cv_interval.Box.mem [| 3.; 0. |] (Cv_monitor.Monitor.enlarged_box m));
  (* the covered event is gone: committing the new enlargement leaves
     nothing pending *)
  Cv_monitor.Monitor.commit m (Cv_monitor.Monitor.enlarged_box m);
  Alcotest.(check int) "covered events cleared" 0
    (Cv_monitor.Monitor.event_count m)

(* Regression: a non-finite observation used to be recorded with
   overshoot = NaN, poisoning kappa for every future call. *)
let test_non_finite_rejected () =
  let m = Cv_monitor.Monitor.of_samples ~buffer:0. samples in
  Alcotest.(check bool) "nan is not an event" true
    (Cv_monitor.Monitor.observe m [| Float.nan; 0. |] = None);
  (match Cv_monitor.Monitor.observe_class m [| Float.infinity; 0. |] with
  | Cv_monitor.Monitor.Rejected -> ()
  | _ -> Alcotest.fail "inf should be rejected");
  Alcotest.(check int) "nothing recorded" 0
    (Cv_monitor.Monitor.event_count m);
  Alcotest.(check int) "rejections counted" 2
    (Cv_monitor.Monitor.rejected_count m);
  check_float "kappa clean with no events" 0. (Cv_monitor.Monitor.kappa m);
  ignore (Cv_monitor.Monitor.observe m [| 1.5; 0. |]);
  check_float "kappa unpoisoned" 0.5 (Cv_monitor.Monitor.kappa m);
  Alcotest.(check bool) "enlargement stays finite" true
    (Array.for_all Float.is_finite
       (Cv_interval.Box.upper (Cv_monitor.Monitor.enlarged_box m)))

(* Regression: a feature vector of the wrong length used to fall
   through Box.mem into the OOD path, where the distance computation
   raised and took the serving loop down. *)
let test_wrong_length_rejected () =
  let m = Cv_monitor.Monitor.of_samples ~buffer:0. samples in
  List.iter
    (fun x ->
      match Cv_monitor.Monitor.observe_class m x with
      | Cv_monitor.Monitor.Rejected -> ()
      | _ ->
        Alcotest.failf "length %d should be rejected" (Array.length x))
    [ [| 1. |]; [| 0.5; 0.5; 0.5 |]; [||] ];
  Alcotest.(check int) "nothing recorded" 0
    (Cv_monitor.Monitor.event_count m);
  Alcotest.(check int) "rejections counted" 3
    (Cv_monitor.Monitor.rejected_count m);
  check_float "kappa clean" 0. (Cv_monitor.Monitor.kappa m)

(* Regression: observe from concurrent domains must not lose events
   (the record used to be bare mutable state with no lock). *)
let test_concurrent_observe () =
  let m =
    Cv_monitor.Monitor.of_box (Cv_interval.Box.uniform 2 ~lo:0. ~hi:1.)
  in
  let per_domain = 2000 in
  let worker offset () =
    for i = 1 to per_domain do
      ignore
        (Cv_monitor.Monitor.observe m
           [| 2. +. offset +. float_of_int i; 0.5 |])
    done
  in
  let d1 = Domain.spawn (worker 0.) in
  let d2 = Domain.spawn (worker 0.25) in
  Domain.join d1;
  Domain.join d2;
  Alcotest.(check int) "no event lost" (2 * per_domain)
    (Cv_monitor.Monitor.event_count m);
  Alcotest.(check int) "event list agrees (oldest first)" (2 * per_domain)
    (List.length (Cv_monitor.Monitor.events m))

let test_events_oldest_first () =
  let m = Cv_monitor.Monitor.of_samples ~buffer:0. samples in
  ignore (Cv_monitor.Monitor.observe m [| 1.5; 0. |]);
  ignore (Cv_monitor.Monitor.observe m [| 2.5; 0. |]);
  let indices =
    List.map (fun ev -> ev.Cv_monitor.Monitor.index) (Cv_monitor.Monitor.events m)
  in
  Alcotest.(check (list int)) "ascending sample indices" [ 1; 2 ] indices

let monitor_soundness_prop =
  QCheck.Test.make ~name:"observed in-dist points never flagged" ~count:100
    QCheck.(list_of_size (Gen.return 2) (float_range 0. 1.))
    (fun xs ->
      let m =
        Cv_monitor.Monitor.of_box (Cv_interval.Box.uniform 2 ~lo:0. ~hi:1.)
      in
      Cv_monitor.Monitor.observe m (Array.of_list xs) = None)


(* ------------------------------------------------------------------ *)
(* Pattern monitor (activation patterns, paper ref [1])                *)
(* ------------------------------------------------------------------ *)

let pm_samples =
  [ [| 1.; 0.; 2. |]; [| 0.5; 0.; 1. |]; [| 0.; 1.; 0. |] ]
(* patterns: 101, 101, 010 -> 2 distinct *)

let test_pattern_creation () =
  let m = Cv_monitor.Pattern_monitor.create ~width:3 pm_samples in
  Alcotest.(check int) "distinct patterns" 2
    (Cv_monitor.Pattern_monitor.num_patterns m)

let test_pattern_known_and_observe () =
  let m = Cv_monitor.Pattern_monitor.create ~width:3 pm_samples in
  Alcotest.(check bool) "known 101" true
    (Cv_monitor.Pattern_monitor.known m [| 9.; 0.; 0.1 |]);
  Alcotest.(check bool) "known 010" true
    (Cv_monitor.Pattern_monitor.known m [| 0.; 3.; 0. |]);
  Alcotest.(check bool) "unknown 111" false
    (Cv_monitor.Pattern_monitor.known m [| 1.; 1.; 1. |]);
  Alcotest.(check bool) "observe flags" true
    (Cv_monitor.Pattern_monitor.observe m [| 1.; 1.; 1. |]);
  Alcotest.(check bool) "observe passes" false
    (Cv_monitor.Pattern_monitor.observe m [| 1.; 0.; 1. |]);
  Alcotest.(check (float 1e-9)) "flag rate" 0.5
    (Cv_monitor.Pattern_monitor.flag_rate m)

let test_pattern_gamma_tolerance () =
  let m = Cv_monitor.Pattern_monitor.create ~gamma:1 ~width:3 pm_samples in
  (* 111 is Hamming-1 from 101: accepted with gamma=1 *)
  Alcotest.(check bool) "within gamma" true
    (Cv_monitor.Pattern_monitor.known m [| 1.; 1.; 1. |]);
  (* 000 is Hamming-1 from 010: accepted *)
  Alcotest.(check bool) "000 within gamma of 010" true
    (Cv_monitor.Pattern_monitor.known m [| 0.; 0.; 0. |])

let test_pattern_extend () =
  let m = Cv_monitor.Pattern_monitor.create ~width:3 pm_samples in
  Alcotest.(check bool) "initially unknown" false
    (Cv_monitor.Pattern_monitor.known m [| 1.; 1.; 1. |]);
  Cv_monitor.Pattern_monitor.extend m [| 1.; 1.; 1. |];
  Alcotest.(check bool) "known after extend" true
    (Cv_monitor.Pattern_monitor.known m [| 2.; 5.; 0.3 |])

let test_pattern_hamming () =
  let a = Cv_monitor.Pattern_monitor.pattern_of [| 1.; 0.; 1.; 0. |] in
  let b = Cv_monitor.Pattern_monitor.pattern_of [| 0.; 0.; 1.; 1. |] in
  Alcotest.(check int) "hamming 2" 2 (Cv_monitor.Pattern_monitor.hamming a b);
  Alcotest.(check int) "hamming self" 0 (Cv_monitor.Pattern_monitor.hamming a a)

let test_pattern_on_real_net () =
  (* Deterministic network whose monitored patterns are controllable:
     an identity first layer with ReLU, so the pattern is the sign
     pattern of the input. *)
  let layer =
    Cv_nn.Layer.make (Cv_linalg.Mat.identity 4) (Array.make 4 0.)
      Cv_nn.Activation.Relu
  in
  let out =
    Cv_nn.Layer.make (Cv_linalg.Mat.of_rows [ [| 1.; 1.; 1.; 1. |] ])
      [| 0. |] Cv_nn.Activation.Identity
  in
  let net = Cv_nn.Network.of_list [ layer; out ] in
  let feats x = Cv_monitor.Monitor.monitored_layer_features net ~layer:0 x in
  let rng = Cv_util.Rng.create 12 in
  (* Training data lives in the all-positive orthant: one pattern. *)
  let train =
    List.init 50 (fun _ -> feats (Cv_util.Rng.uniform_array rng 4 ~lo:0.1 ~hi:1.))
  in
  let m = Cv_monitor.Pattern_monitor.create ~width:4 train in
  Alcotest.(check int) "single pattern" 1
    (Cv_monitor.Pattern_monitor.num_patterns m);
  (* Training-distribution probes never flag. *)
  for _ = 1 to 50 do
    Alcotest.(check bool) "in-dist passes" false
      (Cv_monitor.Pattern_monitor.observe m
         (feats (Cv_util.Rng.uniform_array rng 4 ~lo:0.1 ~hi:1.)))
  done;
  (* A mixed-sign probe produces a novel pattern and is flagged, even
     though its feature magnitudes are unremarkable. *)
  Alcotest.(check bool) "novel pattern flagged" true
    (Cv_monitor.Pattern_monitor.observe m (feats [| 0.5; -0.5; 0.5; -0.5 |]))

let () =
  Alcotest.run "cv_monitor"
    [ ( "bounds",
        [ Alcotest.test_case "of_samples" `Quick test_of_samples_bounds;
          Alcotest.test_case "buffer" `Quick test_buffer;
          Alcotest.test_case "empty rejected" `Quick test_empty_samples_rejected ] );
      ( "ood",
        [ Alcotest.test_case "detection+enlargement" `Quick
            test_ood_detection_and_enlargement;
          Alcotest.test_case "margin" `Quick test_enlarged_margin;
          Alcotest.test_case "commit" `Quick test_commit;
          Alcotest.test_case "kappa norms" `Quick test_kappa_l2;
          Alcotest.test_case "layer features" `Quick
            test_monitored_layer_features;
          QCheck_alcotest.to_alcotest monitor_soundness_prop ] );
      ( "hardening",
        [ Alcotest.test_case "commit keeps later events" `Quick
            test_commit_keeps_later_events;
          Alcotest.test_case "non-finite rejected" `Quick
            test_non_finite_rejected;
          Alcotest.test_case "wrong length rejected" `Quick
            test_wrong_length_rejected;
          Alcotest.test_case "concurrent observe" `Quick
            test_concurrent_observe;
          Alcotest.test_case "events oldest first" `Quick
            test_events_oldest_first ] );
      ( "pattern",
        [ Alcotest.test_case "creation" `Quick test_pattern_creation;
          Alcotest.test_case "known/observe" `Quick
            test_pattern_known_and_observe;
          Alcotest.test_case "gamma tolerance" `Quick
            test_pattern_gamma_tolerance;
          Alcotest.test_case "extend" `Quick test_pattern_extend;
          Alcotest.test_case "hamming" `Quick test_pattern_hamming;
          Alcotest.test_case "on a real net" `Quick test_pattern_on_real_net ] ) ]
