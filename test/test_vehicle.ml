(* Tests for Cv_vehicle: track geometry, camera, perception, dataset,
   controller and the end-to-end pipeline (scaled down for speed). *)

let check_float = Alcotest.(check (float 1e-6))

let track () = Cv_vehicle.Track.stadium ()

(* ------------------------------------------------------------------ *)
(* Track                                                               *)
(* ------------------------------------------------------------------ *)

let test_track_closed_loop () =
  let t = track () in
  let p0 = Cv_vehicle.Track.point_at t 0. in
  let p1 = Cv_vehicle.Track.point_at t t.Cv_vehicle.Track.length in
  Alcotest.(check bool) "wraps" true
    (Float.abs (p0.Cv_vehicle.Track.x -. p1.Cv_vehicle.Track.x) < 1e-6
    && Float.abs (p0.Cv_vehicle.Track.y -. p1.Cv_vehicle.Track.y) < 1e-6)

let test_track_length () =
  let t = Cv_vehicle.Track.stadium ~straight:6. ~radius:2. () in
  check_float "perimeter" (12. +. (4. *. Float.pi)) t.Cv_vehicle.Track.length

let test_pose_on_centerline () =
  let t = track () in
  for i = 0 to 9 do
    let s = float_of_int i /. 10. *. t.Cv_vehicle.Track.length in
    let pose = Cv_vehicle.Track.pose_at t s in
    Alcotest.(check bool) "offset ~ 0" true
      (Float.abs (Cv_vehicle.Track.lateral_offset t pose) < 0.05);
    Alcotest.(check bool) "heading ~ 0" true
      (Float.abs (Cv_vehicle.Track.relative_heading t pose) < 0.2);
    Alcotest.(check bool) "on track" true (Cv_vehicle.Track.on_track t pose)
  done

let test_lateral_offset_sign () =
  let t = track () in
  let s = 1.0 in
  let left = Cv_vehicle.Track.pose_at ~lateral:0.2 t s in
  let right = Cv_vehicle.Track.pose_at ~lateral:(-0.2) t s in
  Alcotest.(check bool) "left positive" true
    (Cv_vehicle.Track.lateral_offset t left > 0.1);
  Alcotest.(check bool) "right negative" true
    (Cv_vehicle.Track.lateral_offset t right < -0.1)

let test_off_track () =
  let t = track () in
  let pose = Cv_vehicle.Track.pose_at ~lateral:1.0 t 1. in
  Alcotest.(check bool) "off track" false (Cv_vehicle.Track.on_track t pose)

let test_curvature () =
  let t = Cv_vehicle.Track.stadium ~straight:6. ~radius:2. () in
  (* Mid-straight: near-zero curvature; mid-curve: about 1/radius. *)
  let k_straight = Cv_vehicle.Track.curvature_at t 3. in
  let k_curve = Cv_vehicle.Track.curvature_at t (6. +. (Float.pi *. 2. /. 2.)) in
  Alcotest.(check bool) "straight flat" true (Float.abs k_straight < 0.05);
  Alcotest.(check bool) "curve ~ 1/r" true (Float.abs (k_curve -. 0.5) < 0.15)

let test_render () =
  let t = track () in
  let s = Cv_vehicle.Track.render t [ Cv_vehicle.Track.pose_at t 0. ] in
  Alcotest.(check bool) "has centerline" true (String.contains s '.');
  Alcotest.(check bool) "has vehicle" true (String.contains s 'o')

(* ------------------------------------------------------------------ *)
(* Camera                                                              *)
(* ------------------------------------------------------------------ *)

let test_camera_shape_and_range () =
  let t = track () in
  let cfg = Cv_vehicle.Camera.default_config in
  let img =
    Cv_vehicle.Camera.capture cfg Cv_vehicle.Camera.nominal t
      (Cv_vehicle.Track.pose_at t 1.)
  in
  Alcotest.(check int) "pixels" (Cv_vehicle.Camera.pixels cfg) (Array.length img);
  Array.iter
    (fun v ->
      Alcotest.(check bool) "pixel in range" true (v >= 0. && v <= 1.5))
    img

let test_camera_sees_lane () =
  (* On the centerline looking forward, the image must contain a bright
     ridge (some pixel well above background). *)
  let t = track () in
  let cfg = Cv_vehicle.Camera.default_config in
  let img =
    Cv_vehicle.Camera.capture cfg Cv_vehicle.Camera.nominal t
      (Cv_vehicle.Track.pose_at t 1.)
  in
  Alcotest.(check bool) "bright ridge" true
    (Array.exists (fun v -> v > 0.8) img)

let test_camera_conditions_shift () =
  let t = track () in
  let cfg = Cv_vehicle.Camera.default_config in
  let pose = Cv_vehicle.Track.pose_at t 1. in
  let nominal = Cv_vehicle.Camera.capture cfg Cv_vehicle.Camera.nominal t pose in
  let shifted = Cv_vehicle.Camera.capture cfg Cv_vehicle.Camera.shifted t pose in
  let mean a = Cv_util.Stats.mean a in
  Alcotest.(check bool) "shifted brighter" true (mean shifted > mean nominal)

let test_camera_deterministic_without_rng () =
  let t = track () in
  let cfg = Cv_vehicle.Camera.default_config in
  let pose = Cv_vehicle.Track.pose_at t 2. in
  let a = Cv_vehicle.Camera.capture cfg Cv_vehicle.Camera.nominal t pose in
  let b = Cv_vehicle.Camera.capture cfg Cv_vehicle.Camera.nominal t pose in
  Alcotest.(check (array (float 1e-12))) "deterministic" a b

let test_ascii_render () =
  let t = track () in
  let cfg = Cv_vehicle.Camera.default_config in
  let img =
    Cv_vehicle.Camera.capture cfg Cv_vehicle.Camera.nominal t
      (Cv_vehicle.Track.pose_at t 1.)
  in
  let s = Cv_vehicle.Camera.ascii cfg img in
  Alcotest.(check int) "lines" cfg.Cv_vehicle.Camera.height
    (List.length (String.split_on_char '\n' s) - 1)

(* ------------------------------------------------------------------ *)
(* Perception / Dataset                                                *)
(* ------------------------------------------------------------------ *)

let test_perception_shapes () =
  let rng = Cv_util.Rng.create 5 in
  let p = Cv_vehicle.Perception.create ~rng ~features:10 () in
  Alcotest.(check int) "feature dim" 10 (Cv_vehicle.Perception.feature_dim p);
  let t = track () in
  let img =
    Cv_vehicle.Camera.capture p.Cv_vehicle.Perception.camera
      Cv_vehicle.Camera.nominal t (Cv_vehicle.Track.pose_at t 1.)
  in
  let feats = Cv_vehicle.Perception.features_of p img in
  Alcotest.(check int) "features" 10 (Array.length feats);
  Array.iter
    (fun f -> Alcotest.(check bool) "post-relu nonneg" true (f >= 0.))
    feats;
  let v = Cv_vehicle.Perception.v_out p img in
  Alcotest.(check bool) "finite" true (Float.is_finite v)

let test_waypoint_formula () =
  let p = Cv_vehicle.Perception.create ~rng:(Cv_util.Rng.create 5) () in
  let x, _y = Cv_vehicle.Perception.waypoint p 0.5 in
  let w = p.Cv_vehicle.Perception.camera.Cv_vehicle.Camera.width in
  Alcotest.(check bool) "midline" true (abs (x - ((w - 1) / 2)) <= 1);
  let x0, _ = Cv_vehicle.Perception.waypoint p (-3.) in
  Alcotest.(check int) "clamped low" 0 x0;
  let x1, _ = Cv_vehicle.Perception.waypoint p 7. in
  Alcotest.(check int) "clamped high" (w - 1) x1

let test_steering_label_range_and_sense () =
  let t = track () in
  for i = 0 to 9 do
    let s = float_of_int i /. 10. *. t.Cv_vehicle.Track.length in
    let label = Cv_vehicle.Perception.steering_label t (Cv_vehicle.Track.pose_at t s) in
    Alcotest.(check bool) "in [0,1]" true (label >= 0. && label <= 1.)
  done;
  (* A pose yawed to the left of the track direction must steer right
     (label > 0.5) to regain the lane — the waypoint appears to the
     vehicle's right. *)
  let straight_s = 1.0 in
  let yawed_left = Cv_vehicle.Track.pose_at ~heading_err:0.3 t straight_s in
  let yawed_right = Cv_vehicle.Track.pose_at ~heading_err:(-0.3) t straight_s in
  let ll = Cv_vehicle.Perception.steering_label t yawed_left in
  let lr = Cv_vehicle.Perception.steering_label t yawed_right in
  Alcotest.(check bool) "labels differ by yaw" true (lr > ll)

let test_dataset_generation () =
  let rng = Cv_util.Rng.create 5 in
  let t = track () in
  let p = Cv_vehicle.Perception.create ~rng ~features:8 () in
  let data = Cv_vehicle.Dataset.generate ~rng ~track:t ~perception:p 50 in
  Alcotest.(check int) "count" 50 (List.length data);
  List.iter
    (fun s ->
      Alcotest.(check bool) "label range" true
        (s.Cv_vehicle.Dataset.label >= 0. && s.Cv_vehicle.Dataset.label <= 1.))
    data;
  let training = Cv_vehicle.Dataset.to_training data in
  Alcotest.(check int) "training count" 50 (List.length training)

let test_training_improves_head () =
  let rng = Cv_util.Rng.create 6 in
  let t = track () in
  let p = Cv_vehicle.Perception.create ~rng ~features:8 () in
  let data = Cv_vehicle.Dataset.generate ~rng ~track:t ~perception:p 150 in
  let before = Cv_vehicle.Dataset.head_mse p data in
  let trained, _ =
    Cv_nn.Train.fit
      ~config:{ Cv_nn.Train.default_config with Cv_nn.Train.epochs = 25 }
      p.Cv_vehicle.Perception.head
      (Cv_vehicle.Dataset.to_training data)
  in
  let p' = Cv_vehicle.Perception.with_head p trained in
  let after = Cv_vehicle.Dataset.head_mse p' data in
  Alcotest.(check bool)
    (Printf.sprintf "mse %.4f -> %.4f" before after)
    true (after < before)

(* ------------------------------------------------------------------ *)
(* Controller                                                          *)
(* ------------------------------------------------------------------ *)

let test_steer_mapping () =
  let cfg = Cv_vehicle.Controller.default_config in
  check_float "center straight" 0. (Cv_vehicle.Controller.steer_of_vout cfg 0.5);
  Alcotest.(check bool) "left negative" true
    (Cv_vehicle.Controller.steer_of_vout cfg 0. < 0.);
  Alcotest.(check bool) "right positive" true
    (Cv_vehicle.Controller.steer_of_vout cfg 1. > 0.);
  Alcotest.(check bool) "clamped" true
    (Cv_vehicle.Controller.steer_of_vout cfg 10.
    <= cfg.Cv_vehicle.Controller.max_steer +. 1e-9)

let test_step_kinematics () =
  let t = track () in
  let cfg = Cv_vehicle.Controller.default_config in
  let st = Cv_vehicle.Controller.init t ~s:0. in
  let st' = Cv_vehicle.Controller.step cfg t st ~steer:0. in
  Alcotest.(check int) "steps" 1 st'.Cv_vehicle.Controller.steps;
  (* straight steering on a straight: still on track *)
  Alcotest.(check bool) "moved forward" true
    (st'.Cv_vehicle.Controller.pose.Cv_vehicle.Track.px
    > st.Cv_vehicle.Controller.pose.Cv_vehicle.Track.px)

let test_drive_telemetry () =
  let rng = Cv_util.Rng.create 8 in
  let t = track () in
  let p = Cv_vehicle.Perception.create ~rng ~features:8 () in
  let monitor =
    Cv_monitor.Monitor.of_box
      (Cv_interval.Box.uniform 8 ~lo:(-1000.) ~hi:1000.)
  in
  let st = Cv_vehicle.Controller.init t ~s:0. in
  let _final, trace =
    Cv_vehicle.Controller.drive ~rng ~track:t ~perception:p ~monitor ~steps:20 st
  in
  Alcotest.(check int) "telemetry length" 20 (List.length trace);
  List.iter
    (fun tel ->
      Alcotest.(check bool) "no ood within huge box" false
        tel.Cv_vehicle.Controller.t_ood)
    trace

(* ------------------------------------------------------------------ *)
(* Pipeline (scaled down)                                              *)
(* ------------------------------------------------------------------ *)

let small_config =
  { Cv_vehicle.Pipeline.default_config with
    Cv_vehicle.Pipeline.features = 8;
    train_samples = 80;
    train_epochs = 8;
    fine_tune_rounds = 2;
    fine_tune_samples = 40;
    fine_tune_epochs = 2;
    drive_steps = 60 }

let test_pipeline_build () =
  let exp = Cv_vehicle.Pipeline.build ~config:small_config () in
  Alcotest.(check int) "heads" 3 (Array.length exp.Cv_vehicle.Pipeline.heads);
  Alcotest.(check bool) "din inside enlarged" true
    (Cv_interval.Box.subset exp.Cv_vehicle.Pipeline.din
       exp.Cv_vehicle.Pipeline.enlarged_din);
  (* D_out certifies the original head via the chain by construction *)
  let chain =
    Cv_domains.Analyzer.abstractions
      ~widen:small_config.Cv_vehicle.Pipeline.widen Cv_domains.Analyzer.Symint
      exp.Cv_vehicle.Pipeline.heads.(0) exp.Cv_vehicle.Pipeline.din
  in
  Alcotest.(check bool) "S_n within dout" true
    (Cv_interval.Box.subset_tol
       chain.(Array.length chain - 1)
       exp.Cv_vehicle.Pipeline.dout);
  (* fine-tuned heads drift but share shape *)
  for i = 1 to 2 do
    Alcotest.(check bool) "shape" true
      (Cv_nn.Network.same_shape
         exp.Cv_vehicle.Pipeline.heads.(0)
         exp.Cv_vehicle.Pipeline.heads.(i));
    Alcotest.(check bool) "drift positive" true
      (Cv_vehicle.Pipeline.drift exp i > 0.)
  done

(* The centerline scan as first written, squaring through [**] (libm
   [pow]). [x ** 2.] and [x *. x] differ by one ulp on a small share of
   doubles, so [Track.nearest_s]'s product form must be shown to pick
   the same point, not assumed to. *)
let nearest_s_pow (t : Cv_vehicle.Track.t) (pose : Cv_vehicle.Track.pose) =
  let best = ref 0 and best_d = ref Float.infinity in
  Array.iteri
    (fun i (p : Cv_vehicle.Track.point) ->
      let d =
        ((p.Cv_vehicle.Track.x -. pose.Cv_vehicle.Track.px) ** 2.)
        +. ((p.Cv_vehicle.Track.y -. pose.Cv_vehicle.Track.py) ** 2.)
      in
      if d < !best_d then begin
        best_d := d;
        best := i
      end)
    t.Cv_vehicle.Track.centerline;
  t.Cv_vehicle.Track.cum_s.(!best)

let test_nearest_s_reference () =
  let t = track () in
  let mismatches = ref [] in
  let same (pose : Cv_vehicle.Track.pose) =
    let got = Cv_vehicle.Track.nearest_s t pose
    and want = nearest_s_pow t pose in
    if Int64.bits_of_float got <> Int64.bits_of_float want then
      mismatches :=
        Printf.sprintf "(%h, %h): %h, pow scan %h" pose.Cv_vehicle.Track.px
          pose.Cv_vehicle.Track.py got want
        :: !mismatches
  in
  (* Seeded poses in and around the stadium (x in [-2, 8], y in
     [-2, 2]), plus the midpoint of every centerline segment, where two
     samples tie. *)
  let rng = Cv_util.Rng.create 2024 in
  for _ = 1 to 10_000 do
    same
      { Cv_vehicle.Track.px = Cv_util.Rng.float rng ~lo:(-4.) ~hi:10.;
        py = Cv_util.Rng.float rng ~lo:(-4.) ~hi:4.;
        yaw = 0. }
  done;
  let c = t.Cv_vehicle.Track.centerline in
  Array.iteri
    (fun i (a : Cv_vehicle.Track.point) ->
      let b = c.((i + 1) mod Array.length c) in
      same
        { Cv_vehicle.Track.px = 0.5 *. (a.Cv_vehicle.Track.x +. b.Cv_vehicle.Track.x);
          py = 0.5 *. (a.Cv_vehicle.Track.y +. b.Cv_vehicle.Track.y);
          yaw = 0. })
    c;
  (* Every pose of a seeded closed-loop drive under shifted conditions. *)
  let exp = Cv_vehicle.Pipeline.build ~config:small_config () in
  let monitor = Cv_monitor.Monitor.of_box exp.Cv_vehicle.Pipeline.din in
  let _, trace =
    Cv_vehicle.Controller.drive ~conditions:Cv_vehicle.Camera.shifted
      ~rng:(Cv_util.Rng.create 31) ~track:t
      ~perception:exp.Cv_vehicle.Pipeline.perception ~monitor ~steps:300
      (Cv_vehicle.Controller.init t ~s:1.)
  in
  Alcotest.(check int) "drive length" 300 (List.length trace);
  List.iter (fun tel -> same tel.Cv_vehicle.Controller.t_pose) trace;
  Alcotest.(check (list string)) "nearest_s = pow scan" [] (List.rev !mismatches)

let test_pipeline_determinism () =
  let a = Cv_vehicle.Pipeline.build ~config:small_config () in
  let b = Cv_vehicle.Pipeline.build ~config:small_config () in
  Alcotest.(check (float 1e-12)) "same kappa" a.Cv_vehicle.Pipeline.kappa
    b.Cv_vehicle.Pipeline.kappa;
  Alcotest.(check int) "same events" a.Cv_vehicle.Pipeline.ood_events
    b.Cv_vehicle.Pipeline.ood_events;
  Alcotest.(check (float 1e-12)) "same nets" 0.
    (Cv_nn.Network.param_dist_inf
       a.Cv_vehicle.Pipeline.heads.(1)
       b.Cv_vehicle.Pipeline.heads.(1))

let () =
  Alcotest.run "cv_vehicle"
    [ ( "track",
        [ Alcotest.test_case "closed loop" `Quick test_track_closed_loop;
          Alcotest.test_case "length" `Quick test_track_length;
          Alcotest.test_case "pose on centerline" `Quick test_pose_on_centerline;
          Alcotest.test_case "lateral sign" `Quick test_lateral_offset_sign;
          Alcotest.test_case "off track" `Quick test_off_track;
          Alcotest.test_case "render" `Quick test_render;
          Alcotest.test_case "curvature" `Quick test_curvature;
          Alcotest.test_case "nearest_s = pow scan" `Quick
            test_nearest_s_reference ] );
      ( "camera",
        [ Alcotest.test_case "shape/range" `Quick test_camera_shape_and_range;
          Alcotest.test_case "sees lane" `Quick test_camera_sees_lane;
          Alcotest.test_case "conditions shift" `Quick
            test_camera_conditions_shift;
          Alcotest.test_case "deterministic" `Quick
            test_camera_deterministic_without_rng;
          Alcotest.test_case "ascii" `Quick test_ascii_render ] );
      ( "perception+dataset",
        [ Alcotest.test_case "shapes" `Quick test_perception_shapes;
          Alcotest.test_case "waypoint formula" `Quick test_waypoint_formula;
          Alcotest.test_case "steering label" `Quick
            test_steering_label_range_and_sense;
          Alcotest.test_case "dataset" `Quick test_dataset_generation;
          Alcotest.test_case "training improves" `Quick
            test_training_improves_head ] );
      ( "controller",
        [ Alcotest.test_case "steer mapping" `Quick test_steer_mapping;
          Alcotest.test_case "kinematics" `Quick test_step_kinematics;
          Alcotest.test_case "drive telemetry" `Quick test_drive_telemetry ] );
      ( "pipeline",
        [ Alcotest.test_case "build" `Quick test_pipeline_build;
          Alcotest.test_case "determinism" `Quick test_pipeline_determinism ] ) ]
