(* Continuous verification on a second domain: an ACAS-Xu-style
   collision-avoidance advisory network (the canonical NN-verification
   benchmark family, here generated synthetically).

   Inputs (normalised to [0,1]): range to intruder, bearing, relative
   heading, own speed, intruder speed. Outputs: scores for the five
   advisories COC (clear of conflict), WL/WR (weak left/right),
   SL/SR (strong left/right); the controller takes the argmax.

   The certified property is ACAS-property-shaped: over the monitored
   operating region, all advisory scores stay within calibrated bounds
   (so downstream argmax logic and score thresholds remain valid). The
   continuous-engineering loop then mirrors the paper: monitoring
   enlarges the region (faster intruders than seen in training),
   fine-tuning produces a new advisory network, and both re-checks reuse
   the original proof. Finally the model is exported in the community
   .nnet format.

   Run with: dune exec examples/collision_avoidance.exe *)

let section title = Printf.printf "\n=== %s ===\n" title

let print_round (r : Cv_core.Batch.job_result) =
  Printf.printf "%s: %s via %s after %d attempts in %.3fs (%s)\n"
    r.Cv_core.Batch.job_id
    (Cv_core.Batch.verdict_name r.Cv_core.Batch.verdict)
    (Option.value ~default:"-" r.Cv_core.Batch.decisive)
    r.Cv_core.Batch.attempts r.Cv_core.Batch.seconds r.Cv_core.Batch.detail

let advisories = [| "COC"; "WL"; "WR"; "SL"; "SR" |]

(* Synthetic expert policy: score vector over advisories from encounter
   geometry. Smooth enough to be learnable by a small MLP. *)
let expert_scores x =
  let range = x.(0) and bearing = x.(1) and heading = x.(2) in
  let v_own = x.(3) and v_int = x.(4) in
  let closing = (1. -. range) *. (0.5 +. (0.5 *. v_int)) in
  let threat_side = bearing -. 0.5 in
  let urgency = Cv_util.Float_utils.clamp ~lo:0. ~hi:1. (closing -. (0.3 *. v_own)) in
  let coc = 1. -. urgency in
  let wl = urgency *. Cv_util.Float_utils.clamp ~lo:0. ~hi:1. (0.5 +. threat_side)
           *. (1. -. heading) in
  let wr = urgency *. Cv_util.Float_utils.clamp ~lo:0. ~hi:1. (0.5 -. threat_side)
           *. (1. -. heading) in
  let sl = urgency *. urgency *. Cv_util.Float_utils.clamp ~lo:0. ~hi:1. (0.5 +. threat_side) in
  let sr = urgency *. urgency *. Cv_util.Float_utils.clamp ~lo:0. ~hi:1. (0.5 -. threat_side) in
  [| coc; wl; wr; sl; sr |]

let () =
  section "1. Train the advisory network on synthetic encounters";
  let rng = Cv_util.Rng.create 99 in
  (* Training region: moderate intruder speeds only (v_int <= 0.7). *)
  let train_region =
    Cv_interval.Box.of_bounds [| 0.; 0.; 0.; 0.; 0. |] [| 1.; 1.; 1.; 1.; 0.7 |]
  in
  let samples =
    List.init 600 (fun _ ->
        let x = Cv_interval.Box.sample rng train_region in
        { Cv_nn.Train.input = x; target = expert_scores x })
  in
  let net0 =
    Cv_nn.Network.random ~rng ~dims:[ 5; 10; 8; 5 ] ~act:Cv_nn.Activation.Relu ()
  in
  let net, history =
    Cv_nn.Train.fit
      ~config:{ Cv_nn.Train.default_config with Cv_nn.Train.epochs = 120 }
      net0 samples
  in
  Printf.printf "training loss: %.5f -> %.5f\n" (List.hd history)
    (List.nth history (List.length history - 1));
  print_string (Cv_nn.Describe.layer_table net);

  section "2. Certify score bounds over the operating region";
  let chain =
    Cv_domains.Analyzer.abstractions ~widen:0.05 Cv_domains.Analyzer.Box net
      train_region
  in
  let dout = Cv_interval.Box.expand 0.05 (chain.(Array.length chain - 1)) in
  Printf.printf "certified score envelope:\n";
  Array.iteri
    (fun i name ->
      Printf.printf "  %-4s in %s\n" name
        (Cv_interval.Interval.to_string (Cv_interval.Box.get dout i)))
    advisories;
  let prop = Cv_verify.Property.make ~din:train_region ~dout in
  (match Cv_core.Session.certify ~widen:0.05 net prop with
  | Error _ -> print_endline "certification failed (unexpected)"
  | Ok session ->
    Printf.printf "certified in %.2fs\n"
      (Cv_core.Session.artifact session).Cv_artifacts.Artifacts.solve_seconds;

    section "3. Operations: faster intruders than seen in training";
    (* Deployment encounters intruders up to v_int = 0.72. *)
    let ood = ref 0 in
    for _ = 1 to 400 do
      let x = Cv_interval.Box.sample rng train_region in
      x.(4) <- Cv_util.Rng.float rng ~lo:0. ~hi:0.72;
      match Cv_core.Session.observe session x with
      | Cv_monitor.Monitor.Ood _ -> incr ood
      | _ -> ()
    done;
    Printf.printf "OOD encounters: %d (pending %d)\n" !ood
      (Cv_core.Session.pending_ood session);

    section "4. SVuDC: absorb the enlarged operating region";
    print_round (Cv_core.Session.absorb_enlargement ~margin:0.002 session);

    section "5. SVbTV: adopt a fine-tuned advisory network";
    let more =
      List.init 200 (fun _ ->
          let x =
            Cv_interval.Box.sample rng
              (Cv_core.Session.property session).Cv_verify.Property.din
          in
          { Cv_nn.Train.input = x; target = expert_scores x })
    in
    let tuned, _ = Cv_nn.Train.fine_tune net more in
    Printf.printf "drift: %.5f\n" (Cv_nn.Network.param_dist_inf net tuned);
    print_round (Cv_core.Session.adopt session tuned);

    section "6. Audit trail";
    List.iter
      (fun e -> Printf.printf "  - %s\n" (Cv_core.Session.event_string e))
      (Cv_core.Session.history session);

    section "6b. ACAS-style argmax property";
    (* "Strong-right is never the advisory when the intruder is far and
       slow" — verified exactly over the sub-region. *)
    let far_slow =
      Cv_interval.Box.of_bounds [| 0.8; 0.; 0.; 0.; 0. |]
        [| 1.; 1.; 1.; 1.; 0.3 |]
    in
    (match
       Cv_verify.Argmax.never_maximal Cv_verify.Containment.Milp
         (Cv_core.Session.network session)
         ~output:4 (* SR *) ~region:far_slow ~margin:0.0
     with
    | Cv_verify.Argmax.Holds ->
      print_endline "PROVED: SR is never the advisory for far, slow intruders"
    | Cv_verify.Argmax.Fails x ->
      Printf.printf "counterexample: SR chosen at %s\n"
        (Cv_linalg.Vec.to_string x)
    | Cv_verify.Argmax.Unknown m -> Printf.printf "unknown: %s\n" m);
    let gap =
      Cv_verify.Argmax.score_gap (Cv_core.Session.network session) ~output:0
        ~region:far_slow
    in
    Printf.printf
      "certified COC decision margin on that region: %.3f (negative = COC always wins)\n"
      gap;

    section "6c. Local robustness at a benign encounter";
    let x0 = [| 0.9; 0.5; 0.1; 0.5; 0.2 |] in
    let r =
      Cv_verify.Robustness.certified_radius (Cv_core.Session.network session)
        ~x:x0 ~delta:0.1
    in
    Printf.printf "certified L∞ radius for output deviation <= 0.1: %.4f\n" r;

    section "7. Export for other verifiers (.nnet)";
    let path = Filename.temp_file "advisory" ".nnet" in
    Cv_nn.Nnet.save path
      (Cv_nn.Nnet.of_network
         ~input_box:(Cv_core.Session.property session).Cv_verify.Property.din
         (Cv_core.Session.network session));
    Printf.printf "wrote %s (%d bytes)\n" path
      (let ic = open_in path in
       let n = in_channel_length ic in
       close_in ic;
       n);
    Sys.remove path;

    (* Sanity: how often does the certified network's argmax advisory
       agree with the expert policy across the operating region? (The
       certificate bounds scores; advisory agreement is a separate,
       statistical property — reported honestly here.) *)
    section "8. Advisory agreement with the expert policy";
    let argmax v =
      let best = ref 0 in
      Array.iteri (fun i x -> if x > v.(!best) then best := i) v;
      !best
    in
    let agree = ref 0 and total = 500 in
    let din = (Cv_core.Session.property session).Cv_verify.Property.din in
    for _ = 1 to total do
      let x = Cv_interval.Box.sample rng din in
      let net_adv =
        argmax (Cv_nn.Network.eval (Cv_core.Session.network session) x)
      in
      if net_adv = argmax (expert_scores x) then incr agree
    done;
    Printf.printf "argmax agreement over %d encounters: %.1f%%\n" total
      (100. *. float_of_int !agree /. float_of_int total);
    List.iter
      (fun (name, x) ->
        let scores = Cv_nn.Network.eval (Cv_core.Session.network session) x in
        Printf.printf "  %-8s net=%s expert=%s\n" name
          advisories.(argmax scores)
          advisories.(argmax (expert_scores x)))
      [ ("benign", [| 0.9; 0.5; 0.1; 0.5; 0.2 |]);
        ("threat", [| 0.02; 0.9; 0.0; 0.2; 0.7 |]) ])
