(* Quickstart: verify a network once, then keep the proof alive across a
   domain enlargement and a fine-tuning step.

   Run with: dune exec examples/quickstart.exe *)

let section title =
  Printf.printf "\n=== %s ===\n" title

let () =
  section "1. A trained network and its safety property";
  (* A small ReLU regression network standing in for a perception head.
     In a real project this would come from Cv_nn.Serialize.load_network. *)
  let rng = Cv_util.Rng.create 42 in
  let net =
    Cv_nn.Network.random ~rng ~dims:[ 4; 8; 6; 1 ] ~act:Cv_nn.Activation.Relu ()
  in
  print_string (Cv_nn.Describe.layer_table net);
  let din = Cv_interval.Box.uniform 4 ~lo:0. ~hi:1. in
  (* Certify the output range given by the widened abstraction chain:
     the widening (here 0.05 per neuron) is the slack that later absorbs
     fine-tuning drift. *)
  let chain =
    Cv_domains.Analyzer.abstractions ~widen:0.05 Cv_domains.Analyzer.Box net
      din
  in
  let dout = chain.(Array.length chain - 1) in
  let prop = Cv_verify.Property.make ~din ~dout in
  Format.printf "%a@." Cv_verify.Property.pp prop;

  section "2. Original verification (exact, produces proof artifacts)";
  let original = Cv_core.Strategy.solve_original_exact ~widen:0.05 net prop in
  Printf.printf "proved: %b  in %.3fs  (solver: %s)\n"
    original.Cv_core.Strategy.proved
    original.Cv_core.Strategy.artifact.Cv_artifacts.Artifacts.solve_seconds
    original.Cv_core.Strategy.artifact.Cv_artifacts.Artifacts.solver;
  Printf.printf "artifacts: state abstractions: %b, Lipschitz constants: %s\n"
    (original.Cv_core.Strategy.artifact.Cv_artifacts.Artifacts.state_abstractions
    <> None)
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%.3g" k v)
          original.Cv_core.Strategy.artifact.Cv_artifacts.Artifacts.lipschitz));
  let artifact = original.Cv_core.Strategy.artifact in

  section "3. SVuDC: the input domain grows (black swan observed)";
  (* Monitoring reported feature values slightly outside D_in. *)
  let new_din = Cv_interval.Box.expand 0.01 din in
  let svudc = Cv_core.Problem.svudc ~net ~artifact ~new_din in
  let report = Cv_core.Strategy.solve_svudc svudc in
  print_endline (Cv_core.Report.to_string report);
  Printf.printf "cost vs original: %.2f%%\n"
    (100.
    *. Cv_core.Strategy.ratio ~incremental:report.Cv_core.Report.total_wall
         ~original:artifact.Cv_artifacts.Artifacts.solve_seconds);

  section "4. SVbTV: the network is fine-tuned";
  (* Simulate a fine-tuning step (in the full pipeline this is real SGD;
     see examples/fine_tuning.ml). *)
  let net' =
    Cv_nn.Network.map_layers
      (Cv_nn.Layer.perturb ~rng ~sigma:0.002)
      net
  in
  Printf.printf "parameter drift (L-inf): %.5f\n"
    (Cv_nn.Network.param_dist_inf net net');
  let svbtv = Cv_core.Problem.svbtv ~old_net:net ~new_net:net' ~artifact ~new_din in
  let report' = Cv_core.Strategy.solve_svbtv svbtv in
  print_endline (Cv_core.Report.to_string report');
  Printf.printf "cost vs original: %.2f%%\n"
    (100.
    *. Cv_core.Strategy.ratio ~incremental:report'.Cv_core.Report.total_wall
         ~original:artifact.Cv_artifacts.Artifacts.solve_seconds);

  section "5. Persisting artifacts for the next engineering iteration";
  let path = Filename.temp_file "contiver_quickstart" ".json" in
  Cv_artifacts.Artifacts.save path artifact;
  let reloaded = Cv_artifacts.Artifacts.load path in
  Printf.printf "saved and reloaded proof artifact: fingerprints match: %b\n"
    (Cv_artifacts.Artifacts.matches reloaded net);
  Sys.remove path
