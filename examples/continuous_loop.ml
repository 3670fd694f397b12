(* The continuous-engineering loop over several iterations, driven
   through one Cv_core.Session (the state machine `contiver serve` also
   drives), exercising every reuse route in the library:

     iteration 1: deploy -> black swans -> SVuDC (domain enlargement)
                  -> commit the enlarged domain
     iteration 2: fine-tune -> SVbTV (prop-diff / prop4) -> adopt
     iteration 3: the specification evolves -> SVuSC (spec change)
     finale     : backward analysis locates the remaining risk

   Run with: dune exec examples/continuous_loop.exe *)

module Session = Cv_core.Session
module Batch = Cv_core.Batch

let section title = Printf.printf "\n=== %s ===\n" title

let outcome (r : Batch.job_result) original =
  Printf.sprintf "%s, decided by %s (%.3f%% of original)"
    (Batch.verdict_name r.Batch.verdict)
    (Option.value ~default:"-" r.Batch.decisive)
    (100. *. Cv_core.Strategy.ratio ~incremental:r.Batch.seconds ~original)

let () =
  section "Setup: platform, training, initial certification";
  let exp = Cv_vehicle.Pipeline.build () in
  let head0 = exp.Cv_vehicle.Pipeline.heads.(0) in
  let prop0 = Cv_vehicle.Pipeline.property exp in
  let original = Cv_core.Strategy.solve_original_exact head0 prop0 in
  let orig_t =
    original.Cv_core.Strategy.artifact.Cv_artifacts.Artifacts.solve_seconds
  in
  Printf.printf "original certification: proved=%b in %.2fs\n"
    original.Cv_core.Strategy.proved orig_t;
  (* Refresh with the original solve's slack: a refreshed chain is kept
     only while its last box still fits inside D_out. *)
  let session =
    Session.resume ~widen:0.02 head0 original.Cv_core.Strategy.artifact
  in

  section "Iteration 1 — deployment hits black swans (SVuDC)";
  let rng = Cv_util.Rng.create 2026 in
  let state = Cv_vehicle.Controller.init exp.Cv_vehicle.Pipeline.track ~s:0. in
  (* The controller flags frames against its own copy of the certified
     box; every frame's features then go through the session. *)
  let _, telemetry =
    Cv_vehicle.Controller.drive ~conditions:Cv_vehicle.Camera.shifted ~rng
      ~track:exp.Cv_vehicle.Pipeline.track
      ~perception:exp.Cv_vehicle.Pipeline.perception
      ~monitor:(Cv_monitor.Monitor.of_box (Session.box session))
      ~steps:250 state
  in
  List.iter
    (fun t ->
      ignore (Session.observe session t.Cv_vehicle.Controller.t_features))
    telemetry;
  Printf.printf "monitor: %d OOD events, kappa = %.4f\n"
    (Session.pending_ood session) (Session.kappa session);
  let r1 = Session.absorb_enlargement ~margin:0.005 session in
  Printf.printf "SVuDC: %s\n" (outcome r1 orig_t);
  Printf.printf "certified D_in width %.4f, %d events still pending\n"
    (Cv_interval.Box.total_width (Session.box session))
    (Session.pending_ood session);

  section "Iteration 2 — fine-tuning (SVbTV with the differential route)";
  let head1 = exp.Cv_vehicle.Pipeline.heads.(1) in
  Printf.printf "parameter drift: %.5f\n" (Cv_vehicle.Pipeline.drift exp 1);
  (* Show the differential route on its own first. *)
  let svbtv =
    Cv_core.Problem.svbtv ~old_net:(Session.network session) ~new_net:head1
      ~artifact:(Session.artifact session) ~new_din:(Session.box session)
  in
  let pdiff = Cv_core.Diff_reuse.prop_diff svbtv in
  Printf.printf "prop-diff alone: %s (%s)\n"
    (match pdiff.Cv_core.Report.outcome with
    | Cv_core.Report.Safe -> "safe"
    | Cv_core.Report.Unsafe _ -> "unsafe"
    | Cv_core.Report.Inconclusive m -> "inconclusive: " ^ m
    | Cv_core.Report.Exhausted m -> "exhausted: " ^ m)
    pdiff.Cv_core.Report.detail;
  let r2 = Session.adopt session head1 in
  Printf.printf "SVbTV: %s; deployed: head %d\n" (outcome r2 orig_t)
    (if Session.network session == head1 then 1 else 0);

  section "Iteration 3 — the specification evolves (SVuSC)";
  (* Safety engineers tighten the certified output envelope to the
     deployed network's reach + a small margin, then relax it. *)
  let reach =
    Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint
      (Session.network session) (Session.box session)
  in
  let r3 = Session.retarget session (Cv_interval.Box.expand 0.02 reach) in
  Printf.printf "SVuSC (tightened D_out): %s\n" (outcome r3 orig_t);
  let relaxed =
    Cv_interval.Box.expand 1.0
      (Session.property session).Cv_verify.Property.dout
  in
  let r3b = Session.retarget session relaxed in
  Printf.printf "SVuSC (relaxed D_out): %s\n" (outcome r3b orig_t);

  section "Finale — backward analysis of the remaining risk";
  let din = Session.box session in
  let suspects =
    Cv_verify.Backward.suspect_regions (Session.network session) ~din
      ~dout:(Session.property session).Cv_verify.Property.dout
  in
  List.iter
    (fun s -> Format.printf "%a@." Cv_verify.Backward.pp_suspect s)
    suspects;
  Printf.printf
    "suspect coverage: %.1f%% of the domain width%s\n"
    (100. *. Cv_verify.Backward.total_suspect_volume ~din suspects)
    (if Cv_verify.Backward.all_safe suspects then
       " — the LP relaxation alone certifies the property"
     else "");

  section "Audit trail";
  List.iter
    (fun e -> Printf.printf "  - %s\n" (Session.event_string e))
    (Session.history session)
