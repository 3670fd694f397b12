(* Tests for Cv_core.Session: the stateful continuous-verification
   loop — certify, observe, absorb enlargements, adopt versions,
   retarget specifications; rejected transitions leave the session
   unchanged. *)

let small_net seed =
  Cv_nn.Network.random ~rng:(Cv_util.Rng.create seed) ~dims:[ 3; 6; 5; 1 ]
    ~act:Cv_nn.Activation.Relu ()

let din3 = Cv_interval.Box.uniform 3 ~lo:0. ~hi:1.

let verdict_name (r : Cv_core.Batch.job_result) =
  Cv_core.Batch.verdict_name r.Cv_core.Batch.verdict

let certified_session ?(seed = 5) () =
  let net = small_net seed in
  let chain =
    Cv_domains.Analyzer.abstractions ~widen:0.05 Cv_domains.Analyzer.Symint net
      din3
  in
  let dout = Cv_interval.Box.expand 0.05 (chain.(Array.length chain - 1)) in
  let prop = Cv_verify.Property.make ~din:din3 ~dout in
  match Cv_core.Session.certify ~widen:0.05 net prop with
  | Ok s -> (s, net, prop)
  | Error _ -> Alcotest.fail "certification should succeed"

let test_certify_opens_session () =
  let s, net, prop = certified_session () in
  Alcotest.(check bool) "network installed" true
    (Cv_nn.Network.param_dist_inf (Cv_core.Session.network s) net = 0.);
  Alcotest.(check bool) "property matches" true
    (Cv_interval.Box.equal
       (Cv_core.Session.property s).Cv_verify.Property.din
       prop.Cv_verify.Property.din);
  Alcotest.(check int) "no pending ood" 0 (Cv_core.Session.pending_ood s);
  match Cv_core.Session.history s with
  | [ Cv_core.Session.Certified _ ] -> ()
  | _ -> Alcotest.fail "history should contain exactly the certification"

let test_certify_rejects_unsafe_property () =
  let net = small_net 5 in
  (* D_out strictly inside the reachable range: certification fails. *)
  let prop =
    Cv_verify.Property.make ~din:din3
      ~dout:(Cv_interval.Box.of_bounds [| 1e10 |] [| 1e10 +. 1. |])
  in
  match Cv_core.Session.certify net prop with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject"

let test_observe_and_absorb () =
  let s, net, prop = certified_session () in
  (* In-domain observation: nothing pending. *)
  Alcotest.(check bool) "in-domain passes" true
    (Cv_core.Session.observe s (Cv_interval.Box.center din3)
    = Cv_monitor.Monitor.In_distribution);
  (* Slightly out-of-domain observation. *)
  let outlier = Array.map (fun x -> x +. 0.003) (Cv_interval.Box.upper din3) in
  Alcotest.(check bool) "outlier flagged" true
    (match Cv_core.Session.observe s outlier with
    | Cv_monitor.Monitor.Ood _ -> true
    | _ -> false);
  Alcotest.(check int) "pending" 1 (Cv_core.Session.pending_ood s);
  let report = Cv_core.Session.absorb_enlargement ~margin:0.001 s in
  Alcotest.(check string) "expected safe absorb" "safe" (verdict_name report);
  Alcotest.(check int) "ood cleared" 0 (Cv_core.Session.pending_ood s);
  (* The enlarged domain is now certified: the same outlier passes. *)
  Alcotest.(check bool) "outlier now in-domain" true
    (Cv_core.Session.observe s outlier = Cv_monitor.Monitor.In_distribution);
  (* The refreshed artifact covers the enlarged domain. *)
  Alcotest.(check bool) "artifact din enlarged" true
    (Cv_interval.Box.subset prop.Cv_verify.Property.din
       (Cv_core.Session.property s).Cv_verify.Property.din);
  ignore net

let test_adopt_good_candidate () =
  let s, net, _ = certified_session () in
  let candidate =
    Cv_nn.Network.map_layers
      (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create 9) ~sigma:0.001)
      net
  in
  let report = Cv_core.Session.adopt s candidate in
  Alcotest.(check string) "expected adoption" "safe" (verdict_name report);
  Alcotest.(check (float 1e-12)) "candidate installed" 0.
    (Cv_nn.Network.param_dist_inf (Cv_core.Session.network s) candidate)

let test_adopt_rejects_wild_candidate () =
  let s, net, _ = certified_session () in
  let wild =
    Cv_nn.Network.map_layers
      (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create 11) ~sigma:2.0)
      net
  in
  let report = Cv_core.Session.adopt s wild in
  match report.Cv_core.Batch.verdict with
  | Cv_core.Batch.Safe ->
    (* If the strategy proves it safe, installation is fine — but then
       sampling must agree. *)
    let dout = (Cv_core.Session.property s).Cv_verify.Property.dout in
    let rng = Cv_util.Rng.create 3 in
    for _ = 1 to 1000 do
      let x = Cv_interval.Box.sample rng din3 in
      Alcotest.(check bool) "claimed safe holds" true
        (Cv_interval.Box.mem_tol ~tol:1e-7 (Cv_nn.Network.eval wild x) dout)
    done
  | _ ->
    (* Rejected: the old network must still be installed. *)
    Alcotest.(check (float 1e-12)) "old version kept" 0.
      (Cv_nn.Network.param_dist_inf (Cv_core.Session.network s) net)

let test_retarget () =
  let s, _, prop = certified_session () in
  (* Relaxing the specification always transfers. *)
  let relaxed = Cv_interval.Box.expand 1.0 prop.Cv_verify.Property.dout in
  let report = Cv_core.Session.retarget s relaxed in
  Alcotest.(check string) "expected retarget" "safe" (verdict_name report);
  Alcotest.(check bool) "new dout installed" true
    (Cv_interval.Box.equal
       (Cv_core.Session.property s).Cv_verify.Property.dout
       relaxed)

let test_history_accumulates () =
  let s, net, prop = certified_session () in
  ignore (Cv_core.Session.observe s (Array.map (fun x -> x +. 0.002) (Cv_interval.Box.upper din3)));
  ignore (Cv_core.Session.absorb_enlargement ~margin:0.001 s);
  ignore
    (Cv_core.Session.adopt s
       (Cv_nn.Network.map_layers
          (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create 13) ~sigma:0.0005)
          net));
  ignore (Cv_core.Session.retarget s (Cv_interval.Box.expand 0.5 prop.Cv_verify.Property.dout));
  let h = Cv_core.Session.history s in
  Alcotest.(check bool) "at least 4 events" true (List.length h >= 4);
  List.iter
    (fun e ->
      Alcotest.(check bool) "printable" true
        (String.length (Cv_core.Session.event_string e) > 0))
    h

let test_resume_from_artifact () =
  let s, net, _ = certified_session () in
  let artifact = Cv_core.Session.artifact s in
  let s2 = Cv_core.Session.resume net artifact in
  Alcotest.(check int) "fresh monitor" 0 (Cv_core.Session.pending_ood s2);
  (* Mismatched network rejected. *)
  try
    ignore (Cv_core.Session.resume (small_net 77) artifact);
    Alcotest.fail "should reject mismatch"
  with Invalid_argument _ -> ()

let temp_artifact_path () =
  Filename.temp_file "contiver-test-artifact" ".json"

let test_resume_file_roundtrip () =
  let s, net, _ = certified_session () in
  let path = temp_artifact_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cv_artifacts.Artifacts.save path (Cv_core.Session.artifact s);
      (match Cv_core.Session.resume_file net path with
      | Ok s2 -> Alcotest.(check int) "resumed" 0 (Cv_core.Session.pending_ood s2)
      | Error e ->
        Alcotest.failf "resume_file should succeed: %s"
          (Cv_core.Session.resume_error_message e));
      (* A different network is a typed mismatch, not an exception. *)
      match Cv_core.Session.resume_file (small_net 77) path with
      | Error (Cv_core.Session.Artifact_mismatch _) -> ()
      | Error e ->
        Alcotest.failf "expected mismatch: %s"
          (Cv_core.Session.resume_error_message e)
      | Ok _ -> Alcotest.fail "mismatched network must be rejected")

let test_resume_file_truncated_artifact () =
  (* Fault injection: the artifact write stops halfway through, as if
     the process died mid-save with a non-atomic writer. Resume must
     fail with a typed Corrupt_artifact — and a fresh certification must
     still succeed afterwards (the session layer recovers). *)
  let s, net, prop = certified_session () in
  let path = temp_artifact_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cv_util.Fault.with_fault Cv_util.Fault.Truncate_artifact (fun () ->
          Cv_artifacts.Artifacts.save path (Cv_core.Session.artifact s));
      (match Cv_core.Session.resume_file net path with
      | Error (Cv_core.Session.Corrupt_artifact _) -> ()
      | Error e ->
        Alcotest.failf "expected Corrupt_artifact: %s"
          (Cv_core.Session.resume_error_message e)
      | Ok _ -> Alcotest.fail "truncated artifact must not resume");
      (* Recovery: re-certify from scratch and persist a good artifact. *)
      match Cv_core.Session.certify ~widen:0.05 net prop with
      | Error _ -> Alcotest.fail "re-certification should succeed"
      | Ok s2 -> (
        Cv_artifacts.Artifacts.save path (Cv_core.Session.artifact s2);
        match Cv_core.Session.resume_file net path with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "clean save should resume: %s"
            (Cv_core.Session.resume_error_message e)))

let test_resume_file_checksum_mismatch () =
  let s, net, _ = certified_session () in
  let path = temp_artifact_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cv_artifacts.Artifacts.save path (Cv_core.Session.artifact s);
      (* Flip one digit inside the payload: the document still parses,
         but the stored checksum no longer matches. *)
      let ic = open_in_bin path in
      let content =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let corrupted =
        match String.index_opt content '7' with
        | Some i ->
          String.mapi (fun j c -> if j = i then '8' else c) content
        | None -> (
          match String.index_opt content '3' with
          | Some i -> String.mapi (fun j c -> if j = i then '4' else c) content
          | None -> Alcotest.fail "artifact should contain a digit")
      in
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc corrupted);
      match Cv_core.Session.resume_file net path with
      | Error (Cv_core.Session.Corrupt_artifact msg) ->
        Alcotest.(check bool) "mentions the checksum" true
          (String.length msg > 0)
      | Error e ->
        Alcotest.failf "expected Corrupt_artifact: %s"
          (Cv_core.Session.resume_error_message e)
      | Ok _ -> Alcotest.fail "bit-flipped artifact must not resume")

let test_adopt_budget_exhausted () =
  (* A spent budget during adopt must leave the session unchanged and
     record a Budget_exhausted event — the old certificate keeps
     standing. *)
  let s, net, prop = certified_session () in
  let artifact_before = Cv_core.Session.artifact s in
  let candidate =
    Cv_nn.Network.map_layers
      (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create 9) ~sigma:0.001)
      net
  in
  let report =
    Cv_core.Session.adopt
      ~deadline:(Cv_util.Deadline.make ~seconds:(-1.))
      s candidate
  in
  Alcotest.(check string) "expected Exhausted" "exhausted"
    (verdict_name report);
  Alcotest.(check (float 1e-12)) "old network kept" 0.
    (Cv_nn.Network.param_dist_inf (Cv_core.Session.network s) net);
  Alcotest.(check bool) "artifact untouched" true
    (Cv_core.Session.artifact s == artifact_before);
  Alcotest.(check bool) "property unchanged" true
    (Cv_interval.Box.equal
       (Cv_core.Session.property s).Cv_verify.Property.din
       prop.Cv_verify.Property.din);
  match List.rev (Cv_core.Session.history s) with
  | Cv_core.Session.Budget_exhausted _ :: _ -> ()
  | _ -> Alcotest.fail "newest event should be Budget_exhausted"

let () =
  Alcotest.run "cv_session"
    [ ( "session",
        [ Alcotest.test_case "certify" `Quick test_certify_opens_session;
          Alcotest.test_case "certify rejects unsafe" `Quick
            test_certify_rejects_unsafe_property;
          Alcotest.test_case "observe+absorb" `Quick test_observe_and_absorb;
          Alcotest.test_case "adopt good candidate" `Quick
            test_adopt_good_candidate;
          Alcotest.test_case "adopt wild candidate" `Quick
            test_adopt_rejects_wild_candidate;
          Alcotest.test_case "retarget" `Quick test_retarget;
          Alcotest.test_case "history" `Quick test_history_accumulates;
          Alcotest.test_case "resume" `Quick test_resume_from_artifact ] );
      ( "robustness",
        [ Alcotest.test_case "resume_file roundtrip" `Quick
            test_resume_file_roundtrip;
          Alcotest.test_case "truncated artifact" `Quick
            test_resume_file_truncated_artifact;
          Alcotest.test_case "checksum mismatch" `Quick
            test_resume_file_checksum_mismatch;
          Alcotest.test_case "adopt exhausts budget" `Quick
            test_adopt_budget_exhausted ] ) ]
