(* Tests for the PR-6 resilience layer, part 1: checkpoint cadence and
   layering, capture-and-resume equivalence of the exact search (the
   "kill at any checkpoint, resume, same verdict" property), the typed
   Runstate envelope, and crash-safety of the artifact writer. *)

module J = Cv_util.Json

let fig2_net () =
  Cv_nn.Network.of_list
    [ Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 1.; -2. |]; [| -2.; 1. |]; [| 1.; -1. |] ])
        [| 0.; 0.; 0. |] Cv_nn.Activation.Relu;
      Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 2.; 2.; -1. |] ])
        [| 0. |] Cv_nn.Activation.Relu ]

let fig2_box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.

let tmp_file () = Filename.temp_file "contiver_ck_test" ".json"

(* ------------------------------------------------------------------ *)
(* Checkpoint sinks                                                    *)
(* ------------------------------------------------------------------ *)

let test_cadence () =
  let writes = ref 0 in
  let slow = Cv_util.Checkpoint.create ~every:1e9 (fun _ -> incr writes) in
  Cv_util.Checkpoint.tick slow (fun () -> J.Null);
  Alcotest.(check int) "cadence suppresses the tick" 0 !writes;
  Cv_util.Checkpoint.save slow (fun () -> J.Null);
  Alcotest.(check int) "save writes unconditionally" 1 !writes;
  let eager = Cv_util.Checkpoint.create ~every:0. (fun _ -> incr writes) in
  Cv_util.Checkpoint.tick eager (fun () -> J.Null);
  Cv_util.Checkpoint.tick eager (fun () -> J.Null);
  Alcotest.(check int) "zero cadence writes on every tick" 3 !writes

let test_wrap_layers () =
  let writes = ref [] in
  let sink =
    Cv_util.Checkpoint.create ~every:1e9 (fun j -> writes := j :: !writes)
  in
  let wrapped =
    Cv_util.Checkpoint.wrap sink (fun j -> J.Obj [ ("inner", j) ])
  in
  Cv_util.Checkpoint.save wrapped (fun () -> J.Bool true);
  (match !writes with
  | [ J.Obj [ ("inner", J.Bool true) ] ] -> ()
  | _ -> Alcotest.fail "wrap must layer the transformer under the sink");
  (* The wrap shares the cadence state: the save above reset it, so a
     tick on the underlying sink stays suppressed. *)
  Cv_util.Checkpoint.tick sink (fun () -> J.Null);
  Alcotest.(check int) "wrap shares cadence with the base sink" 1
    (List.length !writes)

(* ------------------------------------------------------------------ *)
(* Capture-and-resume equivalence                                      *)
(* ------------------------------------------------------------------ *)

(* Run the exact range computation once, capturing EVERY checkpoint
   snapshot it offers (cadence zero). Each snapshot is a moment a real
   run could have been SIGKILLed right after persisting; resuming from
   it must reproduce the uninterrupted result exactly. *)
let capture_all net ~din =
  let snaps = ref [] in
  let sink = Cv_util.Checkpoint.create ~every:0. (fun j -> snaps := j :: !snaps) in
  let baseline = Cv_verify.Range.exact_range ~checkpoint:sink net ~din in
  (baseline, List.rev !snaps)

let check_box name expected actual =
  Alcotest.(check (array (float 1e-9)))
    (name ^ " (lower)")
    (Cv_interval.Box.lower expected)
    (Cv_interval.Box.lower actual);
  Alcotest.(check (array (float 1e-9)))
    (name ^ " (upper)")
    (Cv_interval.Box.upper expected)
    (Cv_interval.Box.upper actual)

let test_resume_equivalence_range () =
  let net = fig2_net () in
  let baseline, snaps = capture_all net ~din:fig2_box in
  Alcotest.(check bool) "captured at least one snapshot" true (snaps <> []);
  List.iteri
    (fun i snap ->
      let resumed = Cv_verify.Range.exact_range ~resume:snap net ~din:fig2_box in
      check_box
        (Printf.sprintf "range after resume from snapshot %d" i)
        baseline.Cv_verify.Range.range resumed.Cv_verify.Range.range)
    snaps

let verdict_label = function
  | Cv_verify.Containment.Proved -> "proved"
  | Cv_verify.Containment.Violated _ -> "violated"
  | Cv_verify.Containment.Unknown u ->
    "unknown:" ^ Cv_verify.Containment.reason_name u.Cv_verify.Containment.reason

(* The same property across verdict kinds: a provable and a falsifiable
   output box. Every snapshot of the run must resume to the identical
   verdict. *)
let test_resume_equivalence_verdicts () =
  let net = fig2_net () in
  List.iter
    (fun (name, hi) ->
      let prop =
        Cv_verify.Property.make ~din:fig2_box
          ~dout:(Cv_interval.Box.of_bounds [| -1. |] [| hi |])
      in
      let snaps = ref [] in
      let sink =
        Cv_util.Checkpoint.create ~every:0. (fun j -> snaps := j :: !snaps)
      in
      let baseline, _ = Cv_verify.Range.verify_exact ~checkpoint:sink net prop in
      List.iteri
        (fun i snap ->
          let resumed, _ = Cv_verify.Range.verify_exact ~resume:snap net prop in
          Alcotest.(check string)
            (Printf.sprintf "%s verdict after resume from snapshot %d" name i)
            (verdict_label baseline) (verdict_label resumed))
        (List.rev !snaps))
    [ ("provable", 13.); ("falsifiable", 5.) ]

(* ------------------------------------------------------------------ *)
(* Runstate envelope                                                   *)
(* ------------------------------------------------------------------ *)

let fp = "deadbeef"

let save_ck ?scope path payload =
  Cv_core.Runstate.save ?scope ~path ~kind:Cv_core.Runstate.Verify
    ~fingerprint:fp payload

let load_ck ?(kind = Cv_core.Runstate.Verify) ?(fingerprint = fp)
    ?(scope = None) path =
  Cv_core.Runstate.load ~path ~kind ~fingerprint ~scope

let test_runstate_roundtrip () =
  let path = tmp_file () in
  let payload = J.Obj [ ("nodes", J.Num 17.) ] in
  save_ck path payload;
  (match load_ck path with
  | Ok p -> Alcotest.(check string) "payload" (J.to_string payload) (J.to_string p)
  | Error e -> Alcotest.fail (Cv_core.Runstate.resume_error_message e));
  Sys.remove path

let test_runstate_mismatches () =
  let path = tmp_file () in
  save_ck path J.Null;
  (match load_ck ~kind:Cv_core.Runstate.Serve path with
  | Error (Cv_core.Runstate.Checkpoint_mismatch msg) ->
    Alcotest.(check bool) "kind mismatch names both kinds" true
      (let has s sub =
         let n = String.length sub in
         let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
         go 0
       in
       has msg "verify" && has msg "serve")
  | Ok _ -> Alcotest.fail "wrong-kind checkpoint must be refused"
  | Error (Cv_core.Runstate.Corrupt_checkpoint msg) ->
    Alcotest.fail ("wrong-kind misreported as corrupt: " ^ msg));
  (match load_ck ~fingerprint:"cafef00d" path with
  | Error (Cv_core.Runstate.Checkpoint_mismatch _) -> ()
  | _ -> Alcotest.fail "wrong-network checkpoint must be refused");
  Sys.remove path

(* Scope validation: a checkpoint is bound to the property it was taken
   for. A loader expecting a scope refuses both a different scope and a
   scope-less file; a loader without expectations still reads both. *)
let test_runstate_scope () =
  let path = tmp_file () in
  save_ck ~scope:"prop-a" path J.Null;
  (match load_ck ~scope:(Some "prop-a") path with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Cv_core.Runstate.resume_error_message e));
  (match load_ck ~scope:(Some "prop-b") path with
  | Error (Cv_core.Runstate.Checkpoint_mismatch _) -> ()
  | _ -> Alcotest.fail "wrong-property checkpoint must be refused");
  (* A caller without a scope expectation (legacy paths) still loads. *)
  (match load_ck path with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Cv_core.Runstate.resume_error_message e));
  (* An unscoped file cannot prove what it was taken for. *)
  save_ck path J.Null;
  (match load_ck ~scope:(Some "prop-a") path with
  | Error (Cv_core.Runstate.Checkpoint_mismatch _) -> ()
  | _ -> Alcotest.fail "scope-less checkpoint must be refused when a scope \
                        is expected");
  Sys.remove path

let test_runstate_corruption () =
  let path = tmp_file () in
  let oc = open_out path in
  output_string oc "{\"format\":\"contiver-checkpoint\",\"version\":2,";
  close_out oc;
  (match load_ck path with
  | Error (Cv_core.Runstate.Corrupt_checkpoint _) -> ()
  | _ -> Alcotest.fail "truncated checkpoint must be rejected as corrupt");
  (* Valid envelope, bit-flipped payload: the checksum must catch it. *)
  save_ck path (J.Obj [ ("nodes", J.Num 17.) ]);
  let doc = In_channel.with_open_text path In_channel.input_all in
  let flipped =
    String.map (fun c -> if c = '7' then '9' else c) doc
  in
  let oc = open_out path in
  output_string oc flipped;
  close_out oc;
  (match load_ck path with
  | Error (Cv_core.Runstate.Corrupt_checkpoint _) -> ()
  | Ok _ -> Alcotest.fail "checksum must catch a bit-flipped payload"
  | Error (Cv_core.Runstate.Checkpoint_mismatch _) ->
    Alcotest.fail "bit flip misreported as mismatch");
  (match load_ck "/nonexistent/contiver.ck.json" with
  | Error (Cv_core.Runstate.Corrupt_checkpoint _) -> ()
  | _ -> Alcotest.fail "missing checkpoint file must be a typed error");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Artifact writer crash-safety                                        *)
(* ------------------------------------------------------------------ *)

(* Concurrent writers to one path must never interleave: each save goes
   through a unique temp file and an atomic rename, so afterwards the
   file is exactly one writer's intact document. *)
let test_concurrent_saves_intact () =
  let path = tmp_file () in
  let writers = [ 0; 1; 2; 3 ] in
  ignore
    (Cv_util.Parallel.map_list ~domains:4
       (fun w ->
         for i = 0 to 24 do
           save_ck path
             (J.Obj [ ("writer", J.Num (float_of_int w));
                      ("i", J.Num (float_of_int i)) ])
         done)
       writers);
  (match load_ck path with
  | Ok (J.Obj fields) -> (
    match List.assoc_opt "writer" fields with
    | Some (J.Num w) ->
      Alcotest.(check bool) "payload is one intact write" true
        (List.mem (int_of_float w) writers)
    | _ -> Alcotest.fail "payload lost its writer field")
  | Ok _ -> Alcotest.fail "payload shape changed"
  | Error e -> Alcotest.fail (Cv_core.Runstate.resume_error_message e));
  Sys.remove path

(* A write killed mid-checkpoint abandons its temp file and leaves the
   previous checkpoint untouched and loadable. *)
let test_kill_mid_checkpoint_keeps_previous () =
  let path = tmp_file () in
  let before = J.Obj [ ("round", J.Num 1.) ] in
  save_ck path before;
  Cv_util.Fault.with_fault ~mode:Cv_util.Fault.Once
    Cv_util.Fault.Kill_mid_checkpoint (fun () ->
      match save_ck path (J.Obj [ ("round", J.Num 2.) ]) with
      | () -> Alcotest.fail "armed kill-mid-checkpoint must raise"
      | exception Cv_util.Fault.Killed _ -> ());
  (match load_ck path with
  | Ok p ->
    Alcotest.(check string) "previous checkpoint intact"
      (J.to_string before) (J.to_string p)
  | Error e -> Alcotest.fail (Cv_core.Runstate.resume_error_message e));
  (* And with the fault gone, the next save goes through. *)
  save_ck path (J.Obj [ ("round", J.Num 3.) ]);
  (match load_ck path with
  | Ok (J.Obj [ ("round", J.Num 3.) ]) -> ()
  | _ -> Alcotest.fail "post-fault save must land");
  Sys.remove path

let () =
  Alcotest.run "cv_checkpoint"
    [ ( "sink",
        [ Alcotest.test_case "cadence" `Quick test_cadence;
          Alcotest.test_case "wrap layers" `Quick test_wrap_layers ] );
      ( "resume",
        [ Alcotest.test_case "range equivalence" `Quick
            test_resume_equivalence_range;
          Alcotest.test_case "verdict equivalence" `Quick
            test_resume_equivalence_verdicts ] );
      ( "runstate",
        [ Alcotest.test_case "roundtrip" `Quick test_runstate_roundtrip;
          Alcotest.test_case "mismatches" `Quick test_runstate_mismatches;
          Alcotest.test_case "property scope" `Quick test_runstate_scope;
          Alcotest.test_case "corruption" `Quick test_runstate_corruption ] );
      ( "artifact-writer",
        [ Alcotest.test_case "concurrent saves" `Quick
            test_concurrent_saves_intact;
          Alcotest.test_case "kill mid-checkpoint" `Quick
            test_kill_mid_checkpoint_keeps_previous ] ) ]
