(* Tests for Cv_artifacts: fingerprints, bundle construction,
   persistence round-trips. *)

let net () =
  Cv_nn.Network.random ~rng:(Cv_util.Rng.create 42) ~dims:[ 3; 5; 4; 1 ]
    ~act:Cv_nn.Activation.Relu ()

let prop () =
  Cv_verify.Property.make
    ~din:(Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:1.)
    ~dout:(Cv_interval.Box.of_bounds [| -5. |] [| 5. |])

let make_artifact ?(with_abs = true) () =
  let n = net () in
  let s =
    if with_abs then
      Some
        (Cv_domains.Analyzer.abstractions Cv_domains.Analyzer.Symint n
           (prop ()).Cv_verify.Property.din)
    else None
  in
  Cv_artifacts.Artifacts.make ?state_abstractions:s
    ~lipschitz:[ ("Linf", 12.5); ("L2", 8.25) ]
    ~property:(prop ()) ~net:n ~solver:"milp" ~solve_seconds:1.5 ()

let test_fingerprint_stability () =
  let n = net () in
  Alcotest.(check string) "deterministic"
    (Cv_artifacts.Artifacts.fingerprint n)
    (Cv_artifacts.Artifacts.fingerprint n);
  let perturbed =
    Cv_nn.Network.map_layers
      (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create 1) ~sigma:0.001)
      n
  in
  Alcotest.(check bool) "sensitive to parameters" true
    (Cv_artifacts.Artifacts.fingerprint n
    <> Cv_artifacts.Artifacts.fingerprint perturbed)

(* The fingerprint of the fixed ReLU net is pinned: memoization and the
   single-buffer digest input must not change a stored key. Two domains
   fingerprinting one network concurrently both get it, and a perturbed
   copy does not. *)
let pinned_fingerprint = "v2:71ee3424ea249658c25f454543fd7fa4"

let test_fingerprint_pinned () =
  let n = net () in
  let spawn () = Domain.spawn (fun () -> Cv_artifacts.Artifacts.fingerprint n) in
  let d1 = spawn () and d2 = spawn () in
  Alcotest.(check string) "domain 1" pinned_fingerprint (Domain.join d1);
  Alcotest.(check string) "domain 2" pinned_fingerprint (Domain.join d2);
  Alcotest.(check string) "memoized" pinned_fingerprint
    (Cv_artifacts.Artifacts.fingerprint n);
  Alcotest.(check string) "fresh value, same content" pinned_fingerprint
    (Cv_artifacts.Artifacts.fingerprint (net ()));
  let perturbed =
    Cv_nn.Network.map_layers
      (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create 2) ~sigma:1e-9)
      n
  in
  Alcotest.(check bool) "perturbed copy differs" true
    (Cv_artifacts.Artifacts.fingerprint perturbed <> pinned_fingerprint)

(* Leaky-ReLU slopes are hashed by their bits: two nets that differ only
   in a slope [%g] prints alike must neither share a fingerprint nor
   accept each other's artifacts. *)
let test_fingerprint_leaky_slope () =
  let leaky s =
    Cv_nn.Network.random ~rng:(Cv_util.Rng.create 3) ~dims:[ 2; 4; 1 ]
      ~act:(Cv_nn.Activation.Leaky_relu s) ()
  in
  let a = leaky 0.1 and b = leaky 0.1000001 in
  Alcotest.(check string) "slopes print alike"
    (Cv_nn.Activation.to_string (Cv_nn.Network.layer a 0).Cv_nn.Layer.act)
    (Cv_nn.Activation.to_string (Cv_nn.Network.layer b 0).Cv_nn.Layer.act);
  Alcotest.(check bool) "distinct fingerprints" true
    (Cv_artifacts.Artifacts.fingerprint a <> Cv_artifacts.Artifacts.fingerprint b);
  let din = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let artifact =
    Cv_artifacts.Artifacts.make
      ~property:
        (Cv_verify.Property.make ~din
           ~dout:(Cv_interval.Box.of_bounds [| -100. |] [| 100. |]))
      ~net:a ~solver:"symint" ~solve_seconds:0. ()
  in
  Alcotest.(check bool) "own net matches" true
    (Cv_artifacts.Artifacts.matches artifact a);
  Alcotest.(check bool) "other slope rejected" false
    (Cv_artifacts.Artifacts.matches artifact b)

let test_matches () =
  let a = make_artifact () in
  Alcotest.(check bool) "matches source" true
    (Cv_artifacts.Artifacts.matches a (net ()));
  let other =
    Cv_nn.Network.random ~rng:(Cv_util.Rng.create 7) ~dims:[ 3; 5; 4; 1 ]
      ~act:Cv_nn.Activation.Relu ()
  in
  Alcotest.(check bool) "rejects other" false
    (Cv_artifacts.Artifacts.matches a other)

let test_lipschitz_access () =
  let a = make_artifact () in
  Alcotest.(check (option (float 1e-12))) "linf" (Some 12.5)
    (Cv_artifacts.Artifacts.lipschitz_for a "Linf");
  Alcotest.(check (option (float 1e-12))) "missing" None
    (Cv_artifacts.Artifacts.lipschitz_for a "L7");
  let a' = Cv_artifacts.Artifacts.with_lipschitz a "Linf" 10. in
  Alcotest.(check (option (float 1e-12))) "updated" (Some 10.)
    (Cv_artifacts.Artifacts.lipschitz_for a' "Linf")

let test_final_abstraction () =
  let a = make_artifact () in
  (match Cv_artifacts.Artifacts.final_abstraction a with
  | Some b -> Alcotest.(check int) "output dim" 1 (Cv_interval.Box.dim b)
  | None -> Alcotest.fail "expected S_n");
  let a0 = make_artifact ~with_abs:false () in
  Alcotest.(check bool) "none without chain" true
    (Cv_artifacts.Artifacts.final_abstraction a0 = None)

let artifact_equal a b =
  let open Cv_artifacts.Artifacts in
  a.network_fingerprint = b.network_fingerprint
  && a.solver = b.solver
  && Cv_util.Float_utils.approx_eq a.solve_seconds b.solve_seconds
  && List.length a.lipschitz = List.length b.lipschitz
  && (match (a.state_abstractions, b.state_abstractions) with
     | None, None -> true
     | Some x, Some y ->
       Array.length x = Array.length y
       && Array.for_all2 (fun p q -> Cv_interval.Box.equal p q) x y
     | _ -> false)

let test_json_roundtrip () =
  let a = make_artifact () in
  let a' = Cv_artifacts.Artifacts.of_json (Cv_artifacts.Artifacts.to_json a) in
  Alcotest.(check bool) "roundtrip" true (artifact_equal a a')

let test_json_roundtrip_no_abs () =
  let a = make_artifact ~with_abs:false () in
  let a' = Cv_artifacts.Artifacts.of_json (Cv_artifacts.Artifacts.to_json a) in
  Alcotest.(check bool) "roundtrip" true (artifact_equal a a')

let test_file_roundtrip () =
  let a = make_artifact () in
  let path = Filename.temp_file "cv_artifact" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cv_artifacts.Artifacts.save path a;
      let a' = Cv_artifacts.Artifacts.load path in
      Alcotest.(check bool) "file roundtrip" true (artifact_equal a a'))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [write path] must produce the version-2 envelope as one JSON object,
   payload last, with the MD5 of the payload's own rendering — exactly
   these bytes — and [load_doc_result] must verify and return it. *)
let check_envelope name ~format payload write =
  let open Cv_util.Json in
  let path = Filename.temp_file "cv_envelope" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write path;
      Alcotest.(check string) name
        (to_string
           (Obj
              [ ("format", Str format);
                ("version", of_int 2);
                ("checksum", Str (Digest.to_hex (Digest.string (to_string payload))));
                ("payload", payload) ]))
        (read_file path);
      match Cv_artifacts.Artifacts.load_doc_result ~format path with
      | Ok p -> Alcotest.(check string) (name ^ " loads") (to_string payload) (to_string p)
      | Error e -> Alcotest.fail (Cv_artifacts.Artifacts.load_error_message e))

let test_save_doc_bytes () =
  let open Cv_util.Json in
  let a = make_artifact () in
  check_envelope "artifact" ~format:"contiver-proof"
    (Cv_artifacts.Artifacts.to_json a) (fun path ->
      Cv_artifacts.Artifacts.save path a);
  let progress = Obj [ ("round", of_int 3); ("pending", List [ Num 0.25 ]) ] in
  check_envelope "runstate checkpoint" ~format:"contiver-checkpoint"
    (Obj
       [ ("kind", Str "serve");
         ("fingerprint", Str "v2:abc");
         ("scope", Str "s:1");
         ("payload", progress) ])
    (fun path ->
      Cv_core.Runstate.save ~scope:"s:1" ~path ~kind:Cv_core.Runstate.Serve
        ~fingerprint:"v2:abc" progress);
  let odd =
    Obj
      [ ("quote\"back\\slash", Str "tab\tnl\nctl\001\"");
        ("nan", Num Float.nan);
        ("inf", List [ Num Float.infinity; Num Float.neg_infinity; Num (-0.) ]);
        ("tiny", Num 1e-300) ]
  in
  check_envelope "escapes and nan" ~format:"odd \"format\"" odd (fun path ->
      Cv_artifacts.Artifacts.save_doc ~format:"odd \"format\"" path odd)

let test_rejects_wrong_format () =
  try
    ignore (Cv_artifacts.Artifacts.of_json (Cv_util.Json.parse "{\"a\": 1}"));
    Alcotest.fail "should reject"
  with Cv_util.Json.Error _ -> ()

let () =
  Alcotest.run "cv_artifacts"
    [ ( "fingerprint",
        [ Alcotest.test_case "stability" `Quick test_fingerprint_stability;
          Alcotest.test_case "pinned across domains" `Quick
            test_fingerprint_pinned;
          Alcotest.test_case "leaky slope exact" `Quick
            test_fingerprint_leaky_slope;
          Alcotest.test_case "matches" `Quick test_matches ] );
      ( "bundle",
        [ Alcotest.test_case "lipschitz access" `Quick test_lipschitz_access;
          Alcotest.test_case "final abstraction" `Quick test_final_abstraction ] );
      ( "persistence",
        [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "json roundtrip (no chain)" `Quick
            test_json_roundtrip_no_abs;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "save_doc bytes" `Quick test_save_doc_bytes;
          Alcotest.test_case "rejects wrong format" `Quick
            test_rejects_wrong_format ] ) ]
