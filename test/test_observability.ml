(* Tests for the PR-3 observability layer: exact metric counters on a
   tiny fixed network, determinism across runs, trace JSON round-trip
   through Cv_util.Json, and metric consistency under Parallel. *)

let fig2_net () =
  Cv_nn.Network.of_list
    [ Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 1.; -2. |]; [| -2.; 1. |]; [| 1.; -1. |] ])
        [| 0.; 0.; 0. |] Cv_nn.Activation.Relu;
      Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 2.; 2.; -1. |] ])
        [| 0. |] Cv_nn.Activation.Relu ]

let fig2_box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.

let nonzero_counters () =
  List.filter (fun (_, v) -> v <> 0) (Cv_util.Metrics.counters ())

(* ------------------------------------------------------------------ *)
(* Exact counters on a tiny fixed network                              *)
(* ------------------------------------------------------------------ *)

(* The MILP check on the Fig. 2 network is fully deterministic: one
   containment query, one bound query per output side (2 MILP solves),
   each fathomed at the root after its LP relaxation. The exact values
   pin the accounting: an instrumentation regression (double counting,
   a missed increment) shifts them. *)
let test_exact_counters_milp () =
  let net = fig2_net () in
  let target = Cv_interval.Box.of_bounds [| -1. |] [| 12.5 |] in
  Cv_util.Metrics.reset ();
  (match
     Cv_verify.Containment.check Cv_verify.Containment.Milp net
       ~input_box:fig2_box ~target
   with
  | Cv_verify.Containment.Proved -> ()
  | _ -> Alcotest.fail "MILP must prove the loose bound");
  let v name = Cv_util.Metrics.value (Cv_util.Metrics.counter name) in
  Alcotest.(check int) "verify.checks" 1 (v "verify.checks");
  Alcotest.(check int) "milp.solves" 2 (v "milp.solves");
  Alcotest.(check int) "milp.nodes" 2 (v "milp.nodes");
  Alcotest.(check int) "milp.fathomed" 2 (v "milp.fathomed");
  Alcotest.(check int) "lp.solves" 2 (v "lp.solves");
  Alcotest.(check bool) "lp.pivots recorded" true (v "lp.pivots" > 0);
  Alcotest.(check bool) "lp.iterations >= lp.pivots" true
    (v "lp.iterations" >= v "lp.pivots");
  Alcotest.(check bool) "milp seconds accumulated" true
    (Cv_util.Metrics.seconds (Cv_util.Metrics.timer "milp.seconds") >= 0.)

let test_counters_deterministic () =
  let net = fig2_net () in
  let target = Cv_interval.Box.of_bounds [| -1. |] [| 12.5 |] in
  let run () =
    Cv_util.Metrics.reset ();
    ignore
      (Cv_verify.Containment.check Cv_verify.Containment.Milp net
         ~input_box:fig2_box ~target);
    nonzero_counters ()
  in
  let first = run () in
  let second = run () in
  Alcotest.(check bool) "some counters recorded" true (first <> []);
  Alcotest.(check (list (pair string int))) "identical across runs" first second

let test_abstract_domain_counters () =
  let net = fig2_net () in
  let target = Cv_interval.Box.of_bounds [| -1. |] [| 20. |] in
  Cv_util.Metrics.reset ();
  ignore
    (Cv_verify.Containment.check
       (Cv_verify.Containment.Abstract Cv_domains.Analyzer.Symint)
       net ~input_box:fig2_box ~target);
  let v name = Cv_util.Metrics.value (Cv_util.Metrics.counter name) in
  Alcotest.(check int) "domains.symint.calls" 1 (v "domains.symint.calls");
  Alcotest.(check int) "domains.symint.layers" 2 (v "domains.symint.layers")

(* ------------------------------------------------------------------ *)
(* Metrics JSON + table                                                *)
(* ------------------------------------------------------------------ *)

let test_metrics_json_roundtrip () =
  Cv_util.Metrics.reset ();
  Cv_util.Metrics.add (Cv_util.Metrics.counter "lp.pivots") 7;
  Cv_util.Metrics.add_seconds (Cv_util.Metrics.timer "lp.seconds") 0.25;
  let j = Cv_util.Metrics.to_json () in
  let j' = Cv_util.Json.parse (Cv_util.Json.to_string j) in
  Alcotest.(check int) "counter survives" 7
    Cv_util.Json.(to_int (member "lp.pivots" (member "counters" j')));
  Alcotest.(check (float 1e-9)) "timer survives" 0.25
    Cv_util.Json.(to_float (member "lp.seconds" (member "timers" j')));
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let table = Cv_util.Metrics.table () in
  Alcotest.(check bool) "table groups by engine" true (contains table "[lp]");
  Cv_util.Metrics.reset ();
  Alcotest.(check string) "empty table after reset" "" (Cv_util.Metrics.table ())

(* ------------------------------------------------------------------ *)
(* Trace spans                                                         *)
(* ------------------------------------------------------------------ *)

let test_trace_json_roundtrip () =
  Cv_util.Trace.enable ();
  Cv_util.Trace.with_span "outer" ~attrs:[ ("engine", "milp") ] (fun () ->
      Cv_util.Trace.with_span "inner" (fun () ->
          Cv_util.Trace.add_attr "verdict" "proved"));
  Cv_util.Trace.disable ();
  let j = Cv_util.Trace.to_json () in
  let s = Cv_util.Json.to_string j in
  let j' = Cv_util.Json.parse s in
  Alcotest.(check string) "round-trips byte-identically" s
    (Cv_util.Json.to_string j');
  let open Cv_util.Json in
  let roots = to_list (member "trace" j') in
  Alcotest.(check int) "one root span" 1 (List.length roots);
  let outer = List.hd roots in
  Alcotest.(check string) "root name" "outer" (to_str (member "name" outer));
  Alcotest.(check string) "root attr" "milp"
    (to_str (member "engine" (member "attrs" outer)));
  let children = to_list (member "children" outer) in
  Alcotest.(check int) "one child" 1 (List.length children);
  let inner = List.hd children in
  Alcotest.(check string) "child name" "inner" (to_str (member "name" inner));
  Alcotest.(check string) "mid-flight attr" "proved"
    (to_str (member "verdict" (member "attrs" inner)));
  let dur j = to_float (member "dur_s" j) in
  Alcotest.(check bool) "child nested in parent duration" true
    (dur inner <= dur outer +. 1e-6)

let test_trace_disabled_is_transparent () =
  Cv_util.Trace.disable ();
  Alcotest.(check int) "with_span is the identity when off" 41
    (Cv_util.Trace.with_span "ghost" (fun () -> 41));
  (* add_attr with no span open must not raise. *)
  Cv_util.Trace.add_attr "k" "v"

let test_trace_end_to_end () =
  (* A real solver run under tracing: solve_original's from-scratch
     decision records one strategy.attempt span per step under the
     strategy.original root — abstract-box, then full, since only the
     full engine proves Figure 2's tight bound. *)
  let net = fig2_net () in
  let prop =
    Cv_verify.Property.make ~din:fig2_box
      ~dout:(Cv_interval.Box.of_bounds [| -0.1 |] [| 6.1 |])
  in
  Cv_util.Trace.enable ();
  ignore (Cv_core.Strategy.solve_original net prop);
  Cv_util.Trace.disable ();
  let open Cv_util.Json in
  let roots = to_list (member "trace" (Cv_util.Trace.to_json ())) in
  let original =
    List.find (fun s -> to_str (member "name" s) = "strategy.original") roots
  in
  let attempts =
    List.filter_map
      (fun s ->
        if to_str (member "name" s) = "strategy.attempt" then
          Some (to_str (member "name" (member "attrs" s)))
        else None)
      (to_list (member "children" original))
  in
  Alcotest.(check (list string)) "attempt spans" [ "abstract-box"; "full" ]
    attempts

(* ------------------------------------------------------------------ *)
(* Consistency under Parallel                                          *)
(* ------------------------------------------------------------------ *)

let test_metrics_parallel_consistency () =
  (* Counter increments from worker domains must not be lost: a
     revalidation sweep checks every leaf exactly once regardless of
     the number of domains. *)
  let net = fig2_net () in
  let tight = Cv_interval.Box.of_bounds [| -0.5 |] [| 6.5 |] in
  let cert =
    Option.get
      (Cv_verify.Split_cert.prove net ~input_box:fig2_box ~target:tight)
  in
  let leaves = Cv_verify.Split_cert.num_leaves cert in
  let checked domains =
    Cv_util.Metrics.reset ();
    ignore (Cv_verify.Split_cert.revalidate_detailed ~domains cert net);
    Cv_util.Metrics.value (Cv_util.Metrics.counter "splitcert.leaves_checked")
  in
  Alcotest.(check int) "1 domain checks every leaf" leaves (checked 1);
  Alcotest.(check int) "4 domains check every leaf" leaves (checked 4)

let () =
  (* Metrics are process-global; keep other suites unaffected. *)
  let reset_after f () = Fun.protect ~finally:Cv_util.Metrics.reset f in
  Alcotest.run "observability"
    [ ( "counters",
        [ Alcotest.test_case "exact milp counters" `Quick
            (reset_after test_exact_counters_milp);
          Alcotest.test_case "deterministic across runs" `Quick
            (reset_after test_counters_deterministic);
          Alcotest.test_case "abstract domain counters" `Quick
            (reset_after test_abstract_domain_counters);
          Alcotest.test_case "json + table" `Quick
            (reset_after test_metrics_json_roundtrip) ] );
      ( "trace",
        [ Alcotest.test_case "json roundtrip" `Quick test_trace_json_roundtrip;
          Alcotest.test_case "disabled is transparent" `Quick
            test_trace_disabled_is_transparent;
          Alcotest.test_case "end to end" `Quick test_trace_end_to_end ] );
      ( "parallel",
        [ Alcotest.test_case "no lost increments" `Quick
            (reset_after test_metrics_parallel_consistency) ] ) ]
