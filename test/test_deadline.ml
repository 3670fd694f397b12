(* Tests for the resource-governance layer: Cv_util.Deadline budgets
   threaded through the solver stack (simplex pivots, MILP
   branch-and-bound, abstract analysis, split certificates, strategy
   pipelines) and the Cv_util.Fault injection points. Every engine must
   degrade to a structured answer — never hang, never leak Expired past
   the verdict layer. *)

let expired_deadline () = Cv_util.Deadline.make ~seconds:(-1.)

let relu_net seed dims =
  Cv_nn.Network.random ~rng:(Cv_util.Rng.create seed) ~dims
    ~act:Cv_nn.Activation.Relu ()

(* ------------------------------------------------------------------ *)
(* Deadline primitives                                                 *)
(* ------------------------------------------------------------------ *)

let test_wall_clock () =
  let d = expired_deadline () in
  Alcotest.(check bool) "already expired" true (Cv_util.Deadline.expired d);
  (try
     Cv_util.Deadline.check d;
     Alcotest.fail "check should raise"
   with Cv_util.Deadline.Expired _ -> ());
  Alcotest.(check bool) "no_budget lives" false
    (Cv_util.Deadline.expired Cv_util.Deadline.no_budget);
  Alcotest.(check bool) "generous budget lives" false
    (Cv_util.Deadline.expired (Cv_util.Deadline.make ~seconds:3600.))

(* ------------------------------------------------------------------ *)
(* Monotonic clock seam                                                *)
(* ------------------------------------------------------------------ *)

(* Regression: deadlines used to read Unix.gettimeofday, so a wall-clock
   step (NTP, DST) could expire a budget early or resurrect a spent one.
   They now read Cv_util.Clock — monotonic in production, swappable
   here — so expiry is a pure function of elapsed source time. *)
let test_fake_clock_deadline () =
  let t = ref 1000. in
  Cv_util.Clock.with_source
    (fun () -> !t)
    (fun () ->
      let d = Cv_util.Deadline.make ~seconds:10. in
      Alcotest.(check bool) "fresh" false (Cv_util.Deadline.expired d);
      t := 1005.;
      Alcotest.(check (float 1e-9)) "remaining tracks the source" 5.
        (Cv_util.Deadline.remaining d);
      t := 1010.5;
      Alcotest.(check bool) "expired past the horizon" true
        (Cv_util.Deadline.expired d);
      (try
         Cv_util.Deadline.check d;
         Alcotest.fail "check should raise on the fake timeline"
       with Cv_util.Deadline.Expired _ -> ());
      Alcotest.(check (float 1e-9)) "Deadline.now follows the source" 1010.5
        (Cv_util.Deadline.now ()));
  Alcotest.(check bool) "real source restored" false
    (Cv_util.Deadline.expired (Cv_util.Deadline.make ~seconds:3600.))

let test_clock_monotonic () =
  (* The production source must never step backwards. *)
  let prev = ref (Cv_util.Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Cv_util.Clock.now () in
    Alcotest.(check bool) "non-decreasing" true (t >= !prev);
    prev := t
  done

(* ------------------------------------------------------------------ *)
(* Simplex / MILP                                                      *)
(* ------------------------------------------------------------------ *)

let test_simplex_expiry () =
  (* min -x s.t. x + s = 1 — solvable in a pivot, but the budget is
     already gone, so the solver must raise at its first poll. *)
  try
    ignore
      (Cv_lp.Simplex.solve
         ~deadline:(expired_deadline ())
         ~a:[| [| 1.; 1. |] |]
         ~b:[| 1. |] ~c:[| -1.; 0. |] ());
    Alcotest.fail "simplex should observe the expired deadline"
  with Cv_util.Deadline.Expired _ -> ()

(* max x + y s.t. x <= b, y <= 1 - b, b binary: optimum 1. *)
let toy_milp () =
  let p = Cv_milp.Milp.create () in
  let x = Cv_milp.Milp.add_var p ~lo:0. ~hi:1. () in
  let y = Cv_milp.Milp.add_var p ~lo:0. ~hi:1. () in
  let b = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (1., x); (-1., b) ] Cv_lp.Lp.Le 0.;
  Cv_milp.Milp.add_constraint p [ (1., y); (1., b) ] Cv_lp.Lp.Le 1.;
  (p, [ (1., x); (1., y) ])

let test_milp_deadline_timeout () =
  let p, obj = toy_milp () in
  match Cv_milp.Milp.maximize ~deadline:(expired_deadline ()) p obj with
  | Cv_milp.Milp.Timeout { bound; _ } ->
    (* The salvaged bound must still be a sound upper bound on the true
       optimum (infinite when nothing was solved). *)
    Alcotest.(check bool) "bound over-approximates" true (bound >= 1.)
  | _ -> Alcotest.fail "expected Timeout on an expired deadline"

let test_milp_node_limit_timeout () =
  let p, obj = toy_milp () in
  match Cv_milp.Milp.maximize ~node_limit:0 p obj with
  | Cv_milp.Milp.Timeout { bound; _ } ->
    Alcotest.(check bool) "bound over-approximates" true (bound >= 1.)
  | _ -> Alcotest.fail "expected Timeout on an exhausted node budget"

let test_milp_unbudgeted_still_solves () =
  let p, obj = toy_milp () in
  match Cv_milp.Milp.maximize p obj with
  | Cv_milp.Milp.Optimal { objective; _ } ->
    Alcotest.(check (float 1e-6)) "optimum" 1. objective
  | _ -> Alcotest.fail "expected Optimal without a budget"

(* ------------------------------------------------------------------ *)
(* Verdict layer: no Expired escapes                                   *)
(* ------------------------------------------------------------------ *)

let small_prop net =
  let din = Cv_interval.Box.uniform (Cv_nn.Network.in_dim net) ~lo:0. ~hi:1. in
  let out = Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint net din in
  Cv_verify.Property.make ~din ~dout:(Cv_interval.Box.expand 0.1 out)

let test_containment_check_degrades () =
  let net = relu_net 3 [ 2; 4; 1 ] in
  let prop = small_prop net in
  match
    Cv_verify.Containment.check
      ~deadline:(expired_deadline ())
      Cv_verify.Containment.Milp net ~input_box:prop.Cv_verify.Property.din
      ~target:prop.Cv_verify.Property.dout
  with
  | Cv_verify.Containment.Unknown u ->
    Alcotest.(check string) "timeout reason" "timeout"
      (Cv_verify.Containment.reason_name u.Cv_verify.Containment.reason)
  | _ -> Alcotest.fail "expected structured Unknown under a spent budget"

(* The from-scratch decision is a two-step chain — the box chain, then
   the configured engine — bounded by one deadline. *)
let test_verify_graceful_degrades () =
  let net = relu_net 5 [ 2; 5; 3; 1 ] in
  let prop = small_prop net in
  let d = Cv_core.Strategy.decide ~deadline:(expired_deadline ()) net prop in
  match d.Cv_core.Strategy.report.Cv_core.Report.verdict with
  | Cv_core.Report.Exhausted _ -> ()
  | _ -> Alcotest.fail "expected Exhausted from the from-scratch chain"

let test_verify_graceful_unhurried () =
  (* With a generous budget the chain must still prove easy properties. *)
  let net = relu_net 5 [ 2; 5; 3; 1 ] in
  let prop = small_prop net in
  let d =
    Cv_core.Strategy.decide
      ~deadline:(Cv_util.Deadline.make ~seconds:3600.)
      net prop
  in
  match d.Cv_core.Strategy.report.Cv_core.Report.verdict with
  | Cv_core.Report.Safe -> ()
  | _ -> Alcotest.fail "easy property should be proved within a huge budget"

let test_analyzer_expiry () =
  let net = relu_net 7 [ 3; 6; 4; 1 ] in
  let din = Cv_interval.Box.uniform 3 ~lo:0. ~hi:1. in
  try
    ignore
      (Cv_domains.Analyzer.abstractions
         ~deadline:(expired_deadline ())
         Cv_domains.Analyzer.Symint net din);
    Alcotest.fail "analyzer should observe the expired deadline"
  with Cv_util.Deadline.Expired _ -> ()

let test_split_cert_degrades () =
  let net = relu_net 11 [ 2; 4; 1 ] in
  let prop = small_prop net in
  Alcotest.(check bool) "no certificate under a spent budget" true
    (Cv_verify.Split_cert.prove
       ~deadline:(expired_deadline ())
       net ~input_box:prop.Cv_verify.Property.din
       ~target:prop.Cv_verify.Property.dout
    = None)

let test_svudc_exhausts () =
  let net = relu_net 13 [ 3; 6; 1 ] in
  let din = Cv_interval.Box.uniform 3 ~lo:0. ~hi:1. in
  let out = Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint net din in
  let prop =
    Cv_verify.Property.make ~din ~dout:(Cv_interval.Box.expand 0.1 out)
  in
  let artifact =
    Cv_artifacts.Artifacts.make ~property:prop ~net ~solver:"test"
      ~solve_seconds:0.1 ()
  in
  let p =
    Cv_core.Problem.svudc ~net ~artifact
      ~new_din:(Cv_interval.Box.expand 0.05 din)
  in
  let report =
    Cv_core.Strategy.solve_svudc ~deadline:(expired_deadline ()) p
  in
  match report.Cv_core.Report.verdict with
  | Cv_core.Report.Exhausted _ -> ()
  | v ->
    Alcotest.failf "expected Exhausted, got %s"
      (Cv_core.Report.outcome_string v)

(* One rule for every route's local subproblems: under one expired
   deadline each route called on its own answers Exhausted, and none
   raises (Prop 2's S' rebuild included). The scenario is test_core's:
   the 4-6-5-4-1 ReLU net of seed 3, its symint chain widened by 0.05
   as the artifact, D_out = S_n, D_in enlarged by 0.3. *)
let test_routes_exhaust () =
  let net = relu_net 3 [ 4; 6; 5; 4; 1 ] in
  let din = Cv_interval.Box.uniform 4 ~lo:0. ~hi:1. in
  let chain =
    Cv_domains.Analyzer.abstractions ~widen:0.05 Cv_domains.Analyzer.Symint
      net din
  in
  let prop = Cv_verify.Property.make ~din ~dout:chain.(Array.length chain - 1) in
  let artifact =
    Cv_artifacts.Artifacts.make ~state_abstractions:chain ~property:prop ~net
      ~solver:"symint-chain" ~solve_seconds:1. ()
  in
  let new_din = Cv_interval.Box.expand 0.3 din in
  let svudc = Cv_core.Problem.svudc ~net ~artifact ~new_din in
  let svbtv =
    Cv_core.Problem.svbtv ~old_net:net ~new_net:net ~artifact ~new_din
  in
  let deadline = expired_deadline () in
  let full =
    List.nth
      (Cv_core.Strategy.from_scratch ~deadline net
         (Cv_core.Problem.svudc_property svudc))
      1
  in
  List.iter
    (fun (name, attempt) ->
      match (attempt ()).Cv_core.Report.outcome with
      | Cv_core.Report.Exhausted _ -> ()
      | o ->
        Alcotest.failf "%s: expected Exhausted, got %s" name
          (Cv_core.Report.outcome_string o)
      | exception e ->
        Alcotest.failf "%s raised %s" name (Printexc.to_string e))
    [ ("prop1", fun () -> Cv_core.Svudc.prop1 ~deadline svudc);
      ("prop2", fun () -> Cv_core.Svudc.prop2 ~deadline svudc);
      ("delta-cover", fun () -> Cv_core.Svudc.delta_cover ~deadline svudc);
      ("prop4", fun () -> Cv_core.Svbtv.prop4 ~deadline svbtv);
      ( "prop5",
        fun () -> Cv_core.Svbtv.prop5 ~deadline ~anchors:[ 2 ] svbtv );
      ("fixer", fun () -> Cv_core.Fixer.repair ~deadline svbtv);
      ("full", full) ]

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let test_fault_deadline_zero () =
  Cv_util.Fault.with_fault Cv_util.Fault.Deadline_zero (fun () ->
      let d = Cv_util.Deadline.make ~seconds:3600. in
      Alcotest.(check bool) "forced to zero" true (Cv_util.Deadline.expired d));
  Alcotest.(check bool) "disarmed afterwards" false
    (Cv_util.Deadline.expired (Cv_util.Deadline.make ~seconds:3600.))

let test_fault_solver_failure () =
  Cv_util.Fault.with_fault Cv_util.Fault.Solver_failure (fun () ->
      try
        ignore
          (Cv_lp.Simplex.solve ~a:[| [| 1.; 1. |] |] ~b:[| 1. |]
             ~c:[| -1.; 0. |] ());
        Alcotest.fail "armed solver fault should fire"
      with Cv_util.Fault.Injected _ -> ())

let test_fault_env_parsing () =
  Alcotest.(check bool) "roundtrip names" true
    (List.for_all
       (fun p ->
         Cv_util.Fault.point_of_string (Cv_util.Fault.point_name p) = Some p)
       [ Cv_util.Fault.Solver_failure;
         Cv_util.Fault.Truncate_artifact;
         Cv_util.Fault.Deadline_zero ]);
  Alcotest.(check bool) "unknown name rejected" true
    (Cv_util.Fault.point_of_string "no-such-fault" = None)

let () =
  Alcotest.run "cv_deadline"
    [ ( "deadline",
        [ Alcotest.test_case "wall clock" `Quick test_wall_clock;
          Alcotest.test_case "fake clock" `Quick test_fake_clock_deadline;
          Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic ] );
      ( "solvers",
        [ Alcotest.test_case "simplex expiry" `Quick test_simplex_expiry;
          Alcotest.test_case "milp deadline timeout" `Quick
            test_milp_deadline_timeout;
          Alcotest.test_case "milp node-limit timeout" `Quick
            test_milp_node_limit_timeout;
          Alcotest.test_case "milp unbudgeted" `Quick
            test_milp_unbudgeted_still_solves ] );
      ( "verdicts",
        [ Alcotest.test_case "containment degrades" `Quick
            test_containment_check_degrades;
          Alcotest.test_case "graceful chain degrades" `Quick
            test_verify_graceful_degrades;
          Alcotest.test_case "graceful chain proves" `Quick
            test_verify_graceful_unhurried;
          Alcotest.test_case "analyzer expiry" `Quick test_analyzer_expiry;
          Alcotest.test_case "split cert degrades" `Quick
            test_split_cert_degrades;
          Alcotest.test_case "svudc exhausts" `Quick test_svudc_exhausts;
          Alcotest.test_case "every route exhausts" `Quick test_routes_exhaust
        ] );
      ( "faults",
        [ Alcotest.test_case "deadline zero" `Quick test_fault_deadline_zero;
          Alcotest.test_case "solver failure" `Quick test_fault_solver_failure;
          Alcotest.test_case "env parsing" `Quick test_fault_env_parsing ] ) ]
