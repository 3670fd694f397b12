(* Tests for the PR-6 resilience layer, part 2: fault modes and
   campaign planning, the retry supervisor, and verdict soundness under
   injected faults — a verdict may degrade to Unknown, never flip
   between safe and unsafe. *)

module F = Cv_util.Fault

let fig2_net () =
  Cv_nn.Network.of_list
    [ Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 1.; -2. |]; [| -2.; 1. |]; [| 1.; -1. |] ])
        [| 0.; 0.; 0. |] Cv_nn.Activation.Relu;
      Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 2.; 2.; -1. |] ])
        [| 0. |] Cv_nn.Activation.Relu ]

let fig2_box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.

(* ------------------------------------------------------------------ *)
(* Fault modes                                                         *)
(* ------------------------------------------------------------------ *)

(* Poll a point [n] times in order (List.init's evaluation order is
   unspecified, so build the list explicitly). *)
let polls n p =
  let rec go k = if k = 0 then [] else (let b = F.fires p in b :: go (k - 1)) in
  go n

let test_mode_once () =
  F.reset ();
  F.enable ~mode:F.Once F.Worker_crash;
  Alcotest.(check (list bool)) "fires exactly once"
    [ true; false; false; false ]
    (polls 4 F.Worker_crash);
  Alcotest.(check bool) "spent point is no longer live" false
    (F.enabled F.Worker_crash);
  F.reset ()

let test_mode_every () =
  F.reset ();
  F.enable ~mode:(F.Every 3) F.Solver_failure;
  let fired = List.filter Fun.id (polls 9 F.Solver_failure) in
  Alcotest.(check int) "every=3 fires 3 times in 9 polls" 3 (List.length fired);
  F.reset ();
  Alcotest.check_raises "every=0 is rejected"
    (Invalid_argument "Fault.enable: Every n requires n >= 1") (fun () ->
      F.enable ~mode:(F.Every 0) F.Solver_failure)

let test_mode_names () =
  Alcotest.(check string) "always" "always" (F.mode_name F.Always);
  Alcotest.(check string) "once" "once" (F.mode_name F.Once);
  Alcotest.(check string) "every" "every=5" (F.mode_name (F.Every 5))

let test_plan_deterministic () =
  let p1 = F.plan ~seed:11 ~rounds:6 ~points:F.all_points in
  let p2 = F.plan ~seed:11 ~rounds:6 ~points:F.all_points in
  Alcotest.(check bool) "same seed, same campaign" true (p1 = p2);
  Alcotest.(check int) "requested rounds" 6 (List.length p1);
  List.iter
    (fun round ->
      let n = List.length round in
      Alcotest.(check bool) "1..3 points per round" true (n >= 1 && n <= 3);
      let names = List.map (fun (p, _) -> F.point_name p) round in
      Alcotest.(check bool) "no duplicate points in a round" true
        (List.length (List.sort_uniq compare names) = n))
    p1;
  let p3 = F.plan ~seed:12 ~rounds:6 ~points:F.all_points in
  Alcotest.(check bool) "different seed, different campaign" true (p1 <> p3)

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let test_supervisor_recovers () =
  let calls = ref 0 in
  let flaky () =
    incr calls;
    if !calls < 3 then failwith "transient" else 42
  in
  (match Cv_util.Supervisor.run ~name:"test.flaky" flaky with
  | Ok v -> Alcotest.(check int) "recovered value" 42 v
  | Error _ -> Alcotest.fail "two transient failures must be retried");
  Alcotest.(check int) "two retries consumed" 3 !calls

let test_supervisor_gives_up () =
  let calls = ref 0 in
  let doomed () =
    incr calls;
    failwith "permanent"
  in
  (match Cv_util.Supervisor.run ~name:"test.doomed" doomed with
  | Ok _ -> Alcotest.fail "a permanent failure cannot succeed"
  | Error (Failure msg) -> Alcotest.(check string) "last error" "permanent" msg
  | Error _ -> Alcotest.fail "unexpected error");
  Alcotest.(check int) "first attempt plus default retries" 3 !calls;
  Alcotest.(check int) "fallback receives the exhausted error" 7
    (Cv_util.Supervisor.protect ~name:"test.doomed" ~fallback:(fun _ -> 7)
       (fun () -> failwith "permanent"))

let test_supervisor_propagates_logic_errors () =
  let calls = ref 0 in
  Alcotest.check_raises "Invalid_argument is never retried"
    (Invalid_argument "logic bug") (fun () ->
      ignore
        (Cv_util.Supervisor.run ~name:"test.bug" (fun () ->
             incr calls;
             invalid_arg "logic bug")));
  Alcotest.(check int) "exactly one attempt" 1 !calls;
  Alcotest.check_raises "deadline expiry is never retried or swallowed"
    (Cv_util.Deadline.Expired "budget") (fun () ->
      ignore
        (Cv_util.Supervisor.protect ~name:"test.deadline"
           ~fallback:(fun _ -> ())
           (fun () -> raise (Cv_util.Deadline.Expired "budget"))))

(* ------------------------------------------------------------------ *)
(* Verdict soundness under faults                                      *)
(* ------------------------------------------------------------------ *)

let check_verdict target =
  Cv_verify.Containment.check Cv_verify.Containment.Milp (fig2_net ())
    ~input_box:fig2_box ~target

let provable = Cv_interval.Box.of_bounds [| -1. |] [| 13. |]

let falsifiable = Cv_interval.Box.of_bounds [| -1. |] [| 5. |]

let test_worker_crash_once_recovers () =
  F.reset ();
  F.with_fault ~mode:F.Once F.Worker_crash (fun () ->
      match check_verdict provable with
      | Cv_verify.Containment.Proved -> ()
      | _ -> Alcotest.fail "one crashed dive must not change the verdict")

let test_worker_crash_always_degrades () =
  F.reset ();
  F.with_fault F.Worker_crash (fun () ->
      match check_verdict provable with
      | Cv_verify.Containment.Unknown _ -> ()
      | Cv_verify.Containment.Proved ->
        Alcotest.fail "a permanently crashing search cannot claim a proof"
      | Cv_verify.Containment.Violated _ ->
        Alcotest.fail "crash degradation must never flip to unsafe")

let test_solver_failure_always_no_exception () =
  F.reset ();
  F.with_fault F.Solver_failure (fun () ->
      match check_verdict provable with
      | Cv_verify.Containment.Unknown _ | Cv_verify.Containment.Violated _ -> ()
      | Cv_verify.Containment.Proved ->
        Alcotest.fail "a dead solver cannot claim a proof")

let test_spurious_solver_error_identical () =
  F.reset ();
  let baseline = check_verdict provable in
  let faulty =
    F.with_fault F.Spurious_solver_error (fun () -> check_verdict provable)
  in
  Alcotest.(check bool) "warm-restart faults degrade to cold solves" true
    (baseline = Cv_verify.Containment.Proved
    && faulty = Cv_verify.Containment.Proved)

(* Armed on every poll, the fault fails every warm restart — the primal
   restart after an objective swap as well as the dual one inside a
   search — so every solve goes cold and both verdicts stay the
   fault-free ones. *)
let test_spurious_solver_error_always_cold () =
  F.reset ();
  let baseline = (check_verdict provable, check_verdict falsifiable) in
  let counter name = Cv_util.Metrics.value (Cv_util.Metrics.counter name) in
  let hits0 = counter "lp.warmstart.hits" in
  let fallbacks0 = counter "lp.warmstart.fallbacks" in
  let faulty =
    F.with_fault F.Spurious_solver_error (fun () ->
        (check_verdict provable, check_verdict falsifiable))
  in
  let label = function
    | Cv_verify.Containment.Proved -> "proved"
    | Cv_verify.Containment.Violated _ -> "violated"
    | Cv_verify.Containment.Unknown _ -> "unknown"
  in
  Alcotest.(check (pair string string)) "fault-free verdicts"
    (label (fst baseline), label (snd baseline))
    (label (fst faulty), label (snd faulty));
  Alcotest.(check string) "provable stays proved" "proved" (label (fst faulty));
  Alcotest.(check int) "no warm restart survives" 0
    (counter "lp.warmstart.hits" - hits0);
  Alcotest.(check bool) "restarts fell back cold" true
    (counter "lp.warmstart.fallbacks" > fallbacks0)

let test_alloc_failure_once_recovers () =
  F.reset ();
  F.with_fault ~mode:F.Once F.Alloc_failure (fun () ->
      match check_verdict provable with
      | Cv_verify.Containment.Proved -> ()
      | _ -> Alcotest.fail "one failed allocation must be retried away")

(* A full seeded campaign over every fault point: per round, the
   provable scenario may only come back safe or unknown, the
   falsifiable one only unsafe or unknown — never the opposite
   verdicts. *)
let test_campaign_soundness () =
  F.reset ();
  let campaign = F.plan ~seed:3 ~rounds:6 ~points:F.all_points in
  List.iter
    (fun faults ->
      List.iter (fun (p, m) -> F.enable ~mode:m p) faults;
      (match check_verdict provable with
      | Cv_verify.Containment.Violated _ ->
        Alcotest.fail "provable scenario flipped to unsafe under faults"
      | _ -> ());
      (match check_verdict falsifiable with
      | Cv_verify.Containment.Proved ->
        Alcotest.fail "falsifiable scenario flipped to safe under faults"
      | _ -> ());
      F.reset ())
    campaign

let () =
  Alcotest.run "cv_chaos"
    [ ( "fault-modes",
        [ Alcotest.test_case "once" `Quick test_mode_once;
          Alcotest.test_case "every" `Quick test_mode_every;
          Alcotest.test_case "names" `Quick test_mode_names;
          Alcotest.test_case "plan determinism" `Quick test_plan_deterministic ]
      );
      ( "supervisor",
        [ Alcotest.test_case "recovers" `Quick test_supervisor_recovers;
          Alcotest.test_case "gives up" `Quick test_supervisor_gives_up;
          Alcotest.test_case "propagates logic errors" `Quick
            test_supervisor_propagates_logic_errors ] );
      ( "soundness",
        [ Alcotest.test_case "worker crash once" `Quick
            test_worker_crash_once_recovers;
          Alcotest.test_case "worker crash always" `Quick
            test_worker_crash_always_degrades;
          Alcotest.test_case "solver failure always" `Quick
            test_solver_failure_always_no_exception;
          Alcotest.test_case "spurious solver error" `Quick
            test_spurious_solver_error_identical;
          Alcotest.test_case "spurious solver error always" `Quick
            test_spurious_solver_error_always_cold;
          Alcotest.test_case "alloc failure once" `Quick
            test_alloc_failure_once_recovers;
          Alcotest.test_case "seeded campaign" `Quick test_campaign_soundness ]
      ) ]
