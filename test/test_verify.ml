(* Tests for Cv_verify: properties, falsification, containment engines,
   whole-property verification, exact range. *)

let check_float = Alcotest.(check (float 1e-5))

let fig2_net () =
  Cv_nn.Network.of_list
    [ Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 1.; -2. |]; [| -2.; 1. |]; [| 1.; -1. |] ])
        [| 0.; 0.; 0. |] Cv_nn.Activation.Relu;
      Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 2.; 2.; -1. |] ])
        [| 0. |] Cv_nn.Activation.Relu ]

let random_net seed dims =
  Cv_nn.Network.random ~rng:(Cv_util.Rng.create seed) ~dims
    ~act:Cv_nn.Activation.Relu ()

(* A two-output variant of [fig2_net]. *)
let lowers_once_net () =
  Cv_nn.Network.of_list
    [ Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 1.; -2. |]; [| -2.; 1. |]; [| 1.; -1. |] ])
        [| 0.; 0.; 0. |] Cv_nn.Activation.Relu;
      Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 2.; 2.; -1. |]; [| 1.; -1.; 2. |] ])
        [| 0.; 0.5 |] Cv_nn.Activation.Relu ]

(* The exact output range of [net] over [input_box], widened by 0.25. *)
let widened_range net input_box =
  let range =
    (Cv_verify.Range.exact_range net ~din:input_box).Cv_verify.Range.range
  in
  Cv_interval.Box.of_bounds
    (Array.map (fun l -> l -. 0.25) (Cv_interval.Box.lower range))
    (Array.map (fun u -> u +. 0.25) (Cv_interval.Box.upper range))

let engines =
  [ Cv_verify.Containment.Abstract Cv_domains.Analyzer.Symint;
    Cv_verify.Containment.Symint_split 64;
    Cv_verify.Containment.Milp;
    Cv_verify.Containment.Ladder ]

(* ------------------------------------------------------------------ *)
(* Property                                                            *)
(* ------------------------------------------------------------------ *)

let test_property_basics () =
  let net = fig2_net () in
  let prop =
    Cv_verify.Property.make
      ~din:(Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.)
      ~dout:(Cv_interval.Box.of_bounds [| 0. |] [| 10. |])
  in
  Alcotest.(check bool) "well formed" true
    (Cv_verify.Property.well_formed prop net);
  Alcotest.(check bool) "holds at origin" true
    (Cv_verify.Property.holds_at prop net [| 0.; 0. |]);
  let enlarged =
    Cv_verify.Property.enlarge prop (Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.1)
  in
  Alcotest.(check bool) "enlarged contains old" true
    (Cv_interval.Box.subset prop.Cv_verify.Property.din
       enlarged.Cv_verify.Property.din)

let test_property_json () =
  let prop =
    Cv_verify.Property.make
      ~din:(Cv_interval.Box.uniform 3 ~lo:(-2.) ~hi:2.)
      ~dout:(Cv_interval.Box.of_bounds [| -1. |] [| 1. |])
  in
  let prop' = Cv_verify.Property.of_json (Cv_verify.Property.to_json prop) in
  Alcotest.(check bool) "din" true
    (Cv_interval.Box.equal prop.Cv_verify.Property.din prop'.Cv_verify.Property.din);
  Alcotest.(check bool) "dout" true
    (Cv_interval.Box.equal prop.Cv_verify.Property.dout
       prop'.Cv_verify.Property.dout)

(* ------------------------------------------------------------------ *)
(* Falsify                                                             *)
(* ------------------------------------------------------------------ *)

let test_falsify_finds_obvious_violation () =
  let net = fig2_net () in
  let din = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  (* max n4 over this domain is 6 (at corners), so a bound of 3 is
     violated and sampling should find it. *)
  let dout = Cv_interval.Box.of_bounds [| -1. |] [| 3. |] in
  let rng = Cv_util.Rng.create 5 in
  match Cv_verify.Falsify.search ~rng net ~din ~dout () with
  | Some v ->
    Alcotest.(check bool) "margin positive" true (v.Cv_verify.Falsify.margin > 0.);
    Alcotest.(check bool) "witness in din" true
      (Cv_interval.Box.mem v.Cv_verify.Falsify.input din);
    Alcotest.(check bool) "output really violates" true
      (not (Cv_interval.Box.mem v.Cv_verify.Falsify.output dout))
  | None -> Alcotest.fail "should find a violation"

let test_falsify_none_on_safe () =
  let net = fig2_net () in
  let din = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let dout = Cv_interval.Box.of_bounds [| -1. |] [| 100. |] in
  let rng = Cv_util.Rng.create 5 in
  Alcotest.(check bool) "no violation" true
    (Cv_verify.Falsify.search ~rng net ~din ~dout () = None)

(* ------------------------------------------------------------------ *)
(* Containment                                                         *)
(* ------------------------------------------------------------------ *)

(* All engines must prove a property with slack and reject (or at least
   not prove) one that a concrete counterexample kills. *)
let containment_engine_test engine () =
  let net = fig2_net () in
  let input_box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let loose = Cv_interval.Box.of_bounds [| -1. |] [| 12.5 |] in
  (match Cv_verify.Containment.check engine net ~input_box ~target:loose with
  | Cv_verify.Containment.Proved -> ()
  | v ->
    Alcotest.failf "expected proof with %s, got %s"
      (Cv_verify.Containment.engine_name engine)
      (match v with
      | Cv_verify.Containment.Violated _ -> "violated"
      | Cv_verify.Containment.Unknown u ->
        "unknown: " ^ u.Cv_verify.Containment.message
      | _ -> "?"));
  let violated = Cv_interval.Box.of_bounds [| -1. |] [| 3. |] in
  match Cv_verify.Containment.check engine net ~input_box ~target:violated with
  | Cv_verify.Containment.Proved -> Alcotest.fail "must not prove a falsity"
  | Cv_verify.Containment.Violated v ->
    Alcotest.(check bool) "witness valid" true (v.Cv_verify.Falsify.margin > 0.)
  | Cv_verify.Containment.Unknown _ ->
    (* acceptable only for the one-shot abstract engine *)
    (match engine with
    | Cv_verify.Containment.Abstract _ -> ()
    | _ -> Alcotest.fail "complete engine must find the violation")

(* Exact engines prove the tight 6.2 bound that the abstract engine
   cannot (paper Fig. 1/2 insight). *)
let test_exact_beats_abstract () =
  let net = fig2_net () in
  let input_box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.1 in
  let target = Cv_interval.Box.of_bounds [| -0.1 |] [| 6.3 |] in
  (match
     Cv_verify.Containment.check
       (Cv_verify.Containment.Abstract Cv_domains.Analyzer.Box) net ~input_box
       ~target
   with
  | Cv_verify.Containment.Unknown _ -> ()
  | _ -> Alcotest.fail "box abstraction should be too coarse for 6.3");
  match Cv_verify.Containment.check Cv_verify.Containment.Milp net ~input_box ~target with
  | Cv_verify.Containment.Proved -> ()
  | _ -> Alcotest.fail "milp should prove the 6.3 bound"

let test_split_engine_refines () =
  (* Symint one-shot fails at 6.3 over the enlarged box, but splitting
     proves it. *)
  let net = fig2_net () in
  let input_box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.1 in
  let target = Cv_interval.Box.of_bounds [| -0.1 |] [| 6.3 |] in
  match
    Cv_verify.Containment.check (Cv_verify.Containment.Symint_split 512) net
      ~input_box ~target
  with
  | Cv_verify.Containment.Proved -> ()
  | Cv_verify.Containment.Unknown u ->
    Alcotest.failf "split exhausted: %s" u.Cv_verify.Containment.message
  | Cv_verify.Containment.Violated _ -> Alcotest.fail "6.3 is not violated"

(* Agreement between complete engines on random instances. *)
let engines_agree_prop =
  QCheck.Test.make ~name:"milp and split agree on random containments"
    ~count:20
    QCheck.(pair (int_range 1 1000) (float_range 0.3 2.))
    (fun (seed, margin) ->
      let net = random_net seed [ 2; 5; 4; 1 ] in
      let input_box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
      (* Target around the sampled reach scaled by margin. *)
      let rng = Cv_util.Rng.create (seed + 1) in
      let lo = ref Float.infinity and hi = ref Float.neg_infinity in
      for _ = 1 to 200 do
        let y = (Cv_nn.Network.eval net (Cv_interval.Box.sample rng input_box)).(0) in
        lo := Float.min !lo y;
        hi := Float.max !hi y
      done;
      let c = 0.5 *. (!lo +. !hi) and r = 0.5 *. (!hi -. !lo) in
      let target =
        Cv_interval.Box.of_bounds
          [| c -. (r *. margin) -. 1e-6 |]
          [| c +. (r *. margin) +. 1e-6 |]
      in
      let vm =
        Cv_verify.Containment.check Cv_verify.Containment.Milp net ~input_box
          ~target
      in
      let vs =
        Cv_verify.Containment.check (Cv_verify.Containment.Symint_split 4096)
          net ~input_box ~target
      in
      match (vm, vs) with
      | Cv_verify.Containment.Proved, Cv_verify.Containment.Proved -> true
      | Cv_verify.Containment.Violated _, Cv_verify.Containment.Violated _ ->
        true
      | Cv_verify.Containment.Unknown _, _ | _, Cv_verify.Containment.Unknown _
        ->
        true (* budget exhaustion is allowed, disagreement is not *)
      | _ -> false)

let counter name = Cv_util.Metrics.value (Cv_util.Metrics.counter name)

(* Target box around the sampled reach of each output, scaled by that
   output's margin (the recipe of [engines_agree_prop], per output). *)
let sampled_target ~seed net input_box margins =
  let rng = Cv_util.Rng.create (seed + 1) in
  let d = Cv_nn.Network.out_dim net in
  let lo = Array.make d Float.infinity and hi = Array.make d Float.neg_infinity in
  for _ = 1 to 200 do
    let y = Cv_nn.Network.eval net (Cv_interval.Box.sample rng input_box) in
    Array.iteri
      (fun i v ->
        lo.(i) <- Float.min lo.(i) v;
        hi.(i) <- Float.max hi.(i) v)
      y
  done;
  let bound sign i m =
    let c = 0.5 *. (lo.(i) +. hi.(i)) and r = 0.5 *. (hi.(i) -. lo.(i)) in
    c +. (sign *. ((r *. m) +. 1e-6))
  in
  Cv_interval.Box.of_bounds
    (Array.mapi (bound (-1.)) margins)
    (Array.mapi (bound 1.) margins)

(* The ladder only skips sides symint closes, so it must answer what
   [Milp] answers. A sampled witness comes from the same sampler, so it
   is the same input. A cutoff search restarts from the root basis the
   previous query left, and a skipped query leaves another one: on a
   degenerate relaxation the search can then end elsewhere (over 20 000
   random cases, 16 of 177 MILP-found witnesses moved by ulps and one
   was another genuine violation). *)
let ladder_matches_milp_prop =
  QCheck.Test.make ~name:"ladder and milp agree on random containments"
    ~count:30
    QCheck.(
      triple (int_range 1 1000) (float_range 0.3 3.) (float_range 0.3 3.))
    (fun (seed, m0, m1) ->
      let net = random_net seed [ 2; 5; 4; 2 ] in
      let input_box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
      let target = sampled_target ~seed net input_box [| m0; m1 |] in
      let check e = Cv_verify.Containment.check e net ~input_box ~target in
      let hits0 = counter "verify.falsify.hits" in
      let vm = check Cv_verify.Containment.Milp in
      let sampled = counter "verify.falsify.hits" > hits0 in
      (* An LP vertex may sit a few ulps outside the box. *)
      let genuine (v : Cv_verify.Falsify.violation) =
        v.Cv_verify.Falsify.margin > 0.
        && Cv_interval.Box.mem_tol ~tol:1e-9 v.Cv_verify.Falsify.input
             input_box
      in
      match (vm, check Cv_verify.Containment.Ladder) with
      | Cv_verify.Containment.Proved, Cv_verify.Containment.Proved -> true
      | Cv_verify.Containment.Violated a, Cv_verify.Containment.Violated b ->
        let same = a.Cv_verify.Falsify.input = b.Cv_verify.Falsify.input in
        genuine a && genuine b && ((not sampled) || same)
      | Cv_verify.Containment.Unknown _, Cv_verify.Containment.Unknown _ ->
        true
      | _ -> false)

(* [effort engine net ~input_box ~target] checks and returns the verdict
   with the deltas of the ladder and solver counters it moved. *)
let effort engine net ~input_box ~target =
  let names =
    [ "verify.ladder.closed"; "verify.ladder.open"; "milp.solves";
      "verify.falsify.samples" ]
  in
  let before = List.map counter names in
  let v = Cv_verify.Containment.check engine net ~input_box ~target in
  (v, List.map2 (fun n b -> (n, counter n - b)) names before)

(* Which sides the symint bound closes, and what the cutoff MILP still
   pays for the rest, against the pure-MILP engine. *)
let test_ladder_counts () =
  let fig2 = fig2_net () in
  let case what net ~input_box ~target ~closed ~open_ ~ladder ~milp =
    let run engine expected =
      match effort engine net ~input_box ~target with
      | Cv_verify.Containment.Proved, got ->
        List.iter
          (fun (n, want) ->
            Alcotest.(check int)
              (Printf.sprintf "%s [%s] %s" what
                 (Cv_verify.Containment.engine_name engine)
                 n)
              want (List.assoc n got))
          expected
      | _ -> Alcotest.failf "%s: expected a proof" what
    in
    run Cv_verify.Containment.Ladder
      ([ ("verify.ladder.closed", closed); ("verify.ladder.open", open_);
         ("milp.solves", ladder) ]
      @ if open_ = 0 then [ ("verify.falsify.samples", 0) ] else []);
    run Cv_verify.Containment.Milp
      [ ("verify.ladder.closed", 0); ("verify.ladder.open", 0);
        ("milp.solves", milp) ]
  in
  (* Loose target: symint closes both sides; nothing is sampled or
     solved. *)
  case "loose" fig2
    ~input_box:(Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.)
    ~target:(Cv_interval.Box.of_bounds [| -1. |] [| 12.5 |])
    ~closed:2 ~open_:0 ~ladder:0 ~milp:2;
  (* Fig. 2's tight 6.3 bound over the enlarged box: symint closes only
     the lower side. *)
  case "fig2 enlarged" fig2
    ~input_box:(Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.1)
    ~target:(Cv_interval.Box.of_bounds [| -0.1 |] [| 6.3 |])
    ~closed:1 ~open_:1 ~ladder:1 ~milp:2;
  let net = lowers_once_net () in
  let input_box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  case "two outputs" net ~input_box ~target:(widened_range net input_box)
    ~closed:3 ~open_:1 ~ladder:1 ~milp:4;
  (* No tolerance: a bound equal to symint's closes, one ulp inside it
     does not. *)
  let reach =
    Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint fig2 input_box
  in
  let lo = Cv_interval.Box.lower reach and hi = Cv_interval.Box.upper reach in
  case "symint bound" fig2 ~input_box
    ~target:(Cv_interval.Box.of_bounds lo hi)
    ~closed:2 ~open_:0 ~ladder:0 ~milp:2;
  case "one ulp inside" fig2 ~input_box
    ~target:(Cv_interval.Box.of_bounds lo (Array.map Float.pred hi))
    ~closed:1 ~open_:1 ~ladder:1 ~milp:2

(* The containment.check span records which engine closed each side. *)
let test_ladder_span_attrs () =
  Cv_util.Trace.enable ();
  ignore
    (Cv_verify.Containment.check Cv_verify.Containment.Ladder (fig2_net ())
       ~input_box:(Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.1)
       ~target:(Cv_interval.Box.of_bounds [| -0.1 |] [| 6.3 |]));
  Cv_util.Trace.disable ();
  let open Cv_util.Json in
  match to_list (member "trace" (Cv_util.Trace.to_json ())) with
  | [ span ] ->
    let attrs = member "attrs" span in
    List.iter
      (fun (k, v) -> Alcotest.(check string) k v (to_str (member k attrs)))
      [ ("engine", "ladder"); ("ladder.closed", "1"); ("ladder.open", "1");
        ("verdict", "proved") ]
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

(* A sigmoid slice has no MILP encoding; when symint closes every side
   the ladder never needs one. *)
let test_ladder_sigmoid_closed () =
  let net =
    Cv_nn.Network.of_list
      [ Cv_nn.Layer.make
          (Cv_linalg.Mat.of_rows [ [| 1.; -2. |]; [| -2.; 1. |] ])
          [| 0.; 0.5 |] Cv_nn.Activation.Relu;
        Cv_nn.Layer.make
          (Cv_linalg.Mat.of_rows [ [| 0.5; -1. |] ])
          [| 0. |] Cv_nn.Activation.Sigmoid ]
  in
  let input_box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let target = Cv_interval.Box.of_bounds [| -0.5 |] [| 1.5 |] in
  (match
     Cv_verify.Containment.check Cv_verify.Containment.Ladder net ~input_box
       ~target
   with
  | Cv_verify.Containment.Proved -> ()
  | _ -> Alcotest.fail "symint closes both sides of a sigmoid output");
  match
    Cv_verify.Containment.check Cv_verify.Containment.Milp net ~input_box
      ~target
  with
  | _ -> Alcotest.fail "milp has no sigmoid encoding"
  | exception Invalid_argument _ -> ()

let test_ladder_expired_deadline () =
  let net = fig2_net () in
  let input_box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let target = Cv_interval.Box.of_bounds [| -1. |] [| 12.5 |] in
  match
    Cv_verify.Containment.check
      ~deadline:(Cv_util.Deadline.make ~seconds:(-1.))
      Cv_verify.Containment.Ladder net ~input_box ~target
  with
  | Cv_verify.Containment.Unknown { reason = Cv_verify.Containment.Timeout; _ }
    ->
    ()
  | _ -> Alcotest.fail "an expired deadline must give Unknown (timeout)"

(* ------------------------------------------------------------------ *)
(* Verifier + Range                                                    *)
(* ------------------------------------------------------------------ *)

let test_verifier_with_abstractions () =
  let net = fig2_net () in
  let prop =
    Cv_verify.Property.make
      ~din:(Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.)
      ~dout:(Cv_interval.Box.of_bounds [| -1. |] [| 12.5 |])
  in
  let r = Cv_verify.Verifier.verify_with_abstractions net prop in
  (match r.Cv_verify.Verifier.report.Cv_verify.Verifier.verdict with
  | Cv_verify.Containment.Proved -> ()
  | _ -> Alcotest.fail "should prove");
  match r.Cv_verify.Verifier.abstractions with
  | Some s ->
    Alcotest.(check int) "chain length" 2 (Array.length s);
    Alcotest.(check bool) "S_n within dout" true
      (Cv_interval.Box.subset_tol s.(1) prop.Cv_verify.Property.dout)
  | None -> Alcotest.fail "abstract proof should produce the chain"

let test_verifier_fallback_engine () =
  (* Tight property: abstractions fail, MILP fallback proves. *)
  let net = fig2_net () in
  let prop =
    Cv_verify.Property.make
      ~din:(Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.)
      ~dout:(Cv_interval.Box.of_bounds [| -0.1 |] [| 6.1 |])
  in
  let r = Cv_verify.Verifier.verify_with_abstractions net prop in
  (match r.Cv_verify.Verifier.report.Cv_verify.Verifier.verdict with
  | Cv_verify.Containment.Proved -> ()
  | _ -> Alcotest.fail "milp fallback should prove 6.1 over [-1,1]^2");
  Alcotest.(check bool) "no chain artifact from fallback" true
    (r.Cv_verify.Verifier.abstractions = None)

(* f(x) = relu(1 − 1000·(relu(x − p) + relu(p − x))): a spike of height
   1 and width 0.002 at [p]. *)
let spike_net p =
  Cv_nn.Network.of_list
    [ Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 1. |]; [| -1. |] ])
        [| -.p; p |] Cv_nn.Activation.Relu;
      Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| -1000.; -1000. |] ])
        [| 1. |] Cv_nn.Activation.Relu ]

(* The spike sits on the MILP encoding's first sampling seed (its
   sampler is [Rng.create 61]), where the falsifiers' samples miss it:
   the seed alone beats the cutoff, and must be reported as the
   counterexample instead of pruning the search into a proof. *)
let test_spike_at_seed_violates () =
  let din = Cv_interval.Box.uniform 1 ~lo:(-1.) ~hi:1. in
  let p = (Cv_interval.Box.sample (Cv_util.Rng.create 61) din).(0) in
  let net = spike_net p in
  check_float "spike peak" 1. (Cv_nn.Network.eval net [| p |]).(0);
  let dout = Cv_interval.Box.of_bounds [| -1. |] [| 0.5 |] in
  (match
     Cv_verify.Containment.check Cv_verify.Containment.Milp net ~input_box:din
       ~target:dout
   with
  | Cv_verify.Containment.Violated v ->
    check_float "witness at the peak" p v.Cv_verify.Falsify.input.(0)
  | _ -> Alcotest.fail "the spike exceeds 0.5: must be violated");
  let r =
    Cv_verify.Verifier.verify_with_abstractions net
      (Cv_verify.Property.make ~din ~dout)
  in
  match r.Cv_verify.Verifier.report.Cv_verify.Verifier.verdict with
  | Cv_verify.Containment.Violated _ -> ()
  | _ -> Alcotest.fail "verify_with_abstractions must find the spike"

(* Every bound query of one containment check shares one lowering: the
   2·d queries cold-solve once, then restart from the root state. *)
let test_containment_lowers_once () =
  let net = lowers_once_net () in
  let input_box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let target = widened_range net input_box in
  let misses0 = counter "lp.warmstart.misses" in
  let solves0 = counter "milp.solves" in
  (match
     Cv_verify.Containment.check Cv_verify.Containment.Milp net ~input_box
       ~target
   with
  | Cv_verify.Containment.Proved -> ()
  | _ -> Alcotest.fail "the widened exact range must be proved");
  Alcotest.(check int) "2·d bound queries" 4 (counter "milp.solves" - solves0);
  Alcotest.(check int) "one cold solve" 1 (counter "lp.warmstart.misses" - misses0)

(* Figure 2's exact maximum. Its branch-and-bound restarts each child
   node from the parent's dual basis, so warm-start hits rise and
   phase 1 is skipped. *)
let test_exact_range_fig2 () =
  let net = fig2_net () in
  let hits0 = counter "lp.warmstart.hits" in
  let skipped0 = counter "lp.phase1.skipped" in
  let r =
    Cv_verify.Range.exact_range net
      ~din:(Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.1)
  in
  check_float "max 6.2" 6.2 (Cv_interval.Interval.hi (Cv_interval.Box.get r.Cv_verify.Range.range 0));
  check_float "min 0" 0. (Cv_interval.Interval.lo (Cv_interval.Box.get r.Cv_verify.Range.range 0));
  Alcotest.(check bool) "lp.warmstart.hits rise" true
    (counter "lp.warmstart.hits" > hits0);
  Alcotest.(check bool) "lp.phase1.skipped rises" true
    (counter "lp.phase1.skipped" > skipped0)

let test_verify_exact_verdicts () =
  let net = fig2_net () in
  let din = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let safe = Cv_verify.Property.make ~din ~dout:(Cv_interval.Box.of_bounds [| -0.5 |] [| 6.5 |]) in
  (match Cv_verify.Range.verify_exact net safe with
  | Cv_verify.Containment.Proved, _ -> ()
  | _ -> Alcotest.fail "should prove");
  let unsafe = Cv_verify.Property.make ~din ~dout:(Cv_interval.Box.of_bounds [| -0.5 |] [| 3. |]) in
  match Cv_verify.Range.verify_exact net unsafe with
  | Cv_verify.Containment.Violated _, _ -> ()
  | _ -> Alcotest.fail "should find violation"


(* ------------------------------------------------------------------ *)
(* Backward analysis                                                   *)
(* ------------------------------------------------------------------ *)

let test_backward_proves_loose () =
  let net = fig2_net () in
  let din = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let dout = Cv_interval.Box.of_bounds [| -1. |] [| 13. |] in
  let suspects = Cv_verify.Backward.suspect_regions net ~din ~dout in
  Alcotest.(check bool) "all safe" true (Cv_verify.Backward.all_safe suspects);
  Alcotest.(check (float 1e-9)) "volume 0" 0.
    (Cv_verify.Backward.total_suspect_volume ~din suspects)

let test_backward_suspects_cover_violations () =
  (* Every concrete violator found by sampling must lie inside some
     suspect region for its side. *)
  let net = fig2_net () in
  let din = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let dout = Cv_interval.Box.of_bounds [| -1. |] [| 4. |] in
  let suspects = Cv_verify.Backward.suspect_regions net ~din ~dout in
  Alcotest.(check bool) "not all safe" false
    (Cv_verify.Backward.all_safe suspects);
  let rng = Cv_util.Rng.create 3 in
  for _ = 1 to 3000 do
    let x = Cv_interval.Box.sample rng din in
    let y = (Cv_nn.Network.eval net x).(0) in
    if y > 4. then begin
      let covered =
        List.exists
          (fun s ->
            s.Cv_verify.Backward.side = `Upper
            && match s.Cv_verify.Backward.region with
               | Some r -> Cv_interval.Box.mem_tol ~tol:1e-6 x r
               | None -> false)
          suspects
      in
      Alcotest.(check bool) "violator covered" true covered
    end
  done

let test_backward_respects_infinite_bounds () =
  let net = fig2_net () in
  let din = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let dout =
    Cv_interval.Box.make [| Cv_interval.Interval.make (-0.5) Float.infinity |]
  in
  let suspects = Cv_verify.Backward.suspect_regions net ~din ~dout in
  (* only the lower side is checked; the ReLU output is >= 0 > -0.5, so
     the violation constraint y <= -0.5 is LP-infeasible *)
  Alcotest.(check int) "one side only" 1 (List.length suspects);
  Alcotest.(check bool) "lower safe" true (Cv_verify.Backward.all_safe suspects)

let () =
  let containment_cases =
    List.map
      (fun e ->
        Alcotest.test_case
          ("engine " ^ Cv_verify.Containment.engine_name e)
          `Quick (containment_engine_test e))
      engines
  in
  Alcotest.run "cv_verify"
    [ ( "property",
        [ Alcotest.test_case "basics" `Quick test_property_basics;
          Alcotest.test_case "json" `Quick test_property_json ] );
      ( "falsify",
        [ Alcotest.test_case "finds violation" `Quick
            test_falsify_finds_obvious_violation;
          Alcotest.test_case "none on safe" `Quick test_falsify_none_on_safe ] );
      ( "containment",
        containment_cases
        @ [ Alcotest.test_case "exact beats abstract (fig 1/2)" `Quick
              test_exact_beats_abstract;
            Alcotest.test_case "split refines" `Quick test_split_engine_refines;
            QCheck_alcotest.to_alcotest engines_agree_prop;
            QCheck_alcotest.to_alcotest ladder_matches_milp_prop;
            Alcotest.test_case "ladder counts" `Quick test_ladder_counts;
            Alcotest.test_case "ladder span attrs" `Quick
              test_ladder_span_attrs;
            Alcotest.test_case "ladder closes a sigmoid slice" `Quick
              test_ladder_sigmoid_closed;
            Alcotest.test_case "ladder expired deadline" `Quick
              test_ladder_expired_deadline ] );
      ( "backward",
        [ Alcotest.test_case "proves loose" `Quick test_backward_proves_loose;
          Alcotest.test_case "suspects cover violators" `Quick
            test_backward_suspects_cover_violations;
          Alcotest.test_case "infinite bounds" `Quick
            test_backward_respects_infinite_bounds ] );
      ( "verifier+range",
        [ Alcotest.test_case "abstraction proof" `Quick
            test_verifier_with_abstractions;
          Alcotest.test_case "fallback proof" `Quick
            test_verifier_fallback_engine;
          Alcotest.test_case "spike at the MILP seed" `Quick
            test_spike_at_seed_violates;
          Alcotest.test_case "containment lowers once" `Quick
            test_containment_lowers_once;
          Alcotest.test_case "exact range fig2" `Quick test_exact_range_fig2;
          Alcotest.test_case "verify_exact verdicts" `Quick
            test_verify_exact_verdicts ] ) ]
