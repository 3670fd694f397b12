(* Seeded soundness-fuzzing campaign for the certificate pipeline
   (`make certfuzz`).

   Each round draws a random scenario (a network property, an LP, or
   an exact-method MILP goal certificate), emits certificates and
   attacks them. The invariant under fire is the checker's soundness:

   - every honestly emitted certificate must check Valid, and its claim
     must survive concrete sampling (a Valid safety certificate whose
     network has a sampled counterexample is a soundness bug);
   - JSON-level mutations of a valid certificate either fail to decode,
     check Invalid, or — when they happen to stay Valid — must still
     carry a claim that sampling cannot falsify;
   - the targeted per-kind corruptions (the guaranteed-invalid ones)
     must always be rejected.

   Usage: certfuzz.exe [-seed N] [-rounds N] [-out DIR]
   Failing certificates are dumped into DIR (default
   _build/certfuzz-failures) for CI artifact upload. *)

module Box = Cv_interval.Box
module Cert = Cv_cert.Cert
module Check = Cv_cert.Check
module Emit = Cv_cert.Emit
module Lp = Cv_lp.Lp
module Lp_cert = Cv_lp.Lp_cert
module Json = Cv_util.Json
module Rng = Cv_util.Rng

let seed = ref 0

let rounds = ref 40

let out_dir = ref "_build/certfuzz-failures"

let failures = ref 0

let checked = ref 0

let mutations_tried = ref 0

let mutations_valid = ref 0

let () =
  let rec parse = function
    | "-seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "-rounds" :: v :: rest ->
      rounds := int_of_string v;
      parse rest
    | "-out" :: v :: rest ->
      out_dir := v;
      parse rest
    | [] -> ()
    | a :: _ -> failwith ("certfuzz: unknown argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv))

let dump_failure ~why cert_json =
  incr failures;
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file =
    Filename.concat !out_dir (Printf.sprintf "failure-%d-%d.json" !seed !failures)
  in
  let oc = open_out file in
  output_string oc (Json.to_string (Json.Obj [ ("why", Json.Str why); ("certificate", cert_json) ]));
  close_out oc;
  Printf.eprintf "FAIL: %s (dumped to %s)\n%!" why file

let fail ~why cert = dump_failure ~why (Cert.to_json cert)

(* ------------------------------------------------------------------ *)
(* Ground-truth oracle: sample the claim                               *)
(* ------------------------------------------------------------------ *)

(* For a Valid certificate over a network claim, concrete evaluation is
   ground truth: a Network_safe claim falsified by any sampled input, or
   a Network_unsafe claim over a network that is sampled-safe AND whose
   proof point is inside D_out, is a checker soundness bug. *)
let sample_claim rng (cert : Cert.t) =
  match cert.claim with
  | Cert.Network_safe { din; _ } when Box.is_empty din ->
    true (* a mutation emptied D_in: the claim is vacuously true *)
  | Cert.Network_safe { net; din; dout } ->
    (try
       for _ = 1 to 64 do
         let x = Box.sample rng din in
         let y = Cv_nn.Network.eval net x in
         if not (Box.mem_tol ~tol:1e-9 y dout) then raise Exit
       done;
       true
     with Exit -> false)
  | Cert.Network_unsafe { net; din; dout } -> (
    match cert.proof with
    | Cert.P_counterexample x | Cert.P_reuse { inner = Cert.P_counterexample x; _ }
      ->
      Box.mem x din && not (Box.mem_tol ~tol:1e-6 (Cv_nn.Network.eval net x) dout)
    | _ -> true)
  | Cert.Lp_infeasible _ | Cert.Lp_min_at_least _ | Cert.Milp_min_at_least _
    ->
    (* LP-level claims have no cheap independent oracle here; the unit
       suite cross-checks them against the solver. *)
    true

let assert_valid_and_true rng ~what cert =
  incr checked;
  match Check.check cert with
  | Check.Invalid r -> fail ~why:(what ^ " rejected: " ^ r) cert
  | Check.Valid ->
    if not (sample_claim rng cert) then
      fail ~why:(what ^ ": Valid certificate with falsified claim") cert

(* ------------------------------------------------------------------ *)
(* JSON-level mutation attack                                          *)
(* ------------------------------------------------------------------ *)

(* Enumerate numeric leaves, then rewrite the [k]-th one. *)
let rec count_nums = function
  | Json.Num _ -> 1
  | Json.List l -> List.fold_left (fun a j -> a + count_nums j) 0 l
  | Json.Obj kvs -> List.fold_left (fun a (_, j) -> a + count_nums j) 0 kvs
  | _ -> 0

let mutate_num k f j =
  let n = ref k in
  let rec go j =
    match j with
    | Json.Num v ->
      decr n;
      if !n = -1 then Json.Num (f v) else j
    | Json.List l -> Json.List (List.map go l)
    | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, go v)) kvs)
    | _ -> j
  in
  go j

let perturbations =
  [| (fun v -> v +. 1.);
     (fun v -> v -. 1.);
     (fun v -> v *. 10.);
     (fun v -> -.v);
     (fun v -> v +. 1e-6);
     (fun v -> v -. 1e-6);
     (fun v -> v +. 1e9);
     (fun _ -> Float.nan);
     (fun _ -> Float.infinity);
     (fun v -> Float.succ v);
     (fun v -> Float.pred v) |]

let attack rng cert =
  let j = Cert.to_json cert in
  let total = count_nums j in
  if total > 0 then
    for _ = 1 to 12 do
      incr mutations_tried;
      let k = Rng.int rng total in
      let f = perturbations.(Rng.int rng (Array.length perturbations)) in
      let j' = mutate_num k f j in
      match Cert.of_json_result j' with
      | Error _ -> ()
      | Ok cert' -> (
        match Check.check cert' with
        | Check.Invalid _ -> ()
        | Check.Valid ->
          (* Mutations may land on slack — Valid is fine as long as the
             claim still holds against ground truth. *)
          incr mutations_valid;
          if not (sample_claim rng cert') then
            dump_failure ~why:"mutated certificate Valid but claim falsified"
              j')
    done

let expect_invalid ~what cert =
  incr checked;
  match Check.check cert with
  | Check.Invalid _ -> ()
  | Check.Valid -> fail ~why:(what ^ ": guaranteed corruption accepted") cert

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

let random_net rng =
  let widths = [| 2; 3; 4; 5 |] in
  let depth = 1 + Rng.int rng 2 in
  let dims =
    List.init (depth + 2) (fun _ -> widths.(Rng.int rng (Array.length widths)))
  in
  Cv_nn.Network.random ~rng ~dims ~act:Cv_nn.Activation.Relu ()

let meta = ("certfuzz", "certfuzz", "v2:fuzz")

let round_network rng =
  let mode, solver, fingerprint = meta in
  let net = random_net rng in
  let d = Cv_nn.Network.in_dim net in
  let lo = Rng.float rng ~lo:(-2.) ~hi:0. in
  let hi = lo +. Rng.float rng ~lo:0.1 ~hi:2. in
  let din = Box.uniform d ~lo ~hi in
  let chain = Emit.chain_boxes net din in
  let final = chain.(Array.length chain - 1) in
  let margin = Rng.float rng ~lo:1e-3 ~hi:1. in
  let dout = Box.expand margin final in
  (match Emit.safe_cert ~mode ~solver ~fingerprint net ~din ~dout with
  | None -> dump_failure ~why:"safe emission failed on a provable box" (Json.Null)
  | Some cert ->
    assert_valid_and_true rng ~what:"safe" cert;
    attack rng cert;
    (* Targeted corruption: degenerate final chain box. *)
    (match cert.Cert.proof with
    | Cert.P_chain ch ->
      let ch = Array.copy ch in
      ch.(Array.length ch - 1) <- Box.point (Box.center ch.(Array.length ch - 1));
      expect_invalid ~what:"chain" { cert with Cert.proof = Cert.P_chain ch }
    | _ -> ());
    (* Reuse wrap. *)
    (match
       Emit.reuse_cert ~route:"prop3" ~proposition:"Proposition 3"
         ~slack:margin cert
     with
    | Some wrapped ->
      assert_valid_and_true rng ~what:"reuse" wrapped;
      (match wrapped.Cert.proof with
      | Cert.P_reuse { route; proposition; inner; slack = _ } ->
        expect_invalid ~what:"reuse"
          { wrapped with
            Cert.proof = Cert.P_reuse { route; proposition; slack = -1.; inner }
          }
      | _ -> ())
    | None -> dump_failure ~why:"reuse wrap failed" (Cert.to_json cert)));
  (* A falsifiable box: shrink the true sampled range, then certify the
     violation found by sampling. *)
  let rng2 = Rng.create (Rng.int rng 1_000_000) in
  let samples =
    Array.init 128 (fun _ ->
        let x = Box.sample rng2 din in
        (x, Cv_nn.Network.eval net x))
  in
  let outd = Cv_nn.Network.out_dim net in
  let slo = Array.make outd Float.infinity
  and shi = Array.make outd Float.neg_infinity in
  Array.iter
    (fun (_, y) ->
      Array.iteri
        (fun i v ->
          slo.(i) <- Float.min slo.(i) v;
          shi.(i) <- Float.max shi.(i) v)
        y)
    samples;
  let width = Array.mapi (fun i h -> h -. slo.(i)) shi in
  if Array.exists (fun w -> w > 1e-3) width then begin
    let dout =
      Box.of_bounds
        (Array.mapi (fun i l -> l +. (0.4 *. width.(i))) slo)
        (Array.mapi (fun i h -> h -. (0.4 *. width.(i))) shi)
    in
    match
      Array.find_opt
        (fun (_, y) -> not (Box.mem_tol ~tol:1e-9 y dout))
        samples
    with
    | Some (x, _) -> (
      let mode, solver, fingerprint = meta in
      match
        Emit.unsafe_cert ~mode ~solver ~fingerprint net ~din ~dout ~x
      with
      | None ->
        dump_failure ~why:"unsafe emission failed on a sampled violation"
          Json.Null
      | Some cert ->
        assert_valid_and_true rng ~what:"unsafe" cert;
        attack rng cert;
        expect_invalid ~what:"cex"
          { cert with
            Cert.proof =
              Cert.P_counterexample
                (Array.map (fun v -> v +. 1e6) (Box.upper din))
          })
    | None -> ()
  end

(* The exact method's certificate (MILP goal trees, one per D_out
   bound) on a small ReLU net: at most 8 hidden neurons, so at most 8
   binaries and a full branch tree within the default node budget. *)
let round_milp rng =
  let mode, solver, fingerprint = meta in
  let hidden =
    (1 + Rng.int rng 5) :: (if Rng.bool rng then [ 1 + Rng.int rng 3 ] else [])
  in
  let dims = ((2 + Rng.int rng 3) :: hidden) @ [ 1 + Rng.int rng 2 ] in
  let net = Cv_nn.Network.random ~rng ~dims ~act:Cv_nn.Activation.Relu () in
  let lo = Rng.float rng ~lo:(-2.) ~hi:0. in
  let hi = lo +. Rng.float rng ~lo:0.1 ~hi:2. in
  let din = Box.uniform (List.hd dims) ~lo ~hi in
  let exact = (Cv_verify.Range.exact_range net ~din).Cv_verify.Range.range in
  let margin = Rng.float rng ~lo:1e-3 ~hi:0.5 in
  let emit dout =
    Cv_milp.Cert_bridge.safe_cert ~mode ~solver ~fingerprint net ~din ~dout
  in
  (match emit (Box.expand margin exact) with
  | None -> dump_failure ~why:"milp emission failed on a true bound" Json.Null
  | Some cert -> (
    assert_valid_and_true rng ~what:"milp" cert;
    attack rng cert;
    (* Targeted corruptions, one goal at a time: a target shifted up
       claims a bound past the spot-checked outputs, a constant shifted
       up moves the certified bound out of D_out or past them. *)
    match cert.Cert.proof with
    | Cert.P_milp_goals goals ->
      List.iteri
        (fun i _ ->
          let tampered f =
            { cert with
              Cert.proof =
                Cert.P_milp_goals
                  (List.mapi (fun j g -> if i = j then f g else g) goals)
            }
          in
          expect_invalid ~what:"milp target"
            (tampered (fun g ->
                 { g with Cert.mg_target = g.Cert.mg_target +. 1e9 }));
          expect_invalid ~what:"milp const"
            (tampered (fun g ->
                 { g with Cert.mg_const = g.Cert.mg_const +. 1e9 })))
        goals
    | _ -> fail ~why:"milp emission returned another proof kind" cert));
  (* A D_out that sampling shows false — the sampled range with 40% of
     its width cut from each side — must emit nothing. *)
  let ys =
    Array.init 128 (fun _ -> Cv_nn.Network.eval net (Box.sample rng din))
  in
  let side pick init =
    Array.init (Cv_nn.Network.out_dim net) (fun i ->
        Array.fold_left (fun a y -> pick a y.(i)) init ys)
  in
  let slo = side Float.min Float.infinity
  and shi = side Float.max Float.neg_infinity in
  let cut = Array.mapi (fun i h -> 0.4 *. (h -. slo.(i))) shi in
  let dout =
    Box.of_bounds
      (Array.mapi (fun i l -> l +. cut.(i)) slo)
      (Array.mapi (fun i h -> h -. cut.(i)) shi)
  in
  if Array.exists (fun y -> not (Box.mem_tol ~tol:1e-9 y dout)) ys then
    match emit dout with
    | None -> ()
    | Some cert -> fail ~why:"milp certificate for a sampled-false D_out" cert

let random_lp rng =
  let p = Lp.create () in
  let nv = 2 + Rng.int rng 3 in
  let vars =
    Array.init nv (fun _ ->
        Lp.add_var p ~lo:0. ~hi:(Rng.float rng ~lo:1. ~hi:10.) ())
  in
  let nc = 1 + Rng.int rng 3 in
  for _ = 1 to nc do
    let terms =
      Array.to_list
        (Array.map (fun v -> (Rng.float rng ~lo:(-2.) ~hi:2., v)) vars)
    in
    let op = if Rng.bool rng then Lp.Le else Lp.Ge in
    Lp.add_constraint p terms op (Rng.float rng ~lo:(-3.) ~hi:3.)
  done;
  let obj =
    Array.to_list
      (Array.map (fun v -> (Rng.float rng ~lo:(-1.) ~hi:1., v)) vars)
  in
  Lp.set_objective p ~maximize:false obj;
  p

let round_lp rng =
  let mode, solver, fingerprint = meta in
  let p = random_lp rng in
  let compiled = Lp.compile p in
  match
    Lp_cert.lp_certificate ~mode ~solver ~fingerprint compiled
  with
  | None -> () (* stalled / unbounded / degenerate extraction: allowed *)
  | Some cert -> (
    incr checked;
    (match Check.check cert with
    | Check.Valid -> ()
    | Check.Invalid r -> fail ~why:("lp cert rejected: " ^ r) cert);
    attack rng cert;
    (* Solver cross-check: the certified bound must not exceed the
       solver's optimum by more than float noise. *)
    match (cert.Cert.claim, Lp.solve p) with
    | Cert.Lp_min_at_least (_, t), Lp.Optimal { objective; _ } ->
      if t > objective +. 1e-6 +. (1e-9 *. Float.abs objective) then
        fail ~why:"dual bound exceeds solver optimum" cert
    | Cert.Lp_infeasible _, Lp.Optimal _ ->
      fail ~why:"farkas certificate for a solver-feasible system" cert
    | _ -> ())

let () =
  let rng = Rng.create !seed in
  for _ = 1 to !rounds do
    match Rng.int rng 4 with
    | 0 -> round_lp rng
    | 1 -> round_milp rng
    | _ -> round_network rng
  done;
  Printf.printf
    "certfuzz: seed %d, %d rounds, %d certificates checked, %d/%d mutations stayed valid, %d failures\n%!"
    !seed !rounds !checked !mutations_valid !mutations_tried !failures;
  if !failures > 0 then exit 1
