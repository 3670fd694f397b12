(* certify: emit certificates and replay each through the trusted
   checker. Two property sets: head 0 over the enlarged D_in with D_out
   running from the box-chain reach (a chain proof) down to the symint
   reach plus 0.5, 0.2, 0.05 and 0 (split trees), and seeded 4x5x5x1
   nets with D_out = exact range + 0.01 (MILP witness trees). cert and
   lp_cert do all the work. *)

module C = Cv_cert

type case = {
  id : string;
  net : Cv_nn.Network.t;
  din : Cv_interval.Box.t;
  dout : Cv_interval.Box.t;
  milp : bool;
  reps : int;  (* calls per timed region, so that none is under 1 ms *)
}

let emit c =
  let fingerprint = Cv_artifacts.Artifacts.fingerprint c.net in
  if c.milp then
    (* 4096 nodes cover the full branch tree over the 10 binaries
       (2^11 - 1 nodes); the default 512 runs out on about 3% of nets. *)
    Cv_milp.Cert_bridge.safe_cert ~max_nodes:4096 ~mode:"verify" ~solver:"milp"
      ~fingerprint c.net ~din:c.din ~dout:c.dout
  else
    C.Emit.safe_cert ~mode:"verify" ~solver:"interval" ~fingerprint c.net ~din:c.din
      ~dout:c.dout

let rec leaves = function
  | C.Cert.Split_leaf _ -> 1
  | C.Cert.Split_node { below; above; _ } -> leaves below + leaves above

let split_leaves (c : C.Cert.t) =
  match c.C.Cert.proof with C.Cert.P_split tree -> leaves tree | _ -> 0

let bytes c = String.length (Cv_util.Json.to_string (C.Cert.to_json c))

(* A tampered copy claims a point D_out the proof cannot reach. *)
let tamper (c : C.Cert.t) =
  match c.C.Cert.claim with
  | C.Cert.Network_safe { net; din; dout } ->
    { c with
      C.Cert.claim =
        C.Cert.Network_safe
          { net; din; dout = Cv_interval.Box.point (Cv_interval.Box.center dout) } }
  | _ -> c

(* The MILP net of certificate [index]: a fresh seeded 4x5x5x1 net per
   certificate, so a run's MILP figures rest on dozens of nets rather
   than on the cost of a few. *)
let milp_case (t : Util.t) index =
  let net =
    Cv_nn.Network.random
      ~rng:(Cv_util.Rng.create (Util.subseed t index))
      ~dims:[ 4; 5; 5; 1 ] ~act:Cv_nn.Activation.Relu ()
  in
  let din = Cv_interval.Box.uniform 4 ~lo:(-1.) ~hi:1. in
  let exact = Cv_verify.Range.exact_range net ~din in
  { id = Printf.sprintf "milp-%d" index;
    net;
    din;
    dout = Cv_interval.Box.expand 0.01 exact.Cv_verify.Range.range;
    milp = true;
    reps = 1 }

let run (t : Util.t) =
  (* Per sweep: one chain, four split and one MILP certificate. With
     that mix the pooled median falls among the split certificates and
     the p90 near the middle of the MILP ones, never on the edge between
     two kinds; and a sweep's rate follows one MILP net, so their median
     over sweeps is the median MILP cost rather than an upper quantile
     of it. *)
  let head_cases =
    Util.setup t (fun () ->
        let exp = Cv_vehicle.Pipeline.build ~config:(Util.pipeline t) () in
        let head = exp.Cv_vehicle.Pipeline.heads.(0) in
        let din = exp.Cv_vehicle.Pipeline.enlarged_din in
        let chain = C.Emit.chain_boxes head din in
        let box_reach = chain.(Array.length chain - 1) in
        let sym = Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint head din in
        let head_case id dout reps = { id; net = head; din; dout; milp = false; reps } in
        head_case "head-chain" box_reach 50
        :: List.map
             (fun m ->
               head_case (Printf.sprintf "head-sym+%g" m) (Cv_interval.Box.expand m sym) 1)
             [ 0.5; 0.2; 0.05; 0. ])
  in
  t.chain_flops <- Util.symint_flops (List.hd head_cases).net;
  let emits = ref [] and checks = ref [] in
  (* Only the last sweep's certificates stay alive: a live heap that grew
     through the run would slow later operations. *)
  let last = ref [] in
  let certify ~measured c =
    let cert = ref None and verdict = ref (C.Check.Invalid "not emitted") in
    let (emit_s, check_s), _ =
      Util.op t ~measured ~layer:"cert" ~id:c.id (fun () ->
          let emit_s =
            Util.batched ~reps:c.reps (fun () ->
                let r = emit c in
                cert := r;
                r)
          in
          let check_s =
            match !cert with
            | None -> Float.nan
            | Some cert ->
              Util.batched ~reps:c.reps (fun () ->
                  let v = C.Check.check cert in
                  verdict := v;
                  v)
          in
          (emit_s, check_s))
    in
    match !cert with
    | None ->
      Util.expect t false (Printf.sprintf "certify: %s emitted nothing" c.id);
      0.
    | Some cert ->
      let kind = C.Cert.proof_kind cert.C.Cert.proof in
      Util.expect t (!verdict = C.Check.Valid)
        (Printf.sprintf "certify: %s certificate is %s" c.id
           (C.Check.verdict_string !verdict));
      let emit_s = Util.norm t emit_s and check_s = Util.norm t check_s in
      emits := (kind, emit_s) :: !emits;
      checks := (kind, check_s) :: !checks;
      t.latencies <- (emit_s +. check_s) :: t.latencies;
      last := (c, cert) :: !last;
      emit_s +. check_s
  in
  let sweep ~measured i =
    let cases = head_cases @ [ milp_case t i ] in
    last := [];
    let s = List.fold_left (fun acc c -> acc +. certify ~measured c) 0. cases in
    Util.rate t (List.length cases) s
  in
  let per_sweep = List.length head_cases + 1 in
  (* 100+ certificates per run for the p90. *)
  let min_sweeps = if t.small then 1 else (100 + per_sweep - 1) / per_sweep in
  Util.measure t ~min_ops:min_sweeps ~fixed:min_sweeps
    ~reset:(fun () -> emits := []; checks := [])
    sweep;
  Util.named t "cert_emit_p50_s" (Util.median (List.map snd !emits)) "s";
  Util.named t "cert_check_p50_s" (Util.median (List.map snd !checks)) "s";
  (* One tampered copy per proof kind must be rejected. *)
  let kinds = Hashtbl.create 4 in
  List.iter
    (fun (c, cert) ->
      let kind = C.Cert.proof_kind cert.C.Cert.proof in
      Util.count t ("cert." ^ c.id)
        (Printf.sprintf "%s/%d bytes/%d leaves" kind (bytes cert) (split_leaves cert));
      if not (Hashtbl.mem kinds kind) then begin
        Hashtbl.replace kinds kind ();
        Util.expect t
          (C.Check.check (tamper cert) <> C.Check.Valid)
          (Printf.sprintf "certify: tampered %s certificate accepted" kind)
      end)
    (List.rev !last);
  if t.traced then begin
    let median_of kind xs =
      match List.filter_map (fun (k, s) -> if k = kind then Some s else None) xs with
      | [] -> 0.
      | ys -> Util.median ys
    in
    List.iter
      (fun (kind, name) ->
        Util.set t ("cert.emit." ^ name ^ "_s") (median_of kind !emits);
        Util.set t ("cert.check." ^ name ^ "_s") (median_of kind !checks))
      [ ("chain", "chain"); ("split", "split"); ("milp-goals", "milp") ];
    let certs = List.map snd !last in
    Util.set t "cert.bytes" (float_of_int (List.fold_left (fun a c -> a + bytes c) 0 certs));
    Util.set t "cert.split_leaves"
      (float_of_int (List.fold_left (fun a c -> a + split_leaves c) 0 certs))
  end
