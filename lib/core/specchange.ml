(** Safety Verification under Specification Change (SVuSC) — the
    paper's concluding-remarks direction ("continuous evolution of the
    quantitative specification of DNN and the corresponding reuse"),
    implemented as a third problem class alongside SVuDC and SVbTV.

    The network is unchanged; the safe output set evolves from [D_out]
    to [D_out'] (e.g. a tightened comfort envelope on the waypoint), and
    optionally the input domain is enlarged at the same time. Reuse
    routes, cheapest first:

    + {e trivial}: [D_out ⊆ D_out'] — a relaxed specification inherits
      the old proof verbatim;
    + {e chain}: the stored [S_n] (inflated by ℓκ when the domain also
      grew) already fits [D_out'];
    + otherwise the from-scratch decision on the new property
      ({!Strategy.from_scratch}: abstract-box, then full). *)

type t = {
  net : Cv_nn.Network.t;
  artifact : Cv_artifacts.Artifacts.t;
  new_dout : Cv_interval.Box.t;
  new_din : Cv_interval.Box.t;  (** = old D_in when only the spec moved *)
}

(** [make ~net ~artifact ~new_dout ?new_din ()] validates and builds an
    SVuSC instance. *)
let make ~net ~artifact ~new_dout ?new_din () =
  if not (Cv_artifacts.Artifacts.matches artifact net) then
    invalid_arg "Specchange.make: artifact was not produced for this network";
  let old_prop = artifact.Cv_artifacts.Artifacts.property in
  let new_din =
    match new_din with
    | Some b -> b
    | None -> old_prop.Cv_verify.Property.din
  in
  if not (Cv_interval.Box.subset_tol old_prop.Cv_verify.Property.din new_din)
  then invalid_arg "Specchange.make: new domain must contain the original D_in";
  if Cv_interval.Box.dim new_dout <> Cv_nn.Network.out_dim net then
    invalid_arg "Specchange.make: new D_out dimension";
  { net; artifact; new_dout; new_din }

(** [target_property p] is [φ(f, D_in ∪ Δ_in, D_out')]. *)
let target_property p = Cv_verify.Property.make ~din:p.new_din ~dout:p.new_dout

(** [trivial p] — a relaxed specification ([D_out ⊆ D_out']) with an
    unchanged domain inherits the proof. *)
let trivial p =
  let old_prop = p.artifact.Cv_artifacts.Artifacts.property in
  let ok, wall =
    Cv_util.Timer.time (fun () ->
        Cv_interval.Box.subset_tol old_prop.Cv_verify.Property.dout p.new_dout
        && Cv_interval.Box.subset_tol p.new_din old_prop.Cv_verify.Property.din)
  in
  { Report.name = "spec-trivial";
    outcome =
      (if ok then Report.Safe
       else Report.Inconclusive "specification tightened or domain enlarged");
    timing = Report.sequential_timing wall;
    detail = "old D_out ⊆ new D_out, domain unchanged?" }

(** [chain ?norm p] — the stored [S_n], inflated by ℓκ when the domain
    also grew, fits the new specification. *)
let chain ?(norm = Cv_lipschitz.Lipschitz.Linf) p =
  let artifact = p.artifact in
  let old_prop = artifact.Cv_artifacts.Artifacts.property in
  let run () =
    match Cv_artifacts.Artifacts.final_abstraction artifact with
    | None -> (Report.Inconclusive "artifact carries no state abstractions", "")
    | Some s_n ->
      let kappa =
        Cv_lipschitz.Lipschitz.kappa ~norm
          ~old_box:old_prop.Cv_verify.Property.din ~new_box:p.new_din
      in
      let inflate =
        if kappa <= 0. then Some 0.
        else
          Option.map
            (fun ell -> ell *. kappa)
            (Cv_artifacts.Artifacts.lipschitz_for artifact
               (Cv_lipschitz.Lipschitz.norm_name norm))
      in
      (match inflate with
      | None ->
        (Report.Inconclusive "domain enlarged but no Lipschitz constant", "")
      | Some lk ->
        let inflated = Cv_interval.Box.expand lk s_n in
        let detail =
          Printf.sprintf "S_n ⊕ %.4g %s new D_out" lk
            (if Cv_interval.Box.subset_tol inflated p.new_dout then "⊆" else "⊄")
        in
        if Cv_interval.Box.subset_tol inflated p.new_dout then
          (Report.Safe, detail)
        else (Report.Inconclusive "S_n escapes the new specification", detail))
  in
  let (outcome, detail), wall = Cv_util.Timer.time run in
  { Report.name = "spec-chain";
    outcome;
    timing = Report.sequential_timing wall;
    detail }

(** [solve ?deadline ?config p] runs the SVuSC pipeline: trivial →
    chain → the from-scratch decision on the new property
    ({!Strategy.from_scratch}). Budget expiry ends the run with an
    [Exhausted] verdict. *)
let solve ?deadline ?(config = Strategy.default_config) p =
  Strategy.run_until_decisive ?deadline
    ([ (fun () -> trivial p);
       (fun () -> chain ~norm:config.Strategy.lipschitz_norm p) ]
    @ Strategy.from_scratch ?deadline ~config p.net (target_property p))
