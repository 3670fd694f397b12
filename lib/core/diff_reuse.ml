(** SVbTV via differential verification — a ReluDiff-flavoured route the
    paper's related-work section points at (its ref [20]) but does not
    exploit; we add it as a seventh reuse strategy.

    Idea: fine-tuning moved the weights a little, so
    [ε = max |f'(x) − f(x)|] over the (enlarged) domain is small and
    cheap to bound by differential interval analysis. Combined with the
    stored artifacts:

    [reach(f', D_in ∪ Δ_in) ⊆ S_n ⊕ ℓκ ⊕ ε ⊆ D_out?]

    where [S_n] and ℓ come from the old proof and κ measures the domain
    enlargement (0 when [Δ_in = ∅], in which case the ℓκ term drops and
    no Lipschitz constant is needed). One cheap forward sweep, no solver
    calls. *)

let prop_diff (p : Problem.svbtv) =
  let norm = Cv_lipschitz.Lipschitz.Linf in
  let artifact = p.Problem.artifact in
  let old_prop = artifact.Cv_artifacts.Artifacts.property in
  let run () =
    match Cv_artifacts.Artifacts.final_abstraction artifact with
    | None -> (Report.Inconclusive Local.abstraction_required, "")
    | Some s_n ->
      let old_din = old_prop.Cv_verify.Property.din in
      let kappa =
        Cv_lipschitz.Lipschitz.kappa ~norm ~old_box:old_din
          ~new_box:p.Problem.new_din
      in
      let enlargement_term =
        if kappa <= 0. then Some 0.
        else
          match
            Cv_artifacts.Artifacts.lipschitz_for artifact
              (Cv_lipschitz.Lipschitz.norm_name norm)
          with
          | Some ell -> Some (ell *. kappa)
          | None -> None
      in
      (match enlargement_term with
      | None ->
        ( Report.Inconclusive
            "domain enlarged but no Lipschitz constant stored",
          "" )
      | Some lk ->
        let eps =
          Cv_diffverify.Diffverify.max_output_delta ~old_net:p.Problem.old_net
            ~new_net:p.Problem.new_net p.Problem.new_din
        in
        let inflated = Cv_interval.Box.expand (lk +. eps) s_n in
        let dout = old_prop.Cv_verify.Property.dout in
        let detail =
          Printf.sprintf "ε=%.4g (diff bound), ℓκ=%.4g: S_n ⊕ %.4g %s D_out"
            eps lk (lk +. eps)
            (if Cv_interval.Box.subset_tol inflated dout then "⊆" else "⊄")
        in
        if Cv_interval.Box.subset_tol inflated dout then (Report.Safe, detail)
        else
          (Report.Inconclusive "inflated S_n escapes D_out", detail))
  in
  let (outcome, detail), wall = Cv_util.Timer.time run in
  { Report.name = "prop-diff";
    outcome;
    timing = Report.sequential_timing wall;
    detail }
