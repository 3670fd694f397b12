(** Proposition 6 — reusing a network abstraction.

    For a single-output head, the artifact is a {e pair} of structural
    abstractions (see {!Cv_netabs.Merge}): an upper model [f̂ᵘ ≥ f] and a
    lower model built from the negated network ([f̂ˡ = −abstraction(−f)
    ≤ f]). The original safety proof goes through the pair:
    [max f̂ᵘ ≤ hi(D_out)] and [min −f̂ˡ̂ ... ≥ lo(D_out)].

    Reuse for a fine-tuned f' is then a pure weight-domination check
    ([Merge.reuses]); if both models still dominate f', the old proof
    transfers with {e zero} solver work. A weight-interval variant
    ({!Cv_netabs.Interval_abs}) is provided as a cheaper, looser
    alternative. *)

type t = {
  upper : Cv_netabs.Merge.t;  (** dominates f from above *)
  lower : Cv_netabs.Merge.t;  (** built from −f; dominates −f from above *)
  din : Cv_interval.Box.t;  (** domain the abstraction was built on *)
}

let negate net =
  let layers = Cv_nn.Network.layers net in
  let n = Array.length layers in
  let out = layers.(n - 1) in
  layers.(n - 1) <-
    Cv_nn.Layer.make
      (Cv_linalg.Mat.scale (-1.) out.Cv_nn.Layer.weights)
      (Cv_linalg.Vec.scale (-1.) out.Cv_nn.Layer.bias)
      out.Cv_nn.Layer.act;
  Cv_nn.Network.make layers

(** [build ?refinements net ~din] constructs the abstraction pair,
    starting from the coarsest merge and refining [refinements] times
    (0 = coarsest). Raises {!Cv_netabs.Netabs.Unsupported} for
    non-ReLU/multi-output networks. *)
let build ?(refinements = 0) net ~din =
  let refine_n ab =
    let rec go ab k =
      if k = 0 then ab
      else match Cv_netabs.Merge.refine ab with None -> ab | Some ab' -> go ab' (k - 1)
    in
    go ab refinements
  in
  let upper = refine_n (Cv_netabs.Merge.coarsest (Cv_netabs.Netabs.split net ~din)) in
  let lower =
    refine_n (Cv_netabs.Merge.coarsest (Cv_netabs.Netabs.split (negate net) ~din))
  in
  { upper; lower; din }

(** [output_bounds t] bounds the abstraction pair's output over its
    domain: returns [(lo, hi)] such that every network dominated by the
    pair maps [din] into [[lo, hi]]. Bounds are obtained by running
    symbolic intervals on the merged networks over the shifted
    domain. *)
let output_bounds t =
  let bound_one merge =
    let net = Cv_netabs.Merge.merged_network merge in
    let shifted =
      Cv_netabs.Netabs.shifted_box t.din
        merge.Cv_netabs.Merge.merged.Cv_netabs.Netabs.input_shift
    in
    let out =
      Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint net shifted
    in
    Cv_interval.Interval.hi (Cv_interval.Box.get out 0)
  in
  let hi = bound_one t.upper in
  let neg_hi = bound_one t.lower in
  (-.neg_hi, hi)

(** [proves t ~dout] — does the pair establish [f(D_in) ⊆ D_out]? *)
let proves t ~dout =
  let lo, hi = output_bounds t in
  let iv = Cv_interval.Box.get dout 0 in
  Cv_util.Float_utils.geq lo (Cv_interval.Interval.lo iv)
  && Cv_util.Float_utils.leq hi (Cv_interval.Interval.hi iv)

(** [build_adaptive ?max_refinements net ~din ~dout] — the CEGAR loop of
    the abstraction framework (paper ref [7]): start from the coarsest
    merge and refine until the pair proves [f(D_in) ⊆ D_out] (or the
    refinement budget runs out — [None]). Returns the {e coarsest}
    proving pair found, which maximises the headroom available to
    Prop. 6 reuse. *)
let build_adaptive ?(max_refinements = 64) net ~din ~dout =
  let refine_pair t =
    match
      (Cv_netabs.Merge.refine t.upper, Cv_netabs.Merge.refine t.lower)
    with
    | None, None -> None
    | u, l ->
      Some
        { t with
          upper = Option.value ~default:t.upper u;
          lower = Option.value ~default:t.lower l }
  in
  let rec go t k =
    if proves t ~dout then Some t
    else if k = 0 then None
    else match refine_pair t with None -> None | Some t' -> go t' (k - 1)
  in
  go (build net ~din) max_refinements

(** [reuses t net'] — Prop. 6's premise [f' →{D_in} f̂]: both models
    still dominate the fine-tuned network (weight checks only). *)
let reuses t net' =
  Cv_netabs.Merge.reuses t.upper net'
  && Cv_netabs.Merge.reuses t.lower (negate net')

(** [prop6 t p] — the full Proposition 6 attempt for an SVbTV instance
    with [Δ_in = ∅] (the proposition transfers the proof on the original
    domain; combine with the SVuDC routes for enlargement, as §IV-B
    suggests). *)
let prop6 t (p : Problem.svbtv) =
  let run () =
    let same_domain =
      Cv_interval.Box.equal p.Problem.new_din t.din
      || Cv_interval.Box.subset_tol p.Problem.new_din t.din
    in
    if not same_domain then
      ( Report.Inconclusive
          "domain enlarged: Prop 6 applies to the original domain only",
        "" )
    else if not (proves t ~dout:(Svbtv.dout p)) then
      (Report.Inconclusive "abstraction pair does not prove the property", "")
    else if reuses t p.Problem.new_net then
      (Report.Safe, "f' is dominated by the stored abstraction pair")
    else (Report.Inconclusive "f' escapes the stored abstraction", "")
  in
  let (outcome, detail), wall = Cv_util.Timer.time run in
  { Report.name = "prop6";
    outcome;
    timing = Report.sequential_timing wall;
    detail }

(** [prop6_interval ~slack p] — the weight-interval variant: build the
    interval abstraction of the {e old} network with the given slack,
    check it proves the property on the original domain, then test
    parameter containment of f'. *)
let prop6_interval ~slack (p : Problem.svbtv) =
  let run () =
    let old_prop = p.Problem.artifact.Cv_artifacts.Artifacts.property in
    let abs = Cv_netabs.Interval_abs.build ~slack p.Problem.old_net in
    let same_domain =
      Cv_interval.Box.subset_tol p.Problem.new_din
        old_prop.Cv_verify.Property.din
    in
    if not same_domain then
      ( Report.Inconclusive
          "domain enlarged: interval Prop 6 applies to the original domain only",
        "" )
    else if
      not
        (Cv_netabs.Interval_abs.proves_safety abs
           ~din:old_prop.Cv_verify.Property.din
           ~dout:old_prop.Cv_verify.Property.dout)
    then
      ( Report.Inconclusive
          (Printf.sprintf "interval abstraction (slack %.3g) too coarse" slack),
        "" )
    else if Cv_netabs.Interval_abs.contains abs p.Problem.new_net then
      (Report.Safe, Printf.sprintf "f' within ±%.3g of f everywhere" slack)
    else
      ( Report.Inconclusive
          (Printf.sprintf "f' drifted beyond slack (%.4g > %.4g)"
             (Cv_netabs.Interval_abs.max_slack p.Problem.old_net p.Problem.new_net)
             slack),
        "" )
  in
  let (outcome, detail), wall = Cv_util.Timer.time run in
  { Report.name = "prop6-interval";
    outcome;
    timing = Report.sequential_timing wall;
    detail }
