(** Solving SVuDC — same network, enlarged domain (paper §IV-A).

    Three proof-reuse routes, each returning a {!Report.attempt}:
    - {!prop1}: re-check only the first two layers against the stored
      [S_2] with an exact engine;
    - {!prop2}: rebuild abstractions [S'] on the enlarged domain and
      look for a handoff layer [j] where [S'_j] steps into the stored
      [S_{j+1}];
    - {!prop3}: bound the output drift by ℓ·κ using a stored Lipschitz
      constant and check the inflated [S_n] against [D_out].

    Their local subproblems run through {!Local}. A subproblem violation
    never means the target property is unsafe (the stored abstractions
    over-approximate); such attempts come back [Inconclusive] and the
    strategy moves on. *)

let old_property (p : Problem.svudc) =
  p.Problem.artifact.Cv_artifacts.Artifacts.property

(** [trivial p] — the degenerate shortcut: if the "enlarged" domain is
    in fact contained in the proved [D_in], the old proof applies
    verbatim. *)
let trivial (p : Problem.svudc) =
  let ok, wall =
    Cv_util.Timer.time (fun () ->
        Cv_interval.Box.subset_tol p.Problem.new_din
          (old_property p).Cv_verify.Property.din)
  in
  { Report.name = "trivial";
    outcome =
      (if ok then Report.Safe
       else Report.Inconclusive "new domain genuinely enlarges D_in");
    timing = Report.sequential_timing wall;
    detail = "new D_in ⊆ old D_in?" }

(** [prop1 ?deadline ?engine p] — proof reuse at layers 1 and 2: check
    [∀x ∈ D_in ∪ Δ_in, g₂(g₁(x)) ∈ S₂] on the two-layer prefix with an
    exact engine (default the symint-then-MILP ladder). *)
let prop1 ?deadline ?(engine = Cv_verify.Containment.Ladder)
    (p : Problem.svudc) =
  match p.Problem.artifact.Cv_artifacts.Artifacts.state_abstractions with
  | None -> Local.no_abstractions "prop1"
  | Some _ when Cv_nn.Network.num_layers p.Problem.net < 2 ->
    { Report.name = "prop1";
      outcome = Report.Inconclusive "network has fewer than 2 layers";
      timing = Report.sequential_timing 0.;
      detail = "" }
  | Some s ->
    Local.run ?deadline engine
      [| Local.item "layers1-2"
           (Cv_nn.Network.prefix p.Problem.net 2)
           ~input_box:p.Problem.new_din ~target:s.(1) |]
    |> Local.attempt ~name:"prop1"
         ~detail:
           (Printf.sprintf "g2∘g1 over enlarged domain into S_2 [%s]"
              (Cv_verify.Containment.engine_name engine))

(** [prop2 ?deadline ?engine p] — proof reuse at layer [j+1]: rebuild
    the box chain [S'_1..S'_{n-1}] on the enlarged domain, then search
    for a [j] whose handoff [∀x ∈ S'_j, g_{j+1}(x) ∈ S_{j+1}] holds. A
    handoff holds for free when [S'_j ⊆ S_j]; the others are checked,
    in parallel, with the exact engine on the single-layer slice. The
    lowest holding [j] is reported. *)
let prop2 ?deadline ?(engine = Cv_verify.Containment.Ladder)
    (p : Problem.svudc) =
  match p.Problem.artifact.Cv_artifacts.Artifacts.state_abstractions with
  | None -> Local.no_abstractions "prop2"
  | Some s ->
    let net = p.Problem.net in
    let candidates = List.init (max 0 (Cv_nn.Network.num_layers net - 1)) succ in
    let handoffs s' =
      let free, exact =
        List.partition
          (fun j -> Cv_interval.Box.subset_tol s'.(j - 1) s.(j - 1))
          candidates
      in
      let run =
        List.map
          (fun j ->
            Local.item (Printf.sprintf "handoff%d" j)
              (Cv_nn.Network.slice net ~from_:j ~to_:(j + 1))
              ~input_box:s'.(j - 1) ~target:s.(j))
          exact
        |> Array.of_list
        |> Local.run ?deadline engine
      in
      let proved =
        List.filteri
          (fun i _ ->
            Cv_verify.Containment.is_proved run.Local.results.(i).verdict)
          exact
      in
      let outcome, detail =
        match List.sort compare (free @ proved) with
        | j :: _ when List.mem j free ->
          (Report.Safe, Printf.sprintf "S'_%d ⊆ S_%d (box inclusion)" j j)
        | j :: _ ->
          ( Report.Safe,
            Printf.sprintf "handoff S'_%d → S_%d via %s" j (j + 1)
              (Cv_verify.Containment.engine_name engine) )
        | [] when candidates = [] ->
          (Report.Inconclusive "no handoff layer found", "0 handoffs tried")
        | [] ->
          ( Local.outcome run.Local.results,
            Printf.sprintf "%d handoffs tried" (List.length candidates) )
      in
      (outcome, detail, run.Local.timing)
    in
    let (outcome, detail, timing), wall =
      Cv_util.Timer.time (fun () ->
          match
            Cv_domains.Analyzer.abstractions ?deadline Cv_domains.Analyzer.Box
              net p.Problem.new_din
          with
          | s' -> handoffs s'
          | exception Cv_util.Deadline.Expired msg ->
            (Report.Exhausted ("S' rebuild: " ^ msg), "", Report.sequential_timing 0.))
    in
    { Report.name = "prop2";
      outcome;
      timing = { timing with Report.wall; subproblems = List.length candidates };
      detail }

(** [delta_cover ?deadline ?engine p] — verify only the {e new} region:
    [D_in ∪ Δ_in \ D_in] is covered by at most [2·dim] axis-aligned
    slabs (one per enlarged box face); each slab is checked directly
    against [D_out] with the exact engine on the full network, and the
    old proof covers [D_in] itself. The slabs are thin (the enlargement
    is small by construction), so most neurons are stable over them and
    the exact checks are fast; all slabs run in parallel.

    This route is not one of the paper's numbered propositions but
    follows directly from its observation that only Δ_in is new; it
    serves as a tighter fallback when Props 1–3 fail. *)
let enlargement_slabs ~old_box ~new_box =
  let dim = Cv_interval.Box.dim new_box in
  let slabs = ref [] in
  for i = 0 to dim - 1 do
    let o = Cv_interval.Box.get old_box i in
    let n = Cv_interval.Box.get new_box i in
    if Cv_interval.Interval.lo n < Cv_interval.Interval.lo o then begin
      let slab = Array.copy new_box in
      slab.(i) <-
        Cv_interval.Interval.make (Cv_interval.Interval.lo n)
          (Cv_interval.Interval.lo o);
      slabs := (Printf.sprintf "axis%d-low" i, slab) :: !slabs
    end;
    if Cv_interval.Interval.hi n > Cv_interval.Interval.hi o then begin
      let slab = Array.copy new_box in
      slab.(i) <-
        Cv_interval.Interval.make (Cv_interval.Interval.hi o)
          (Cv_interval.Interval.hi n);
      slabs := (Printf.sprintf "axis%d-high" i, slab) :: !slabs
    end
  done;
  Array.of_list (List.rev !slabs)

let delta_cover ?deadline ?(engine = Cv_verify.Containment.Ladder)
    (p : Problem.svudc) =
  let old_prop = old_property p in
  let slabs =
    enlargement_slabs ~old_box:old_prop.Cv_verify.Property.din
      ~new_box:p.Problem.new_din
  in
  if Array.length slabs = 0 then
    { Report.name = "delta-cover";
      outcome = Report.Safe;
      timing = Report.sequential_timing 0.;
      detail = "Δ_in is empty: nothing new to verify" }
  else
    (* A slab lies inside the enlarged domain and is checked against
       D_out itself, so a violation on it is a violation of the target
       property. *)
    Array.map
      (fun (label, slab) ->
        Local.item label p.Problem.net ~input_box:slab
          ~target:old_prop.Cv_verify.Property.dout)
      slabs
    |> Local.run ?deadline engine
    |> Local.attempt ~direct:true ~name:"delta-cover"
         ~detail:
           (Printf.sprintf "%d enlargement slabs vs D_out [%s]"
              (Array.length slabs)
              (Cv_verify.Containment.engine_name engine))

(** [prop3 p] — Lipschitz-based reuse: with the stored ∞-norm ℓ and
    measured κ (max distance from the enlarged box to the old [D_in]),
    the property transfers when [S_n ⊕ ℓκ ⊆ D_out]. *)
let prop3 (p : Problem.svudc) =
  let norm = Cv_lipschitz.Lipschitz.Linf in
  let norm_key = Cv_lipschitz.Lipschitz.norm_name norm in
  let artifact = p.Problem.artifact in
  let run () =
    match
      ( Cv_artifacts.Artifacts.lipschitz_for artifact norm_key,
        Cv_artifacts.Artifacts.final_abstraction artifact )
    with
    | None, _ -> (Report.Inconclusive ("no Lipschitz constant stored for " ^ norm_key), "")
    | _, None -> (Report.Inconclusive Local.abstraction_required, "")
    | Some ell, Some s_n ->
      let old_din = (old_property p).Cv_verify.Property.din in
      let kappa =
        Cv_lipschitz.Lipschitz.kappa ~norm ~old_box:old_din
          ~new_box:p.Problem.new_din
      in
      let inflated = Cv_interval.Box.expand (ell *. kappa) s_n in
      let dout = (old_property p).Cv_verify.Property.dout in
      let detail =
        Printf.sprintf "ℓ=%.4g κ=%.4g ℓκ=%.4g: S_n ⊕ ℓκ %s D_out" ell kappa
          (ell *. kappa)
          (if Cv_interval.Box.subset_tol inflated dout then "⊆" else "⊄")
      in
      if Cv_interval.Box.subset_tol inflated dout then (Report.Safe, detail)
      else (Report.Inconclusive "inflated S_n escapes D_out", detail)
  in
  let (outcome, detail), wall = Cv_util.Timer.time run in
  { Report.name = "prop3";
    outcome;
    timing = Report.sequential_timing wall;
    detail }
