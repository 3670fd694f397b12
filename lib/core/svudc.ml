(** Solving SVuDC — same network, enlarged domain (paper §IV-A).

    Three proof-reuse routes, each returning a {!Report.attempt}:
    - {!prop1}: re-check only the first two layers against the stored
      [S_2] with an exact engine;
    - {!prop2}: rebuild abstractions [S'] on the enlarged domain and
      look for a handoff layer [j] where [S'_j] steps into the stored
      [S_{j+1}];
    - {!prop3}: bound the output drift by ℓ·κ using a stored Lipschitz
      constant and check the inflated [S_n] against [D_out].

    A subproblem violation never means the target property is unsafe
    (the stored abstractions over-approximate); such attempts come back
    [Inconclusive] and the strategy moves on. *)

let abstraction_required = "artifact carries no state abstractions"

let get_abstractions (p : Problem.svudc) =
  p.Problem.artifact.Cv_artifacts.Artifacts.state_abstractions

let old_property (p : Problem.svudc) =
  p.Problem.artifact.Cv_artifacts.Artifacts.property

(* Map a containment verdict on a *subproblem* to an attempt outcome:
   only Proved transfers; everything else is inconclusive — except a
   timeout, which exhausts the whole run's budget. *)
let subproblem_outcome = function
  | Cv_verify.Containment.Proved -> Report.Safe
  | Cv_verify.Containment.Violated v ->
    Report.Inconclusive
      (Printf.sprintf "reuse condition violated (margin %.4g at output %d)"
         v.Cv_verify.Falsify.margin v.Cv_verify.Falsify.neuron)
  | Cv_verify.Containment.Unknown
      { Cv_verify.Containment.reason = Cv_verify.Containment.Timeout;
        message;
        _ } ->
    Report.Exhausted message
  | Cv_verify.Containment.Unknown u ->
    Report.Inconclusive u.Cv_verify.Containment.message

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
  match get_abstractions p with
  | None ->
    { Report.name = "prop1";
      outcome = Report.Inconclusive abstraction_required;
      timing = Report.sequential_timing 0.;
      detail = "" }
  | Some s ->
    let n = Cv_nn.Network.num_layers p.Problem.net in
    if n < 2 then
      { Report.name = "prop1";
        outcome = Report.Inconclusive "network has fewer than 2 layers";
        timing = Report.sequential_timing 0.;
        detail = "" }
    else begin
      let prefix = Cv_nn.Network.prefix p.Problem.net 2 in
      let verdict, wall =
        Cv_verify.Containment.check_timed ?deadline engine prefix
          ~input_box:p.Problem.new_din ~target:s.(1)
      in
      { Report.name = "prop1";
        outcome = subproblem_outcome verdict;
        timing = Report.sequential_timing wall;
        detail =
          Printf.sprintf "g2∘g1 over enlarged domain into S_2 [%s]"
            (Cv_verify.Containment.engine_name engine) }
    end

(** [prop2 ?domain ?engine ?domains p] — proof reuse at layer [j+1]:
    rebuild [S'_1..S'_{n-1}] on the enlarged domain with the abstract
    [domain] (default symbolic intervals), then search — in parallel —
    for a [j] whose handoff [∀x ∈ S'_j, g_{j+1}(x) ∈ S_{j+1}] holds.
    The handoff is first tried as a free box-inclusion test
    ([S'_j ⊆ S_j]), then with the exact engine on the single-layer
    slice. *)
let prop2 ?deadline ?(domain = Cv_domains.Analyzer.Symint)
    ?(engine = Cv_verify.Containment.Ladder) ?domains (p : Problem.svudc) =
  match get_abstractions p with
  | None ->
    { Report.name = "prop2";
      outcome = Report.Inconclusive abstraction_required;
      timing = Report.sequential_timing 0.;
      detail = "" }
  | Some s ->
    let net = p.Problem.net in
    let n = Cv_nn.Network.num_layers net in
    let result, wall =
      Cv_util.Timer.time (fun () ->
          let s' =
            Cv_domains.Analyzer.abstractions ?deadline domain net
              p.Problem.new_din
          in
          (* Handoff candidates: j = 1 .. n-1 (0-based S' index j-1,
             target S_{j+1} = s.(j)). *)
          let candidates = Array.init (max 0 (n - 1)) (fun k -> k + 1) in
          let check j =
            Cv_util.Timer.time (fun () ->
                if Cv_interval.Box.subset_tol s'.(j - 1) s.(j - 1) then
                  (Cv_verify.Containment.Proved, `Subset)
                else begin
                  let slice = Cv_nn.Network.slice net ~from_:j ~to_:(j + 1) in
                  ( Cv_verify.Containment.check ?deadline engine slice
                      ~input_box:s'.(j - 1) ~target:s.(j),
                    `Exact )
                end)
          in
          (Cv_util.Parallel.map ?domains check candidates, Array.length candidates))
    in
    let checks, n_checks = result in
    let times = Array.map snd checks in
    let parallel = Array.fold_left Float.max 0. times in
    let sequential = Array.fold_left ( +. ) 0. times in
    let winner =
      Array.to_seq checks
      |> Seq.mapi (fun idx ((v, how), _) -> (idx + 1, v, how))
      |> Seq.find (fun (_, v, _) -> Cv_verify.Containment.is_proved v)
    in
    { Report.name = "prop2";
      outcome =
        (match winner with
        | Some _ -> Report.Safe
        | None -> Report.Inconclusive "no handoff layer found");
      timing = { Report.wall; parallel; sequential; subproblems = n_checks };
      detail =
        (match winner with
        | Some (j, _, `Subset) -> Printf.sprintf "S'_%d ⊆ S_%d (box inclusion)" j j
        | Some (j, _, `Exact) ->
          Printf.sprintf "handoff S'_%d → S_%d via %s" j (j + 1)
            (Cv_verify.Containment.engine_name engine)
        | None -> Printf.sprintf "%d handoffs tried" n_checks) }

(** [delta_cover ?engine ?domains p] — verify only the {e new} region:
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

let delta_cover ?deadline ?(engine = Cv_verify.Containment.Ladder) ?domains
    (p : Problem.svudc) =
  let old_prop = old_property p in
  let old_din = old_prop.Cv_verify.Property.din in
  let dout = old_prop.Cv_verify.Property.dout in
  let slabs = enlargement_slabs ~old_box:old_din ~new_box:p.Problem.new_din in
  if Array.length slabs = 0 then
    { Report.name = "delta-cover";
      outcome = Report.Safe;
      timing = Report.sequential_timing 0.;
      detail = "Δ_in is empty: nothing new to verify" }
  else begin
    let results, wall =
      Cv_util.Timer.time (fun () ->
          Cv_util.Parallel.map ?domains
            (fun (label, slab) ->
              let verdict, seconds =
                Cv_verify.Containment.check_timed ?deadline engine p.Problem.net
                  ~input_box:slab ~target:dout
              in
              (label, verdict, seconds))
            slabs)
    in
    let times = Array.map (fun (_, _, s) -> s) results in
    let parallel = Array.fold_left Float.max 0. times in
    let sequential = Array.fold_left ( +. ) 0. times in
    (* A concrete violation on a slab IS a violation of the target
       property (the slab lies inside the enlarged domain). *)
    let violation =
      Array.to_seq results
      |> Seq.filter_map (fun (_, v, _) ->
             match v with
             | Cv_verify.Containment.Violated w -> Some w
             | _ -> None)
      |> fun s -> Seq.uncons s |> Option.map fst
    in
    let failures =
      Array.to_list results
      |> List.filter_map (fun (label, v, _) ->
             if Cv_verify.Containment.is_proved v then None else Some label)
    in
    { Report.name = "delta-cover";
      outcome =
        (match violation with
        | Some w -> Report.Unsafe w
        | None ->
          if failures = [] then Report.Safe
          else
            Report.Inconclusive
              (Printf.sprintf "%d/%d slabs unproved (%s)" (List.length failures)
                 (Array.length slabs)
                 (String.concat ", " failures)));
      timing =
        { Report.wall; parallel; sequential; subproblems = Array.length slabs };
      detail =
        Printf.sprintf "%d enlargement slabs vs D_out [%s]" (Array.length slabs)
          (Cv_verify.Containment.engine_name engine) }
  end

(** [prop3 ?norm p] — Lipschitz-based reuse: with stored ℓ (for [norm],
    default ∞) and measured κ (max distance from the enlarged box to the
    old [D_in]), the property transfers when [S_n ⊕ ℓκ ⊆ D_out]. *)
let prop3 ?(norm = Cv_lipschitz.Lipschitz.Linf) (p : Problem.svudc) =
  let norm_key = Cv_lipschitz.Lipschitz.norm_name norm in
  let artifact = p.Problem.artifact in
  let run () =
    match
      ( Cv_artifacts.Artifacts.lipschitz_for artifact norm_key,
        Cv_artifacts.Artifacts.final_abstraction artifact )
    with
    | None, _ -> (Report.Inconclusive ("no Lipschitz constant stored for " ^ norm_key), "")
    | _, None -> (Report.Inconclusive abstraction_required, "")
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
