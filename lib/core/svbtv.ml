(** Solving SVbTV — fine-tuned network, possibly enlarged domain
    (paper §IV-B).

    - {!prop4}: reuse every stored [S_i] — n independent single-layer
      subproblems over the {e new} parameters, checked in parallel; the
      reported parallel cost is the maximum subproblem time (Table I,
      footnote 3).
    - {!prop5}: reuse only the [S_⟨α⟩] at chosen anchor layers — fewer,
      multi-layer subproblems, still independent.
    - Prop. 6 (network-abstraction reuse) lives in {!Netabs_reuse}. *)

let abstraction_required = "artifact carries no state abstractions"

let get_abstractions (p : Problem.svbtv) =
  p.Problem.artifact.Cv_artifacts.Artifacts.state_abstractions

let dout (p : Problem.svbtv) =
  p.Problem.artifact.Cv_artifacts.Artifacts.property.Cv_verify.Property.dout

(* One subproblem: layers [from_, to_) of f' over [input_box] into
   [target]. *)
let subproblem ?deadline engine net ~from_ ~to_ ~input_box ~target =
  let slice = Cv_nn.Network.slice net ~from_ ~to_ in
  Cv_verify.Containment.check_timed ?deadline engine slice ~input_box ~target

type sub_result = {
  label : string;
  verdict : Cv_verify.Containment.verdict;
  seconds : float;
}

let run_subproblems ?deadline ?domains engine net specs =
  Cv_util.Parallel.map ?domains
    (fun (label, from_, to_, input_box, target) ->
      let verdict, seconds =
        subproblem ?deadline engine net ~from_ ~to_ ~input_box ~target
      in
      { label; verdict; seconds })
    specs

let summarize name engine results ~wall =
  let times = Array.map (fun r -> r.seconds) results in
  let parallel = Array.fold_left Float.max 0. times in
  let sequential = Array.fold_left ( +. ) 0. times in
  let failures =
    Array.to_list results
    |> List.filter (fun r -> not (Cv_verify.Containment.is_proved r.verdict))
  in
  let timed_out =
    List.exists
      (fun r ->
        match r.verdict with
        | Cv_verify.Containment.Unknown
            { Cv_verify.Containment.reason = Cv_verify.Containment.Timeout; _ }
          ->
          true
        | _ -> false)
      failures
  in
  let outcome =
    if failures = [] then Report.Safe
    else
      let msg =
        Printf.sprintf "%d/%d subproblems failed (%s)" (List.length failures)
          (Array.length results)
          (String.concat ", " (List.map (fun r -> r.label) failures))
      in
      if timed_out then Report.Exhausted msg else Report.Inconclusive msg
  in
  { Report.name;
    outcome;
    timing =
      { Report.wall; parallel; sequential; subproblems = Array.length results };
    detail =
      Printf.sprintf "%d independent subproblems [%s]" (Array.length results)
        (Cv_verify.Containment.engine_name engine) }

(** [layer_checks ?engine ?domains p] — the n single-layer subproblems
    of Proposition 4 over the stored chain: [g'_1] over the enlarged
    domain into [S_1], each [g'_{i+1}] over [S_i] into [S_{i+1}], and
    [g'_n] over [S_{n-1}] into [D_out], run in parallel. *)
let layer_checks ?deadline ?(engine = Cv_verify.Containment.Ladder) ?domains
    (p : Problem.svbtv) =
  Option.map
    (fun s ->
      let net = p.Problem.new_net in
      let n = Cv_nn.Network.num_layers net in
      Array.init n (fun i ->
          let input_box = if i = 0 then p.Problem.new_din else s.(i - 1) in
          let target = if i = n - 1 then dout p else s.(i) in
          (Printf.sprintf "layer%d" (i + 1), i, i + 1, input_box, target))
      |> run_subproblems ?deadline ?domains engine net)
    (get_abstractions p)

(** [prop4 ?engine ?domains p] — single-layer reuse of every stored
    abstraction ({!layer_checks}); every subproblem must hold. *)
let prop4 ?deadline ?(engine = Cv_verify.Containment.Ladder) ?domains
    (p : Problem.svbtv) =
  match
    Cv_util.Timer.time (fun () -> layer_checks ?deadline ~engine ?domains p)
  with
  | None, _ ->
    { Report.name = "prop4";
      outcome = Report.Inconclusive abstraction_required;
      timing = Report.sequential_timing 0.;
      detail = "" }
  | Some results, wall -> summarize "prop4" engine results ~wall

(** [prop5 ?engine ?domains ~anchors p] — multi-layer reuse at the
    anchor layers [⟨α_1⟩ < … < ⟨α_l⟩] (paper-style 1-based indices with
    [1 < α < n]): subproblems run f' from one anchor's abstraction to
    the next. Fewer but harder subproblems than {!prop4}. *)
let prop5 ?deadline ?(engine = Cv_verify.Containment.Ladder) ?domains
    ~anchors (p : Problem.svbtv) =
  match get_abstractions p with
  | None ->
    { Report.name = "prop5";
      outcome = Report.Inconclusive abstraction_required;
      timing = Report.sequential_timing 0.;
      detail = "" }
  | Some s ->
    let net = p.Problem.new_net in
    let n = Cv_nn.Network.num_layers net in
    let anchors = List.sort_uniq compare anchors in
    if List.exists (fun a -> a <= 1 || a >= n) anchors || anchors = [] then
      { Report.name = "prop5";
        outcome =
          Report.Inconclusive "anchors must satisfy 1 < α < n and be non-empty";
        timing = Report.sequential_timing 0.;
        detail = "" }
    else begin
      let bounds = (0 :: anchors) @ [ n ] in
      let rec pairs = function
        | a :: (b :: _ as rest) -> (a, b) :: pairs rest
        | _ -> []
      in
      let specs =
        pairs bounds
        |> List.map (fun (from_, to_) ->
               let input_box =
                 if from_ = 0 then p.Problem.new_din else s.(from_ - 1)
               in
               let target = if to_ = n then dout p else s.(to_ - 1) in
               ( Printf.sprintf "layers%d-%d" (from_ + 1) to_,
                 from_, to_, input_box, target ))
        |> Array.of_list
      in
      let results, wall =
        Cv_util.Timer.time (fun () ->
            run_subproblems ?deadline ?domains engine net specs)
      in
      summarize "prop5" engine results ~wall
    end

(** [default_anchors n] picks anchors at roughly every other layer —
    the paper's example pattern ([α = 2, 4] for [n = 6]). *)
let default_anchors n =
  let rec go a = if a >= n then [] else a :: go (a + 2) in
  go 2

(** [leaf_reuse ?domains p] — revalidate a stored bisection certificate
    (the ReluVal-style split-tree artifact) against the fine-tuned
    network: one-shot symbolic intervals per leaf, embarrassingly
    parallel. Each leaf was chosen to make the abstraction tight there,
    so small parameter drift usually passes, and the leaves that fail
    are re-split under one shared budget ({!Cv_verify.Split_cert.repair}).
    Covers the certificate's domain; any genuine enlargement beyond it
    is checked with the splitting engine on the new network. *)
let leaf_reuse ?deadline ?domains (p : Problem.svbtv) =
  match p.Problem.artifact.Cv_artifacts.Artifacts.split_cert with
  | None ->
    { Report.name = "leaf-reuse";
      outcome = Report.Inconclusive "artifact carries no split certificate";
      timing = Report.sequential_timing 0.;
      detail = "" }
  | Some cert ->
    let dout_box = dout p in
    let run () =
      if
        not
          (Cv_interval.Box.subset_tol cert.Cv_verify.Split_cert.target dout_box)
      then
        ( Report.Inconclusive
            "certificate target does not imply the property",
          "" )
      else
        match
          Cv_verify.Split_cert.repair_detailed ?deadline ?domains cert
            p.Problem.new_net
        with
        | None ->
          ( Report.Inconclusive
              "failed leaves could not be re-split within the budget",
            "" )
        | Some (repaired, failed) ->
          let leaves =
            match failed with
            | [] ->
              Printf.sprintf "%d leaves revalidated"
                (Cv_verify.Split_cert.num_leaves cert)
            | _ ->
              Printf.sprintf "%d leaves revalidated, %d re-split into %d"
                (Cv_verify.Split_cert.num_leaves cert)
                (List.length failed)
                (Cv_verify.Split_cert.num_leaves repaired
                - Cv_verify.Split_cert.num_leaves cert
                + List.length failed)
          in
          (* Leaves cover the certified domain; handle any enlargement
             beyond it with the splitting engine on the new network. *)
          let cert_box = cert.Cv_verify.Split_cert.input_box in
          if Cv_interval.Box.subset_tol p.Problem.new_din cert_box then
            (Report.Safe, leaves)
          else begin
            (* Only the enlargement slabs need fresh proving. *)
            let slabs =
              Svudc.enlargement_slabs ~old_box:cert_box
                ~new_box:p.Problem.new_din
            in
            let all_ok =
              Array.for_all
                (fun (_, slab) ->
                  Cv_verify.Split_cert.prove ?deadline ~budget:512
                    p.Problem.new_net ~input_box:slab ~target:dout_box
                  <> None)
                slabs
            in
            if all_ok then
              ( Report.Safe,
                Printf.sprintf "%s + %d enlargement slabs" leaves
                  (Array.length slabs) )
            else
              ( Report.Inconclusive "an enlargement slab was not proved",
                "" )
          end
    in
    let (outcome, detail), wall = Cv_util.Timer.time run in
    { Report.name = "leaf-reuse";
      outcome;
      timing =
        { Report.wall;
          parallel = wall;
          sequential = wall;
          subproblems = Cv_verify.Split_cert.num_leaves cert };
      detail }
