(** Solving SVbTV — fine-tuned network, possibly enlarged domain
    (paper §IV-B).

    - {!prop4}: reuse every stored [S_i] — n independent single-layer
      subproblems over the {e new} parameters, checked in parallel; the
      reported parallel cost is the maximum subproblem time (Table I,
      footnote 3).
    - {!prop5}: reuse only the [S_⟨α⟩] at chosen anchor layers — fewer,
      multi-layer subproblems, still independent.
    - Prop. 6 (network-abstraction reuse) lives in {!Netabs_reuse}.

    Props 4 and 5 run and judge their subproblems through {!Local}. *)

let get_abstractions (p : Problem.svbtv) =
  p.Problem.artifact.Cv_artifacts.Artifacts.state_abstractions

let dout (p : Problem.svbtv) =
  p.Problem.artifact.Cv_artifacts.Artifacts.property.Cv_verify.Property.dout

(* The local subproblem [label]: layers [from_, to_) of f' over
   [input_box] into [target]. *)
let item (p : Problem.svbtv) label ~from_ ~to_ ~input_box ~target =
  Local.item label
    (Cv_nn.Network.slice p.Problem.new_net ~from_ ~to_)
    ~input_box ~target

let independent engine (r : Local.run) =
  Printf.sprintf "%d independent subproblems [%s]"
    (Array.length r.Local.results)
    (Cv_verify.Containment.engine_name engine)

(** [layer_checks ?engine ?domains p] — the n single-layer subproblems
    of Proposition 4 over the stored chain: [g'_1] over the enlarged
    domain into [S_1], each [g'_{i+1}] over [S_i] into [S_{i+1}], and
    [g'_n] over [S_{n-1}] into [D_out], run in parallel. *)
let layer_checks ?deadline ?(engine = Cv_verify.Containment.Ladder) ?domains
    (p : Problem.svbtv) =
  Option.map
    (fun s ->
      let n = Cv_nn.Network.num_layers p.Problem.new_net in
      Array.init n (fun i ->
          item p
            (Printf.sprintf "layer%d" (i + 1))
            ~from_:i ~to_:(i + 1)
            ~input_box:(if i = 0 then p.Problem.new_din else s.(i - 1))
            ~target:(if i = n - 1 then dout p else s.(i)))
      |> Local.run ?deadline ?domains engine)
    (get_abstractions p)

(** [prop4 ?engine ?domains p] — single-layer reuse of every stored
    abstraction ({!layer_checks}); every subproblem must hold. *)
let prop4 ?deadline ?(engine = Cv_verify.Containment.Ladder) ?domains
    (p : Problem.svbtv) =
  match layer_checks ?deadline ~engine ?domains p with
  | None -> Local.no_abstractions "prop4"
  | Some r -> Local.attempt ~name:"prop4" ~detail:(independent engine r) r

(** [default_anchors n] picks anchors at roughly every other layer —
    the paper's example pattern ([α = 2, 4] for [n = 6]). *)
let default_anchors n =
  let rec go a = if a >= n then [] else a :: go (a + 2) in
  go 2

(** [prop5 ?engine ?anchors p] — multi-layer reuse at the anchor layers
    [⟨α_1⟩ < … < ⟨α_l⟩] (paper-style 1-based indices with [1 < α < n];
    default {!default_anchors}): subproblems run f' from one anchor's
    abstraction to the next. Fewer but harder subproblems than
    {!prop4}. *)
let prop5 ?deadline ?(engine = Cv_verify.Containment.Ladder) ?anchors
    (p : Problem.svbtv) =
  match get_abstractions p with
  | None -> Local.no_abstractions "prop5"
  | Some s ->
    let n = Cv_nn.Network.num_layers p.Problem.new_net in
    let anchors =
      List.sort_uniq compare (Option.value anchors ~default:(default_anchors n))
    in
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
      let r =
        pairs bounds
        |> List.map (fun (from_, to_) ->
               item p
                 (Printf.sprintf "layers%d-%d" (from_ + 1) to_)
                 ~from_ ~to_
                 ~input_box:
                   (if from_ = 0 then p.Problem.new_din else s.(from_ - 1))
                 ~target:(if to_ = n then dout p else s.(to_ - 1)))
        |> Array.of_list
        |> Local.run ?deadline engine
      in
      Local.attempt ~name:"prop5" ~detail:(independent engine r) r
    end

(** [leaf_reuse ?deadline p] — revalidate a stored bisection certificate
    (the ReluVal-style split-tree artifact) against the fine-tuned
    network: one-shot symbolic intervals per leaf, embarrassingly
    parallel. Each leaf was chosen to make the abstraction tight there,
    so small parameter drift usually passes, and the leaves that fail
    are re-split under one shared budget ({!Cv_verify.Split_cert.repair}).
    Covers the certificate's domain; any genuine enlargement beyond it
    is checked with the splitting engine on the new network. *)
let leaf_reuse ?deadline (p : Problem.svbtv) =
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
          Cv_verify.Split_cert.repair_detailed ?deadline cert p.Problem.new_net
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
