(** Incremental abstraction fixing (paper §IV-C).

    When Proposition 4 fails at exactly one layer — [∃x ∈ S_i,
    g'_{i+1}(x) ∉ S_{i+1}] while every other layer's handoff holds — we
    do not re-verify from scratch. Instead:
    + replace [S_{i+1}] by a new [S'_{i+1}] covering the enlarged image
      (abstract transformer of g'_{i+1} over the box [S_i]);
    + propagate forward: [S'_k → S'_{k+1}] with the abstract
      transformer of g'; at each step first try the free inclusion
      [S'_k ⊆ S_k] and then the exact handoff into [S_{k+1}];
    + if containment is re-established before the output layer, the old
      proof covers the rest; otherwise check [S'_{n-1} → D_out]
      directly; only if that also fails is the instance left to a full
      re-verification. *)

type diagnosis = {
  failing : int list;  (** 1-based layer indices whose handoff failed *)
  checks : Local.run;  (** the per-layer checks and their timing *)
}

(** [diagnose ?deadline ?engine p] runs the n independent Prop.-4
    subproblems ({!Svbtv.layer_checks}) and reports which layers
    fail. *)
let diagnose ?deadline ?engine (p : Problem.svbtv) =
  Svbtv.layer_checks ?deadline ?engine p
  |> Option.map (fun (checks : Local.run) ->
         { failing =
             List.init (Array.length checks.Local.results) succ
             |> List.filter (fun i ->
                    not
                      (Cv_verify.Containment.is_proved
                         checks.Local.results.(i - 1).verdict));
           checks })

(** [fix ?engine p ~failing_layer] attempts the repair for a single
    failing (1-based) layer. Returns a {!Report.attempt}; [Safe] when
    containment is re-established (possibly only at the output check),
    [Exhausted] when an exact handoff runs out of budget, [Inconclusive]
    when the propagation reaches the output without ever being
    recaptured. *)
let fix ?deadline ?(engine = Cv_verify.Containment.Ladder) (p : Problem.svbtv)
    ~failing_layer =
  match Svbtv.get_abstractions p with
  | None -> Local.no_abstractions "fixer"
  | Some s ->
    let net = p.Problem.new_net in
    let n = Cv_nn.Network.num_layers net in
    if failing_layer < 1 || failing_layer > n then
      invalid_arg "Fixer.fix: failing_layer out of range";
    let run () =
      let i = failing_layer in
      (* Rebuild S'_i: the box step of the previous (trusted)
         abstraction under the new layer, the step the stored chain was
         built with. *)
      let input_box = if i = 1 then p.Problem.new_din else s.(i - 2) in
      let image from_box layer_idx =
        let slice = Cv_nn.Network.slice net ~from_:layer_idx ~to_:(layer_idx + 1) in
        Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Box slice from_box
      in
      let rec propagate s'_k k steps =
        (* s'_k is the replacement abstraction after layer k (1-based). *)
        if k = n then begin
          (* Reached the output: direct check against D_out. *)
          if Cv_interval.Box.subset_tol s'_k (Svbtv.dout p) then
            (Report.Safe, Printf.sprintf "recaptured at output after %d steps" steps)
          else
            ( Report.Inconclusive
                "propagation reached the output without recapture",
              "" )
        end
        else if Cv_interval.Box.subset_tol s'_k s.(k - 1) then
          ( Report.Safe,
            Printf.sprintf "S'_%d ⊆ S_%d after %d forward steps" k k steps )
        else begin
          (* Exact handoff attempt into the stored S_{k+1}. *)
          let handoff =
            Local.run ?deadline engine
              [| Local.item (Printf.sprintf "handoff%d" k)
                   (Cv_nn.Network.slice net ~from_:k ~to_:(k + 1))
                   ~input_box:s'_k
                   ~target:(if k + 1 = n then Svbtv.dout p else s.(k)) |]
          in
          match Local.outcome handoff.Local.results with
          | Report.Safe when k + 1 = n ->
            (Report.Safe, Printf.sprintf "handoff S'_%d → D_out" k)
          | Report.Safe ->
            ( Report.Safe,
              Printf.sprintf "handoff S'_%d → S_%d re-established" k (k + 1) )
          | Report.Exhausted _ as o -> (o, "")
          | Report.Unsafe _ | Report.Inconclusive _ ->
            propagate (image s'_k k) (k + 1) (steps + 1)
        end
      in
      let s'_i = image input_box (i - 1) in
      propagate s'_i i 0
    in
    let (outcome, detail), wall = Cv_util.Timer.time run in
    { Report.name = "fixer";
      outcome;
      timing = Report.sequential_timing wall;
      detail =
        (if detail = "" then Printf.sprintf "failing layer %d" failing_layer
         else Printf.sprintf "failing layer %d: %s" failing_layer detail) }

(** [repair ?deadline ?engine p] — diagnose, then fix when the failure
    is localised to a single layer (the case §IV-C treats); the
    diagnosis is settled by {!Local.outcome} otherwise: [Safe] when
    every layer holds (Prop 4 itself), [Exhausted] when a check ran out
    of budget, [Inconclusive] when several layers fail, for the
    strategy to fall back on. *)
let repair ?deadline ?engine (p : Problem.svbtv) =
  match diagnose ?deadline ?engine p with
  | None -> Local.no_abstractions "fixer"
  | Some { failing; checks } -> (
    match (Local.outcome checks.Local.results, failing) with
    | Report.Inconclusive _, [ layer ] ->
      let a = fix ?deadline ?engine p ~failing_layer:layer in
      { a with
        Report.timing = Local.sequence checks.Local.timing a.Report.timing }
    | Report.Safe, _ ->
      Local.attempt ~name:"fixer" ~detail:"no failing layer (Prop 4 holds)"
        checks
    | _ -> Local.attempt ~name:"fixer" ~detail:"" checks)
