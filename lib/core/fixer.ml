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
  sub_times : float array;  (** per-layer diagnostic times *)
}

(** [diagnose ?deadline ?engine ?domains p] runs the n independent
    Prop.-4 subproblems ({!Svbtv.layer_checks}) and reports which layers
    fail. *)
let diagnose ?deadline ?engine ?domains (p : Problem.svbtv) =
  Svbtv.layer_checks ?deadline ?engine ?domains p
  |> Option.map (fun (results : Svbtv.sub_result array) ->
         { failing =
             List.init (Array.length results) succ
             |> List.filter (fun i ->
                    not (Cv_verify.Containment.is_proved results.(i - 1).verdict));
           sub_times = Array.map (fun (r : Svbtv.sub_result) -> r.seconds) results })

(** [fix ?engine p ~failing_layer] attempts the repair for a single
    failing (1-based) layer. Returns a {!Report.attempt}; [Safe] when
    containment is re-established (possibly only at the output check),
    [Inconclusive] when the propagation reaches the output without ever
    being recaptured. *)
let fix ?deadline ?(engine = Cv_verify.Containment.Ladder) (p : Problem.svbtv)
    ~failing_layer =
  match Svbtv.get_abstractions p with
  | None ->
    { Report.name = "fixer";
      outcome = Report.Inconclusive "artifact carries no state abstractions";
      timing = Report.sequential_timing 0.;
      detail = "" }
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
          let slice = Cv_nn.Network.slice net ~from_:k ~to_:(k + 1) in
          let target = if k + 1 = n then Svbtv.dout p else s.(k) in
          match
            Cv_verify.Containment.check ?deadline engine slice ~input_box:s'_k
              ~target
          with
          | Cv_verify.Containment.Proved ->
            if k + 1 = n then
              (Report.Safe, Printf.sprintf "handoff S'_%d → D_out" k)
            else
              ( Report.Safe,
                Printf.sprintf "handoff S'_%d → S_%d re-established" k (k + 1) )
          | Cv_verify.Containment.Violated _ | Cv_verify.Containment.Unknown _ ->
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

(** [repair ?deadline ?engine ?domains p] — diagnose, then fix when the
    failure is localised to a single layer (the case §IV-C treats);
    multi-layer failures are reported inconclusive for the strategy to
    fall back on. *)
let repair ?deadline ?engine ?domains (p : Problem.svbtv) =
  match diagnose ?deadline ?engine ?domains p with
  | None ->
    { Report.name = "fixer";
      outcome = Report.Inconclusive "artifact carries no state abstractions";
      timing = Report.sequential_timing 0.;
      detail = "" }
  | Some { failing = []; sub_times } ->
    (* Nothing to fix: Prop 4 itself holds. *)
    let wall = Array.fold_left ( +. ) 0. sub_times in
    { Report.name = "fixer";
      outcome = Report.Safe;
      timing =
        { Report.wall;
          parallel = Array.fold_left Float.max 0. sub_times;
          sequential = wall;
          subproblems = Array.length sub_times };
      detail = "no failing layer (Prop 4 holds)" }
  | Some { failing = [ layer ]; sub_times } ->
    let diag_wall = Array.fold_left ( +. ) 0. sub_times in
    let attempt = fix ?deadline ?engine p ~failing_layer:layer in
    { attempt with
      Report.timing =
        { attempt.Report.timing with
          Report.wall = attempt.Report.timing.Report.wall +. diag_wall;
          sequential = attempt.Report.timing.Report.sequential +. diag_wall } }
  | Some { failing; _ } ->
    { Report.name = "fixer";
      outcome =
        Report.Inconclusive
          (Printf.sprintf "%d layers failed (%s): full re-verification needed"
             (List.length failing)
             (String.concat "," (List.map string_of_int failing)));
      timing = Report.sequential_timing 0.;
      detail = "" }
