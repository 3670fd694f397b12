(** Orchestration: solve the original problem (producing artifacts),
    then settle SVuDC / SVbTV instances by trying the cheap reuse routes
    before falling back to full re-verification.

    The attempt order mirrors the paper's presentation, cheapest first:
    - SVuDC: trivial inclusion → Prop 3 (Lipschitz, O(1)) → Prop 1
      (two-layer exact) → Prop 2 (rebuild + handoffs) → full.
    - SVbTV: Prop 6 (weight domination, no solver) → Prop 4 with §IV-C
      fixing → Prop 5 (anchored multi-layer) → full.

    Each run returns a {!Report.t} with per-attempt timing so the bench
    harness can reproduce Table I's "incremental time / original time"
    ratios. *)

type config = {
  engine : Cv_verify.Containment.engine;  (** exact engine for subproblems *)
  lipschitz_norm : Cv_lipschitz.Lipschitz.norm;
  anchors : int list option;  (** Prop 5 anchors; [None] = every 2 layers *)
  interval_slack : float option;  (** weight-interval Prop 6 budget *)
  domains : int option;  (** worker domains for parallel subproblems *)
}

(** A sensible default configuration (ladder subproblems — symint
    bound first, cutoff MILP for the sides it leaves open — and ∞-norm
    Lipschitz). *)
let default_config =
  { engine = Cv_verify.Containment.Ladder;
    lipschitz_norm = Cv_lipschitz.Lipschitz.Linf;
    anchors = None;
    interval_slack = None;
    domains = None }

(* ------------------------------------------------------------------ *)
(* Artifact ingredients                                                *)
(* ------------------------------------------------------------------ *)

(** [lipschitz ?cache net] is the pair of global Lipschitz constants an
    artifact records, [("Linf", ℓ∞); ("L2", ℓ₂)], each built through
    [cache] (kind [lipschitz:<norm>]) when one is given. *)
let lipschitz ?cache net =
  let fingerprint = lazy (Cv_artifacts.Artifacts.fingerprint net) in
  List.map
    (fun (name, norm) ->
      let build () = Cv_lipschitz.Lipschitz.global ~norm net in
      ( name,
        match cache with
        | None -> build ()
        | Some c ->
          Cv_artifacts.Cache.float_or_build c
            ~fingerprint:(Lazy.force fingerprint)
            ~box_hash:Cv_artifacts.Cache.no_box ~kind:("lipschitz:" ^ name)
            build ))
    [ ("Linf", Cv_lipschitz.Lipschitz.Linf); ("L2", Cv_lipschitz.Lipschitz.L2) ]

(** [chain ?cache ?deadline ?widen net din] is the state-abstraction
    chain [S_1..S_n] of [net] over [din], built through [cache] (kind
    [abstractions:w=<widen>]) when one is given. The widen is rendered
    with [%.17g], as the JSON writer does, so distinct slacks never
    share an entry. *)
let chain ?cache ?deadline ?(widen = 0.) net din =
  let build () =
    Cv_domains.Analyzer.abstractions ?deadline ~widen Cv_domains.Analyzer.Box
      net din
  in
  match cache with
  | None -> build ()
  | Some c ->
    Cv_artifacts.Cache.boxes_or_build c
      ~fingerprint:(Cv_artifacts.Artifacts.fingerprint net)
      ~box_hash:(Cv_artifacts.Cache.box_hash din)
      ~kind:(Printf.sprintf "abstractions:w=%.17g" widen)
      build

(* ------------------------------------------------------------------ *)
(* Original problem                                                    *)
(* ------------------------------------------------------------------ *)

(** Result of solving the original verification problem from scratch. *)
type original = {
  artifact : Cv_artifacts.Artifacts.t;
  report : Cv_verify.Verifier.report;
  proved : bool;
}

(** [solve_original ?deadline ?config net prop] verifies
    [φ(f, D_in, D_out)] from scratch — abstract analysis first, exact
    fallback — and packages the proof artifacts (state abstractions when
    the abstract proof succeeded, Lipschitz constants always). The
    reported time is the denominator of the Table I ratios. Deadline
    expiry degrades the verdict to [Unknown {reason = Timeout; _}]. *)
let solve_original ?deadline ?(config = default_config) net prop =
  Cv_util.Trace.with_span "strategy.original" @@ fun () ->
  let result, wall =
    Cv_util.Timer.time (fun () ->
        let pr =
          Cv_verify.Verifier.verify_with_abstractions ?deadline
            ~fallback:config.engine net prop
        in
        (pr, lipschitz net))
  in
  let pr, lipschitz = result in
  let proved =
    match pr.Cv_verify.Verifier.report.Cv_verify.Verifier.verdict with
    | Cv_verify.Containment.Proved -> true
    | _ -> false
  in
  { artifact =
      Cv_artifacts.Artifacts.make
        ?state_abstractions:pr.Cv_verify.Verifier.abstractions ~lipschitz
        ~property:prop ~net
        ~solver:
          (Cv_verify.Containment.engine_name
             pr.Cv_verify.Verifier.report.Cv_verify.Verifier.engine)
        ~solve_seconds:wall ();
    report = { pr.Cv_verify.Verifier.report with Cv_verify.Verifier.seconds = wall };
    proved }

(** [solve_original_exact ?widen net prop] — the Table I
    "original problem": a sound-and-complete full-network run (exact
    MILP output range, no cutoffs) {e plus} artifact recording: the
    widened inductive abstraction chain (default slack 0.02) and
    Lipschitz constants. The widening leaves slack for later
    fine-tuning, the same practice as the paper's input-bound buffers.
    Raises on non-piecewise-linear networks. *)
let solve_original_exact ?deadline ?(widen = 0.02) ?(with_split_cert = false)
    ?checkpoint ?resume net prop =
  Cv_util.Trace.with_span "strategy.original_exact" @@ fun () ->
  let lipschitz () = lipschitz net in
  let body () =
    let verdict, _range =
      Cv_verify.Range.verify_exact ?deadline ?checkpoint ?resume net prop
    in
    let split_cert =
      if with_split_cert && verdict = Cv_verify.Containment.Proved then
        Cv_verify.Split_cert.prove ?deadline net
          ~input_box:prop.Cv_verify.Property.din
          ~target:prop.Cv_verify.Property.dout
      else None
    in
    let s = chain ?deadline ~widen net prop.Cv_verify.Property.din in
    let chain_proves =
      Cv_interval.Box.subset_tol s.(Array.length s - 1)
        prop.Cv_verify.Property.dout
    in
    (verdict, (if chain_proves then Some s else None), lipschitz (), split_cert)
  in
  let result, wall =
    Cv_util.Timer.time (fun () ->
        (* Supervised: transient solver failures (spurious errors,
           allocation faults) are retried; a persistent crash degrades
           to a structured Unknown instead of escaping. *)
        Cv_util.Supervisor.protect ~name:"strategy.original_exact"
          ~fallback:(fun exn ->
            ( Cv_verify.Containment.unknown Cv_verify.Containment.Crash
                ("exact solve crashed: " ^ Printexc.to_string exn),
              None, lipschitz (), None ))
          (fun () ->
            try body ()
            with Cv_util.Deadline.Expired msg ->
              (* Exactness admits no partial answer: degrade the whole
                 solve to a structured Unknown (Lipschitz constants are
                 cheap and still recorded). *)
              ( Cv_verify.Containment.unknown Cv_verify.Containment.Timeout
                  msg,
                None, lipschitz (), None )))
  in
  let verdict, abstractions, lipschitz, split_cert = result in
  { artifact =
      Cv_artifacts.Artifacts.make ?state_abstractions:abstractions ~lipschitz
        ?split_cert ~property:prop ~net ~solver:"milp-exact-range"
        ~solve_seconds:wall ();
    report =
      { Cv_verify.Verifier.verdict;
        engine = Cv_verify.Containment.Milp;
        seconds = wall };
    proved =
      (match verdict with Cv_verify.Containment.Proved -> true | _ -> false) }

(* ------------------------------------------------------------------ *)
(* Fallback                                                            *)
(* ------------------------------------------------------------------ *)

(** [full_verify ?deadline ?config net prop] — complete re-verification
    of the target property, as a strategy attempt. Without a deadline
    this is the abstract-then-exact solver; with one it runs the
    {!Cv_verify.Verifier.verify_graceful} escalation chain, so the
    attempt degrades to [Exhausted] (with any salvaged bound in the
    message) instead of hanging when the budget runs out. *)
let full_verify ?deadline ?(config = default_config) net prop =
  let report, wall =
    Cv_util.Timer.time (fun () ->
        match deadline with
        | Some _ -> Cv_verify.Verifier.verify_graceful ?deadline net prop
        | None ->
          (Cv_verify.Verifier.verify_with_abstractions ~fallback:config.engine
             net prop)
            .Cv_verify.Verifier.report)
  in
  let outcome =
    match report.Cv_verify.Verifier.verdict with
    | Cv_verify.Containment.Proved -> Report.Safe
    | Cv_verify.Containment.Violated v -> Report.Unsafe v
    | Cv_verify.Containment.Unknown
        { Cv_verify.Containment.reason = Cv_verify.Containment.Timeout;
          message;
          _ } ->
      Report.Exhausted message
    | Cv_verify.Containment.Unknown u ->
      Report.Inconclusive u.Cv_verify.Containment.message
  in
  { Report.name = "full";
    outcome;
    timing = Report.sequential_timing wall;
    detail =
      (match deadline with
      | Some _ -> "graceful escalation chain (budgeted)"
      | None -> "complete re-verification (no reuse)") }

(* Strategy-level accounting: how many reuse attempts ran and how many
   settled their instance (surfaced by `contiver --stats`). *)
let m_attempts = Cv_util.Metrics.counter "core.attempts"

let m_decisive = Cv_util.Metrics.counter "core.decisive"

(* Run attempts lazily in order, stopping at the first decisive one.
   Budget expiry — either observed before launching an attempt or
   escaping one as Deadline.Expired — ends the run with a structured
   Exhausted outcome instead of an exception.

   Checkpointing is attempt-granular: after every inconclusive attempt
   the accumulated (non-decisive) attempts are written through the sink,
   and [resume] replays them — skipping that many thunks — so a killed
   SVuDC/SVbTV run re-enters the chain exactly where it stopped. The
   attempt list is a deterministic function of the problem and config,
   which makes the positional skip sound. Each attempt also runs
   supervised: a crashed attempt (beyond retries) becomes Inconclusive
   and the chain continues with the next, coarser route. *)
let run_until_decisive ?deadline ?checkpoint ?resume attempts =
  let exhausted_attempt msg =
    { Report.name = "budget";
      outcome = Report.Exhausted msg;
      timing = Report.sequential_timing 0.;
      detail = "deadline expired; remaining attempts skipped" }
  in
  let prior =
    match resume with
    | None -> []
    | Some doc ->
      Cv_util.Json.to_list (Cv_util.Json.member "attempts" doc)
      |> List.map Report.attempt_of_json
  in
  (* [acc] is most-recent-first; the written "attempts" list is
     oldest-first. *)
  let progress acc () =
    Cv_util.Json.Obj
      [ ("attempts", Cv_util.Json.List (List.rev_map Report.attempt_to_json acc))
      ]
  in
  let rec drop n l =
    if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t
  in
  let rec go acc = function
    | [] -> Report.conclude (List.rev acc)
    | thunk :: rest ->
      if Cv_util.Deadline.expired_opt deadline then
        Report.conclude
          (List.rev
             (exhausted_attempt "verification budget exhausted" :: acc))
      else begin
        let attempt =
          Cv_util.Trace.with_span "strategy.attempt" @@ fun () ->
          Cv_util.Metrics.incr m_attempts;
          let attempt =
            Cv_util.Supervisor.protect ~name:"strategy.attempt"
              ~fallback:(fun exn ->
                { Report.name = "crashed";
                  outcome =
                    Report.Inconclusive
                      ("attempt crashed: " ^ Printexc.to_string exn);
                  timing = Report.sequential_timing 0.;
                  detail = "supervised retries exhausted; trying next route" })
              (fun () ->
                try thunk ()
                with Cv_util.Deadline.Expired msg -> exhausted_attempt msg)
          in
          Cv_util.Trace.add_attr "name" attempt.Report.name;
          Cv_util.Trace.add_attr "outcome"
            (Report.outcome_string attempt.Report.outcome);
          attempt
        in
        match attempt.Report.outcome with
        | Report.Safe | Report.Unsafe _ | Report.Exhausted _ ->
          Cv_util.Metrics.incr m_decisive;
          Report.conclude (List.rev (attempt :: acc))
        | Report.Inconclusive _ ->
          let acc = attempt :: acc in
          Cv_util.Checkpoint.save_opt checkpoint (progress acc);
          go acc rest
      end
  in
  go (List.rev prior) (drop (List.length prior) attempts)

(* ------------------------------------------------------------------ *)
(* SVuDC                                                               *)
(* ------------------------------------------------------------------ *)

(** [solve_svudc ?deadline ?config p] — the full SVuDC pipeline.
    [checkpoint]/[resume] persist and restore attempt-level progress
    (see {!run_until_decisive}). *)
let solve_svudc ?deadline ?(config = default_config) ?checkpoint ?resume
    (p : Problem.svudc) =
  Cv_util.Trace.with_span "strategy.svudc" @@ fun () ->
  run_until_decisive ?deadline ?checkpoint ?resume
    [ (fun () -> Svudc.trivial p);
      (fun () -> Svudc.prop3 ~norm:config.lipschitz_norm p);
      (fun () -> Svudc.prop1 ?deadline ~engine:config.engine p);
      (fun () ->
        Svudc.prop2 ?deadline ~engine:config.engine ?domains:config.domains p);
      (fun () ->
        Svudc.delta_cover ?deadline ~engine:config.engine
          ?domains:config.domains p);
      (fun () ->
        full_verify ?deadline ~config p.Problem.net (Problem.svudc_property p))
    ]

(* ------------------------------------------------------------------ *)
(* SVbTV                                                               *)
(* ------------------------------------------------------------------ *)

(** [solve_svbtv ?deadline ?config ?netabs p] — the full SVbTV pipeline.
    The optional [netabs] is a stored Prop. 6 abstraction pair built for
    the old network. *)
let solve_svbtv ?deadline ?(config = default_config) ?netabs ?checkpoint
    ?resume (p : Problem.svbtv) =
  Cv_util.Trace.with_span "strategy.svbtv" @@ fun () ->
  let prop6_attempts =
    (match netabs with
    | Some t -> [ (fun () -> Netabs_reuse.prop6 t p) ]
    | None -> [])
    @
    match config.interval_slack with
    | Some slack -> [ (fun () -> Netabs_reuse.prop6_interval ~slack p) ]
    | None -> []
  in
  run_until_decisive ?deadline ?checkpoint ?resume
    (prop6_attempts
    @ [ (fun () -> Svbtv.leaf_reuse ?deadline ?domains:config.domains p);
        (fun () ->
          (* The paper's own routes next (Prop 4 with §IV-C fixing);
             the differential extension backs them up below. *)
          Fixer.repair ?deadline ~engine:config.engine ?domains:config.domains
            p);
        (fun () -> Diff_reuse.prop_diff ~norm:config.lipschitz_norm p);
        (fun () ->
          let n = Cv_nn.Network.num_layers p.Problem.new_net in
          let anchors =
            match config.anchors with
            | Some a -> a
            | None -> Svbtv.default_anchors n
          in
          if anchors = [] then
            { Report.name = "prop5";
              outcome = Report.Inconclusive "network too shallow for anchors";
              timing = Report.sequential_timing 0.;
              detail = "" }
          else
            Svbtv.prop5 ?deadline ~engine:config.engine
              ?domains:config.domains ~anchors p);
        (fun () ->
          full_verify ?deadline ~config p.Problem.new_net
            (Problem.svbtv_property p)) ])

(** [ratio ~incremental ~original] is the Table I quantity:
    incremental time as a fraction of the original solve time. *)
let ratio ~incremental ~original =
  if original <= 0. then Float.nan else incremental /. original
