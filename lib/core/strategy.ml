(** Orchestration: solve the original problem (producing artifacts),
    then settle SVuDC / SVbTV instances by trying the cheap reuse routes
    before falling back to the from-scratch decision.

    The attempt order mirrors the paper's presentation, cheapest first:
    - SVuDC: trivial inclusion → Prop 3 (Lipschitz, O(1)) → Prop 1
      (two-layer exact) → Prop 2 (rebuild + handoffs) → Δ-cover →
      abstract-box → full.
    - SVbTV: Prop 6 (weight domination, no solver) → Prop 4 with §IV-C
      fixing → Prop 5 (anchored multi-layer) → abstract-box → full.

    The from-scratch decision ({!decide}) is those last two attempts:
    the box chain over [D_in] ([abstract-box]), then the configured
    engine on the whole network ([full]). The original problem runs it
    alone.

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
  verdict : Cv_verify.Containment.verdict;
  proved : bool;
}

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
    verdict;
    proved = Cv_verify.Containment.is_proved verdict }

(* Strategy-level accounting: how many reuse attempts ran and how many
   settled their instance (surfaced by `contiver --stats`). *)
let m_attempts = Cv_util.Metrics.counter "core.attempts"

let m_decisive = Cv_util.Metrics.counter "core.decisive"

(* Run attempts lazily in order, stopping at the first decisive one.
   Budget expiry — either observed before launching an attempt or
   escaping one as Deadline.Expired — ends the run with a structured
   Exhausted outcome instead of an exception. Each attempt runs
   supervised: a crashed attempt (beyond retries) becomes Inconclusive
   and the chain continues with the next, coarser route. A chain keeps
   no resume state: a killed run re-runs it from the first attempt. *)
let run_until_decisive ?deadline attempts =
  let exhausted_attempt msg =
    { Report.name = "budget";
      outcome = Report.Exhausted msg;
      timing = Report.sequential_timing 0.;
      detail = "deadline expired; remaining attempts skipped" }
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
        | Report.Inconclusive _ -> go (attempt :: acc) rest
      end
  in
  go [] attempts

(* ------------------------------------------------------------------ *)
(* The from-scratch decision                                           *)
(* ------------------------------------------------------------------ *)

(* Step one: the box chain over [D_in], through [cache] when the caller
   has one. Safe iff [S_n ⊆ D_out]; a proving chain goes to [on_chain]
   for the artifact. {!run_until_decisive} supervises the attempt, so a
   crash or an expired deadline just leaves no chain. *)
let abstract_box ?cache ?deadline ~on_chain net (prop : Cv_verify.Property.t)
    () =
  let boxes, wall =
    Cv_util.Timer.time (fun () ->
        chain ?cache ?deadline net prop.Cv_verify.Property.din)
  in
  let n = Array.length boxes in
  let proved =
    n > 0
    && Cv_interval.Box.subset_tol boxes.(n - 1) prop.Cv_verify.Property.dout
  in
  if proved then on_chain boxes;
  { Report.name = "abstract-box";
    outcome =
      (if proved then Report.Safe
       else Report.Inconclusive "abstract chain does not prove containment");
    timing = Report.sequential_timing wall;
    detail = Printf.sprintf "%d layer abstractions" n }

(* Step two: [config.engine] on the whole network, under the same
   deadline. A timeout exhausts the decision, and its message carries
   the engine's certified bound. *)
let full ?deadline ~config net (prop : Cv_verify.Property.t) () =
  let verdict, wall =
    Cv_verify.Containment.check_timed ?deadline config.engine net
      ~input_box:prop.Cv_verify.Property.din
      ~target:prop.Cv_verify.Property.dout
  in
  { Report.name = "full";
    outcome =
      (match verdict with
      | Cv_verify.Containment.Proved -> Report.Safe
      | Cv_verify.Containment.Violated v -> Report.Unsafe v
      | Cv_verify.Containment.Unknown
          { Cv_verify.Containment.reason = Cv_verify.Containment.Timeout;
            message;
            best_bound } ->
        Report.Exhausted
          (match best_bound with
          | None -> message
          | Some b -> Printf.sprintf "%s [best bound %.6g]" message b)
      | Cv_verify.Containment.Unknown u ->
        Report.Inconclusive u.Cv_verify.Containment.message);
    timing = Report.sequential_timing wall;
    detail =
      Cv_verify.Containment.engine_name config.engine
      ^ " on the whole network" }

let scratch ?cache ?deadline ~config ~on_chain net prop =
  [ abstract_box ?cache ?deadline ~on_chain net prop;
    full ?deadline ~config net prop ]

(** [from_scratch ?deadline ?config net prop] is the from-scratch
    decision as the last two attempts of an attempt chain:
    [abstract-box], then [full]. *)
let from_scratch ?deadline ?(config = default_config) net prop =
  scratch ?deadline ~config ~on_chain:ignore net prop

(** A from-scratch decision: the run of its attempts, and the chain
    that proved it when [abstract-box] decided. *)
type decision = {
  report : Report.t;
  chain : Cv_interval.Box.t array option;
}

(** [decide ?cache ?deadline ?config net prop] runs the from-scratch
    decision ({!from_scratch}, the chain built through [cache] when one
    is given) under {!run_until_decisive}. *)
let decide ?cache ?deadline ?(config = default_config) net prop =
  if not (Cv_verify.Property.well_formed prop net) then
    invalid_arg "Strategy.decide: property/network dimension mismatch";
  let proof = ref None in
  let report =
    run_until_decisive ?deadline
      (scratch ?cache ?deadline ~config
         ~on_chain:(fun s -> proof := Some s)
         net prop)
  in
  { report; chain = !proof }

(** [artifact ?cache ~config net prop d] is the proof artifact of the
    decision [d]: its proving chain, the Lipschitz constants (through
    [cache]), the engine that decided and the decision's time. *)
let artifact ?cache ~config net prop d =
  Cv_artifacts.Artifacts.make ?state_abstractions:d.chain
    ~lipschitz:(lipschitz ?cache net) ~property:prop ~net
    ~solver:
      (Cv_verify.Containment.engine_name
         (match d.chain with
         | Some _ -> Cv_verify.Containment.Abstract Cv_domains.Analyzer.Box
         | None -> config.engine))
    ~solve_seconds:d.report.Report.total_wall ()

(** [solve_original ?deadline ?config net prop] verifies
    [φ(f, D_in, D_out)] by the from-scratch decision ({!decide}) and
    packages its proof artifact. The recorded time is the denominator
    of the Table I ratios. An exhausted decision reads
    [Unknown {reason = Timeout; _}], any other undecided one
    [Unknown {reason = Imprecise; _}], each with the decision's
    message. *)
let solve_original ?deadline ?(config = default_config) net prop =
  Cv_util.Trace.with_span "strategy.original" @@ fun () ->
  let d = decide ?deadline ~config net prop in
  let verdict =
    match d.report.Report.verdict with
    | Report.Safe -> Cv_verify.Containment.Proved
    | Report.Unsafe v -> Cv_verify.Containment.Violated v
    | Report.Exhausted msg ->
      Cv_verify.Containment.unknown Cv_verify.Containment.Timeout msg
    | Report.Inconclusive msg ->
      Cv_verify.Containment.unknown Cv_verify.Containment.Imprecise msg
  in
  { artifact = artifact ~config net prop d;
    verdict;
    proved = Cv_verify.Containment.is_proved verdict }

(* ------------------------------------------------------------------ *)
(* SVuDC                                                               *)
(* ------------------------------------------------------------------ *)

(** [solve_svudc ?deadline ?config p] — the full SVuDC pipeline. *)
let solve_svudc ?deadline ?(config = default_config) (p : Problem.svudc) =
  Cv_util.Trace.with_span "strategy.svudc" @@ fun () ->
  run_until_decisive ?deadline
    ([ (fun () -> Svudc.trivial p);
       (fun () -> Svudc.prop3 ~norm:config.lipschitz_norm p);
       (fun () -> Svudc.prop1 ?deadline ~engine:config.engine p);
       (fun () ->
         Svudc.prop2 ?deadline ~engine:config.engine ?domains:config.domains p);
       (fun () ->
         Svudc.delta_cover ?deadline ~engine:config.engine
           ?domains:config.domains p) ]
    @ from_scratch ?deadline ~config p.Problem.net (Problem.svudc_property p))

(* ------------------------------------------------------------------ *)
(* SVbTV                                                               *)
(* ------------------------------------------------------------------ *)

(** [solve_svbtv ?deadline ?config ?netabs p] — the full SVbTV pipeline.
    The optional [netabs] is a stored Prop. 6 abstraction pair built for
    the old network. *)
let solve_svbtv ?deadline ?(config = default_config) ?netabs
    (p : Problem.svbtv) =
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
  run_until_decisive ?deadline
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
              ?domains:config.domains ~anchors p) ]
    @ from_scratch ?deadline ~config p.Problem.new_net
        (Problem.svbtv_property p))

(** [ratio ~incremental ~original] is the Table I quantity:
    incremental time as a fraction of the original solve time. *)
let ratio ~incremental ~original =
  if original <= 0. then Float.nan else incremental /. original
