(** Orchestration: solve the original problem (producing artifacts),
    then settle SVuDC / SVbTV instances by trying the cheap reuse routes
    before falling back to full re-verification.

    Attempt order, cheapest first:
    - SVuDC: trivial inclusion → Prop 3 (Lipschitz, O(1)) → Prop 1
      (two-layer exact) → Prop 2 (rebuild + handoffs) → Δ-cover →
      full re-verification;
    - SVbTV: Prop 6 (when an abstraction pair or interval slack is
      configured) → Prop 4 with §IV-C fixing → differential route →
      Prop 5 → full re-verification. *)

type config = {
  engine : Cv_verify.Containment.engine;  (** exact engine for subproblems *)
  domain : Cv_domains.Analyzer.domain_kind;  (** abstract domain for rebuilds *)
  lipschitz_norm : Cv_lipschitz.Lipschitz.norm;
  anchors : int list option;  (** Prop 5 anchors; [None] = every 2 layers *)
  interval_slack : float option;  (** weight-interval Prop 6 budget *)
  domains : int option;  (** worker domains for parallel subproblems *)
}

(** A sensible default configuration (ladder subproblems — symint
    bound first, cutoff MILP for the sides it leaves open —
    symbolic-interval abstractions, ∞-norm Lipschitz). *)
val default_config : config

(** [lipschitz ?cache net] is the pair of global Lipschitz constants an
    artifact records, [[("Linf", ℓ∞); ("L2", ℓ₂)]], each built through
    [cache] (kind [lipschitz:<norm>]) when one is given. *)
val lipschitz :
  ?cache:Cv_artifacts.Cache.t -> Cv_nn.Network.t -> (string * float) list

(** [chain ?cache ?deadline ?widen domain net din] is the
    state-abstraction chain [S_1..S_n] of [net] over [din] (per-neuron
    slack [widen], default 0), built through [cache] (kind
    [abstractions:<domain>:w=<widen>]) when one is given. *)
val chain :
  ?cache:Cv_artifacts.Cache.t ->
  ?deadline:Cv_util.Deadline.t ->
  ?widen:float ->
  Cv_domains.Analyzer.domain_kind ->
  Cv_nn.Network.t ->
  Cv_interval.Box.t ->
  Cv_interval.Box.t array

(** Result of solving the original verification problem from scratch. *)
type original = {
  artifact : Cv_artifacts.Artifacts.t;
  report : Cv_verify.Verifier.report;
  proved : bool;
}

(** [solve_original ?deadline ?config net prop] verifies
    [φ(f, D_in, D_out)] from scratch — abstract analysis first, exact
    fallback — and packages the proof artifacts (state abstractions when
    the abstract proof succeeded, Lipschitz constants always). Deadline
    expiry degrades the verdict to [Unknown {reason = Timeout; _}]. *)
val solve_original :
  ?deadline:Cv_util.Deadline.t ->
  ?config:config ->
  Cv_nn.Network.t ->
  Cv_verify.Property.t ->
  original

(** [solve_original_exact ?deadline ?config ?widen net prop] — the
    Table I "original problem": a sound-and-complete full-network run
    (exact MILP output range, no cutoffs) {e plus} artifact recording:
    the widened inductive abstraction chain (default slack 0.02) and
    Lipschitz constants. Raises on non-piecewise-linear networks;
    deadline expiry degrades the verdict to
    [Unknown {reason = Timeout; _}] (no partial artifacts), a
    persistent crash (beyond supervised retries) to
    [Unknown {reason = Crash; _}]. [checkpoint]/[resume] persist and
    restore the range computation's progress (completed query optima
    plus the in-flight branch-and-bound snapshot — see
    {!Cv_verify.Range.exact_range}), so a killed run resumes with the
    identical verdict. *)
val solve_original_exact :
  ?deadline:Cv_util.Deadline.t ->
  ?config:config ->
  ?widen:float ->
  ?with_split_cert:bool ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  Cv_nn.Network.t ->
  Cv_verify.Property.t ->
  original

(** [full_verify ?deadline ?config net prop] — complete re-verification
    of the target property, as a strategy attempt. With a deadline, runs
    the {!Cv_verify.Verifier.verify_graceful} escalation chain and
    degrades to [Exhausted] on budget expiry. *)
val full_verify :
  ?deadline:Cv_util.Deadline.t ->
  ?config:config ->
  Cv_nn.Network.t ->
  Cv_verify.Property.t ->
  Report.attempt

(** [run_until_decisive ?deadline ?checkpoint ?resume attempts] runs
    attempt thunks lazily in order, stopping at the first decisive one.
    Attempts run supervised (a crash beyond retries becomes
    [Inconclusive] and the chain continues); checkpointing is
    attempt-granular, and [resume] replays the recorded non-decisive
    attempts, skipping that many thunks. *)
val run_until_decisive :
  ?deadline:Cv_util.Deadline.t ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  (unit -> Report.attempt) list ->
  Report.t

(** [solve_svudc ?deadline ?config p] — the full SVuDC pipeline. On
    budget expiry the run ends with a structured [Exhausted] verdict
    instead of raising. [checkpoint]/[resume] persist and restore
    attempt-level progress (see {!run_until_decisive}). *)
val solve_svudc :
  ?deadline:Cv_util.Deadline.t ->
  ?config:config ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  Problem.svudc ->
  Report.t

(** [solve_svbtv ?deadline ?config ?netabs p] — the full SVbTV pipeline.
    The optional [netabs] is a stored Prop. 6 abstraction pair built for
    the old network. On budget expiry the run ends with a structured
    [Exhausted] verdict instead of raising. [checkpoint]/[resume]
    persist and restore attempt-level progress (see
    {!run_until_decisive}). *)
val solve_svbtv :
  ?deadline:Cv_util.Deadline.t ->
  ?config:config ->
  ?netabs:Netabs_reuse.t ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  Problem.svbtv ->
  Report.t

(** [ratio ~incremental ~original] is the Table I quantity: incremental
    time as a fraction of the original solve time ([nan] when the
    original time is not positive). *)
val ratio : incremental:float -> original:float -> float
