(** Orchestration: solve the original problem (producing artifacts),
    then settle SVuDC / SVbTV instances by trying the cheap reuse routes
    before falling back to the from-scratch decision.

    Attempt order, cheapest first:
    - SVuDC: trivial inclusion → Prop 3 (Lipschitz, O(1)) → Prop 1
      (two-layer exact) → Prop 2 (rebuild + handoffs) → Δ-cover →
      abstract-box → full;
    - SVbTV: Prop 6 (when an abstraction pair or interval slack is
      configured) → Prop 4 with §IV-C fixing → differential route →
      Prop 5 → abstract-box → full.

    The from-scratch decision ({!decide}) is the last two: the box chain
    over [D_in] ([abstract-box]: Safe iff [S_n ⊆ D_out]), then
    [config.engine] on the whole network ([full]), both under the one
    deadline. *)

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
val default_config : config

(** [lipschitz ?cache net] is the pair of global Lipschitz constants an
    artifact records, [[("Linf", ℓ∞); ("L2", ℓ₂)]], each built through
    [cache] (kind [lipschitz:<norm>]) when one is given. *)
val lipschitz :
  ?cache:Cv_artifacts.Cache.t -> Cv_nn.Network.t -> (string * float) list

(** [chain ?cache ?deadline ?widen net din] is the state-abstraction
    chain [S_1..S_n] of [net] over [din] ({!Cv_domains.Analyzer.abstractions},
    per-neuron slack [widen], default 0), built through [cache] (kind
    [abstractions:w=<widen>]) when one is given. *)
val chain :
  ?cache:Cv_artifacts.Cache.t ->
  ?deadline:Cv_util.Deadline.t ->
  ?widen:float ->
  Cv_nn.Network.t ->
  Cv_interval.Box.t ->
  Cv_interval.Box.t array

(** [run_until_decisive ?deadline attempts] runs attempt thunks lazily
    in order, stopping at the first decisive one. Attempts run
    supervised (a crash beyond retries becomes [Inconclusive] and the
    chain continues). A chain keeps no resume state: a killed run
    re-runs it from the first attempt. *)
val run_until_decisive :
  ?deadline:Cv_util.Deadline.t -> (unit -> Report.attempt) list -> Report.t

(** [from_scratch ?deadline ?config net prop] is the from-scratch
    decision as the tail of an attempt chain: [abstract-box] (the box
    chain over [D_in]; Safe iff [S_n ⊆ D_out]), then [full]
    ([config.engine] on the whole network under the same deadline; a
    timeout is [Exhausted], and its message carries the engine's
    certified bound). *)
val from_scratch :
  ?deadline:Cv_util.Deadline.t ->
  ?config:config ->
  Cv_nn.Network.t ->
  Cv_verify.Property.t ->
  (unit -> Report.attempt) list

(** A from-scratch decision: the run of its attempts, and the chain
    that proved it when [abstract-box] decided. *)
type decision = {
  report : Report.t;
  chain : Cv_interval.Box.t array option;
}

(** [decide ?cache ?deadline ?config net prop] runs {!from_scratch}
    under {!run_until_decisive}, the chain built through [cache] (see
    {!chain}) when one is given. Raises [Invalid_argument] when [prop]
    does not fit [net]. *)
val decide :
  ?cache:Cv_artifacts.Cache.t ->
  ?deadline:Cv_util.Deadline.t ->
  ?config:config ->
  Cv_nn.Network.t ->
  Cv_verify.Property.t ->
  decision

(** [artifact ?cache ~config net prop d] is the proof artifact of the
    decision [d]: its proving chain (if any), the Lipschitz constants
    (see {!lipschitz}), the engine that decided ([box], or
    [config.engine]) and the decision's time. *)
val artifact :
  ?cache:Cv_artifacts.Cache.t ->
  config:config ->
  Cv_nn.Network.t ->
  Cv_verify.Property.t ->
  decision ->
  Cv_artifacts.Artifacts.t

(** Result of solving the original verification problem from scratch. *)
type original = {
  artifact : Cv_artifacts.Artifacts.t;
  verdict : Cv_verify.Containment.verdict;
  proved : bool;
}

(** [solve_original ?deadline ?config net prop] verifies
    [φ(f, D_in, D_out)] by the from-scratch decision ({!decide}) and
    packages its {!artifact}. An exhausted decision reads
    [Unknown {reason = Timeout; _}], any other undecided one
    [Unknown {reason = Imprecise; _}], each with the decision's
    message. *)
val solve_original :
  ?deadline:Cv_util.Deadline.t ->
  ?config:config ->
  Cv_nn.Network.t ->
  Cv_verify.Property.t ->
  original

(** [solve_original_exact ?deadline ?widen net prop] — the
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
  ?widen:float ->
  ?with_split_cert:bool ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  Cv_nn.Network.t ->
  Cv_verify.Property.t ->
  original

(** [solve_svudc ?deadline ?config p] — the full SVuDC pipeline. On
    budget expiry the run ends with a structured [Exhausted] verdict
    instead of raising. *)
val solve_svudc :
  ?deadline:Cv_util.Deadline.t -> ?config:config -> Problem.svudc -> Report.t

(** [solve_svbtv ?deadline ?config ?netabs p] — the full SVbTV pipeline.
    The optional [netabs] is a stored Prop. 6 abstraction pair built for
    the old network. On budget expiry the run ends with a structured
    [Exhausted] verdict instead of raising. *)
val solve_svbtv :
  ?deadline:Cv_util.Deadline.t ->
  ?config:config ->
  ?netabs:Netabs_reuse.t ->
  Problem.svbtv ->
  Report.t

(** [ratio ~incremental ~original] is the Table I quantity: incremental
    time as a fraction of the original solve time ([nan] when the
    original time is not positive). *)
val ratio : incremental:float -> original:float -> float
