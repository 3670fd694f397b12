(** Proposition 6 — reusing a network abstraction.

    For a single-output head, the artifact is a {e pair} of structural
    abstractions (see {!Cv_netabs.Merge}): an upper model dominating [f]
    from above and a lower model built from the negated network. Reuse
    for a fine-tuned [f'] is a pure weight-domination check; the
    weight-interval variant ({!Cv_netabs.Interval_abs}) is a cheaper,
    looser alternative. *)

type t = {
  upper : Cv_netabs.Merge.t;  (** dominates f from above *)
  lower : Cv_netabs.Merge.t;  (** built from −f; dominates −f from above *)
  din : Cv_interval.Box.t;  (** domain the abstraction was built on *)
}

(** [build ?refinements net ~din] constructs the abstraction pair,
    starting from the coarsest merge and refining [refinements] times
    (0 = coarsest). Raises {!Cv_netabs.Netabs.Unsupported} for
    non-ReLU/multi-output networks. *)
val build : ?refinements:int -> Cv_nn.Network.t -> din:Cv_interval.Box.t -> t

(** [build_adaptive ?max_refinements net ~din ~dout] — the CEGAR loop
    of the abstraction framework (paper ref [7]): refine from the
    coarsest merge until the pair proves [f(D_in) ⊆ D_out]; [None] when
    the budget runs out. Returns the coarsest proving pair, maximising
    the headroom available to Prop. 6 reuse. *)
val build_adaptive :
  ?max_refinements:int ->
  Cv_nn.Network.t ->
  din:Cv_interval.Box.t ->
  dout:Cv_interval.Box.t ->
  t option

(** [output_bounds t] bounds the abstraction pair's output over its
    domain with symbolic intervals: [(lo, hi)] such that every network
    dominated by the pair maps [din] into [[lo, hi]]. *)
val output_bounds : t -> float * float

(** [proves t ~dout] — does the pair establish [f(D_in) ⊆ D_out]? *)
val proves : t -> dout:Cv_interval.Box.t -> bool

(** [reuses t net'] — Prop. 6's premise [f' →D_in f̂]: both models still
    dominate the fine-tuned network (weight checks only, no solver). *)
val reuses : t -> Cv_nn.Network.t -> bool

(** [prop6 t p] — the full Proposition 6 attempt for an SVbTV instance
    with [Δ_in = ∅] (the proposition transfers the proof on the original
    domain; combine with the SVuDC routes for enlargement, as §IV-B
    suggests). *)
val prop6 : t -> Problem.svbtv -> Report.attempt

(** [prop6_interval ~slack p] — the weight-interval variant: build the
    interval abstraction of the old network with the given slack, check
    it proves the property on the original domain, then test parameter
    containment of f'. *)
val prop6_interval : slack:float -> Problem.svbtv -> Report.attempt
