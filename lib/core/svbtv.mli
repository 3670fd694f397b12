(** Solving SVbTV — fine-tuned network, possibly enlarged domain
    (paper §IV-B). Every [?engine] defaults to
    {!Cv_verify.Containment.Ladder}. *)

(** [get_abstractions p] reads the stored state-abstraction chain from
    the instance's artifact, if any. *)
val get_abstractions : Problem.svbtv -> Cv_interval.Box.t array option

(** [dout p] is the safe output set of the proved property. *)
val dout : Problem.svbtv -> Cv_interval.Box.t

(** [layer_checks ?engine ?domains p] runs the n single-layer
    subproblems of Proposition 4 over the stored chain through
    {!Local.run}, in parallel: [g'_1] over the enlarged domain into
    [S_1], each [g'_{i+1}] over [S_i] into [S_{i+1}], and [g'_n] over
    [S_{n-1}] into [D_out]. Result [i] is layer [i+1]'s, labelled
    [layer<i+1>]. [None] when the artifact carries no state
    abstractions. *)
val layer_checks :
  ?deadline:Cv_util.Deadline.t ->
  ?engine:Cv_verify.Containment.engine ->
  ?domains:int ->
  Problem.svbtv ->
  Local.run option

(** [prop4 ?engine ?domains p] — single-layer reuse of every stored
    abstraction (Proposition 4): {!layer_checks}, [Safe] when every
    subproblem holds. The reported parallel time is the maximum
    subproblem time (Table I, footnote 3). *)
val prop4 :
  ?deadline:Cv_util.Deadline.t ->
  ?engine:Cv_verify.Containment.engine ->
  ?domains:int ->
  Problem.svbtv ->
  Report.attempt

(** [default_anchors n] picks anchors at roughly every other layer — the
    paper's example pattern ([α = 2, 4] for [n = 6]). *)
val default_anchors : int -> int list

(** [prop5 ?engine ?anchors p] — multi-layer reuse at the anchor layers
    [⟨α_1⟩ < … < ⟨α_l⟩] (Proposition 5; paper-style 1-based indices with
    [1 < α < n], default {!default_anchors}; an empty or out-of-range
    list is [Inconclusive]): subproblems run f' from one anchor's
    abstraction to the next. Fewer but harder subproblems than
    {!prop4}. *)
val prop5 :
  ?deadline:Cv_util.Deadline.t ->
  ?engine:Cv_verify.Containment.engine ->
  ?anchors:int list ->
  Problem.svbtv ->
  Report.attempt

(** [leaf_reuse p] — revalidate a stored bisection certificate
    (the ReluVal-style split-tree artifact) against the fine-tuned
    network and re-split only the leaves that fail
    ({!Cv_verify.Split_cert.repair}, default budget: one-shot symbolic
    intervals per leaf, embarrassingly parallel); genuine enlargement
    beyond the certified domain is covered by freshly split slabs. *)
val leaf_reuse : ?deadline:Cv_util.Deadline.t -> Problem.svbtv -> Report.attempt
