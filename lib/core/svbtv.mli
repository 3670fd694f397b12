(** Solving SVbTV — fine-tuned network, possibly enlarged domain
    (paper §IV-B). Every [?engine] defaults to
    {!Cv_verify.Containment.Ladder}. *)

(** [get_abstractions p] reads the stored state-abstraction chain from
    the instance's artifact, if any. *)
val get_abstractions : Problem.svbtv -> Cv_interval.Box.t array option

(** [dout p] is the safe output set of the proved property. *)
val dout : Problem.svbtv -> Cv_interval.Box.t

(** One subproblem's outcome: its label ([layer<i>] for
    {!layer_checks}), verdict and wall-clock seconds. *)
type sub_result = {
  label : string;
  verdict : Cv_verify.Containment.verdict;
  seconds : float;
}

(** [layer_checks ?engine ?domains p] runs the n single-layer
    subproblems of Proposition 4 over the stored chain, in parallel:
    [g'_1] over the enlarged domain into [S_1], each [g'_{i+1}] over
    [S_i] into [S_{i+1}], and [g'_n] over [S_{n-1}] into [D_out]. Entry
    [i] is layer [i+1]'s. [None] when the artifact carries no state
    abstractions. *)
val layer_checks :
  ?deadline:Cv_util.Deadline.t ->
  ?engine:Cv_verify.Containment.engine ->
  ?domains:int ->
  Problem.svbtv ->
  sub_result array option

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

(** [prop5 ?engine ?domains ~anchors p] — multi-layer reuse at the
    anchor layers [⟨α_1⟩ < … < ⟨α_l⟩] (Proposition 5; paper-style
    1-based indices with [1 < α < n]): subproblems run f' from one
    anchor's abstraction to the next. Fewer but harder subproblems than
    {!prop4}. *)
val prop5 :
  ?deadline:Cv_util.Deadline.t ->
  ?engine:Cv_verify.Containment.engine ->
  ?domains:int ->
  anchors:int list ->
  Problem.svbtv ->
  Report.attempt

(** [default_anchors n] picks anchors at roughly every other layer — the
    paper's example pattern ([α = 2, 4] for [n = 6]). *)
val default_anchors : int -> int list

(** [leaf_reuse ?domains p] — revalidate a stored bisection certificate
    (the ReluVal-style split-tree artifact) against the fine-tuned
    network and re-split only the leaves that fail
    ({!Cv_verify.Split_cert.repair}, default budget: one-shot symbolic
    intervals per leaf, embarrassingly parallel); genuine enlargement
    beyond the certified domain is covered by freshly split slabs. *)
val leaf_reuse :
  ?deadline:Cv_util.Deadline.t -> ?domains:int -> Problem.svbtv -> Report.attempt
