(** Local subproblems: the one runner every reuse route checks its
    containment queries through, and the one rule that folds their
    verdicts into an attempt outcome.

    The paper reduces each re-verification to small local subproblems
    [∀x ∈ B, g(x) ∈ T]: a slice [g] of [f] or [f'], an input box [B]
    and a stored [S_i] or [D_out] as the target (Propositions 1, 2, 4
    and 5). Their parallel cost is the largest subproblem time (Table
    I, footnote 3). Prop 1, Prop 2's exact handoffs, Props 4 and 5,
    Δ-cover, the fixer's diagnosis and handoffs and the from-scratch
    [full] check all run here. *)

(** One labelled subproblem. *)
type item

(** [item label slice ~input_box ~target] is the subproblem
    [∀x ∈ input_box, slice(x) ∈ target], reported under [label]. *)
val item :
  string ->
  Cv_nn.Network.t ->
  input_box:Cv_interval.Box.t ->
  target:Cv_interval.Box.t ->
  item

(** One subproblem's outcome: its label, verdict and wall-clock
    seconds. *)
type sub_result = {
  label : string;
  verdict : Cv_verify.Containment.verdict;
  seconds : float;
}

(** A run of subproblems: each result in item order, and the paper's
    timing of the run (wall; parallel = the largest subproblem time;
    sequential = their sum; one subproblem per item). *)
type run = { results : sub_result array; timing : Report.timing }

(** [run ?deadline ?domains engine items] checks every item with
    {!Cv_verify.Containment.check_timed} under [engine], on up to
    [domains] parallel workers ({!Cv_util.Parallel.map}). An expired
    deadline is a verdict ([Unknown {reason = Timeout; _}]), never an
    exception; an exception the engine raises (a non-piecewise-linear
    slice left to the MILP) propagates. *)
val run :
  ?deadline:Cv_util.Deadline.t ->
  ?domains:int ->
  Cv_verify.Containment.engine ->
  item array ->
  run

(** [outcome ?direct results] is the one verdict rule: every item
    proved is [Safe]; with [direct] (the items check [D_out] on the
    whole network: Δ-cover's slabs, [full]) the first violation is
    [Unsafe], and otherwise a violation is one more failed item; any
    timed-out item makes the outcome [Exhausted], naming the failed
    labels and the first timeout's message (with its certified bound,
    if any); anything else is [Inconclusive], naming each failed label
    and its reason. *)
val outcome : ?direct:bool -> sub_result array -> Report.outcome

(** [attempt ?direct ~name ~detail r] is the attempt [name] settled by
    {!outcome} on [r], with [r]'s timing. *)
val attempt :
  ?direct:bool -> name:string -> detail:string -> run -> Report.attempt

(** [sequence a b] is the timing of [a] followed by [b]: each field is
    the sum of the two. *)
val sequence : Report.timing -> Report.timing -> Report.timing

(** The reason a route that needs the stored chain [S_1..S_n] gives up
    on an artifact without one. *)
val abstraction_required : string

(** [no_abstractions name] is the attempt [name] giving up, at no cost,
    on an artifact that carries no state abstractions. *)
val no_abstractions : string -> Report.attempt
