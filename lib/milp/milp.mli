(** Mixed-integer linear programming by branch-and-bound over {!Cv_lp}
    (binary integer variables — all the big-M ReLU encoding needs).

    Branching is best-first on the LP relaxation bound (a binary
    max-heap frontier) with most-fractional selection. The model is
    lowered once per problem: a problem keeps the root-optimal state of
    its last solve, and the next solve swaps that state's objective and
    restarts primal phase 2 from its basis. Node relaxations are rhs
    updates solved by dual-simplex warm restarts from the previous
    optimal basis. The optional [cutoff] turns an optimisation into a
    decision: proving "max ≤ θ" fathoms every node whose bound is ≤ θ
    and stops as soon as an integer point exceeds θ.

    A problem is mutable solver state: it must not be solved from two
    domains at once (each solve also installs its objective on [lp]).
    Build it only through {!add_var}, {!add_binary} and
    {!add_constraint}, which drop the cached root state; [lp] is a
    read-only view. *)

type solution = { objective : float; values : float array }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Cutoff_reached of solution
      (** an integer point beat the requested cutoff; search stopped *)
  | Below_cutoff of float
      (** every node was fathomed at or below the cutoff; the payload is
          a proven upper bound on the true optimum, at most
          [cutoff + 1e-7] *)
  | Timeout of { bound : float; incumbent : solution option }
      (** the deadline, node budget or simplex iteration budget expired
          before the gap closed; [bound] is a certified bound on the
          true optimum from the unfathomed relaxations (an {e upper}
          bound when maximising, a lower bound when minimising; infinite
          when even the root relaxation did not finish) and [incumbent]
          the best integer-feasible point found so far *)

(** The compiled root state a problem keeps between solves. *)
type root_cache

type problem = private {
  lp : Cv_lp.Lp.problem;
  mutable binaries : int list;
  mutable nbin : int;  (** cached [List.length binaries] *)
  mutable root : root_cache;
}

(** [create ()] is an empty MILP model. *)
val create : unit -> problem

(** [add_var p ?lo ?hi ?name ()] declares a continuous variable. *)
val add_var :
  problem -> ?lo:float -> ?hi:float -> ?name:string -> unit -> Cv_lp.Lp.var

(** [add_binary p ?name ()] declares a 0/1 integer variable. *)
val add_binary : problem -> ?name:string -> unit -> Cv_lp.Lp.var

(** [add_constraint p terms op rhs] adds a linear constraint. *)
val add_constraint :
  problem -> Cv_lp.Lp.term list -> Cv_lp.Lp.relop -> float -> unit

val var_count : problem -> int

val constraint_count : problem -> int

(** [binary_count p] is the cached number of integer variables. *)
val binary_count : problem -> int

(** [maximize ?deadline ?cutoff ?known_feasible ?node_limit ?domains
    ?max_iters p terms] maximises over the mixed-integer feasible set.
    [known_feasible] is an externally certified feasible objective value
    that seeds the incumbent for pruning; if the search then closes
    without an explicit incumbent, an [Optimal] with empty [values] is
    returned — also under a [cutoff] the seed already beats, so
    [Below_cutoff] never reports a bound above the cutoff. [domains > 1] solves frontier nodes in parallel batches
    on {!Cv_util.Parallel} domains, merging results in deterministic
    batch order. [max_iters] caps simplex iterations per LP phase
    (stalls degrade to [Timeout]). On deadline or node-budget
    exhaustion the search returns [Timeout] with the certified
    incumbent bound instead of hanging or raising.

    [checkpoint] snapshots the search state (frontier bounds/fixings,
    incumbent, fathomed-bound high-water mark) at the sink's cadence;
    [resume] restores such a snapshot instead of starting from the root
    node, reaching the same verdict as an uninterrupted run. A crashed
    worker dive re-queues its node and rebuilds its solver slot from a
    pristine copy; repeated crashes degrade to a certified
    [Timeout]. *)
val maximize :
  ?deadline:Cv_util.Deadline.t ->
  ?cutoff:float ->
  ?known_feasible:float ->
  ?node_limit:int ->
  ?domains:int ->
  ?max_iters:int ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  problem ->
  Cv_lp.Lp.term list ->
  result

(** [minimize ?deadline ?cutoff ?known_feasible ?node_limit ?domains
    ?max_iters p terms] minimises by negating the objective; snapshots
    stay in the internal negated space, so checkpoint and resume
    compose across minimise calls. *)
val minimize :
  ?deadline:Cv_util.Deadline.t ->
  ?cutoff:float ->
  ?known_feasible:float ->
  ?node_limit:int ->
  ?domains:int ->
  ?max_iters:int ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  problem ->
  Cv_lp.Lp.term list ->
  result
