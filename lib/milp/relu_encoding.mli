(** Compact big-M MILP encoding of piecewise-linear network slices —
    the paper's "exact method" (Equation (2)). Stable neurons introduce
    no variables (their values are carried as affine expressions over
    inputs and unstable post-activations); big-M bounds come from a
    symbolic-interval pre-analysis; branch-and-bound is seeded with the
    best sampled concrete value. *)

(** Affine expression over LP variables. *)
type expr = { terms : (float * Cv_lp.Lp.var) list; const : float }

type encoding = {
  problem : Milp.problem;
  net : Cv_nn.Network.t;
  input_box : Cv_interval.Box.t;
  input_vars : Cv_lp.Lp.var array;
  outputs : expr array;  (** affine expressions of the output neurons *)
  pre_bounds : Cv_interval.Box.t array;  (** per-layer pre-activation bounds *)
  seeds : (float * Cv_linalg.Vec.t) array array;
      (** per output: [(max_seed, input); (min_seed, input)] *)
}

(** [encode ~net ~input_box] builds the exact MILP of the slice [net]
    over [input_box]. Raises [Invalid_argument] for non-piecewise-linear
    activations. *)
val encode : net:Cv_nn.Network.t -> input_box:Cv_interval.Box.t -> encoding

(** [max_output ?deadline ?cutoff ?domains enc ~output] maximises one
    output neuron over the encoded set (exactly — the sampling seed only
    accelerates pruning). [domains > 1] runs the branch-and-bound dives
    on parallel domains with deterministic merging. On budget exhaustion
    returns [Milp.Timeout] with the certified incumbent bound.
    [checkpoint]/[resume] snapshot and restore the branch-and-bound
    state (see {!Milp.maximize}); snapshots are in the encoded
    (constant-stripped) objective space, so they only resume the same
    query on the same encoding. When the sampling seed already exceeds
    [cutoff], returns [Cutoff_reached] with the seed input as [values]
    without searching. *)
val max_output :
  ?deadline:Cv_util.Deadline.t ->
  ?cutoff:float ->
  ?domains:int ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  encoding ->
  output:int ->
  Milp.result

(** [min_output ?deadline ?cutoff ?domains enc ~output] minimises one
    output neuron; a seed already below [cutoff] returns
    [Cutoff_reached] with the seed input. *)
val min_output :
  ?deadline:Cv_util.Deadline.t ->
  ?cutoff:float ->
  ?domains:int ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  encoding ->
  output:int ->
  Milp.result

(** [stats enc] is [(vars, constraints, binaries)]. *)
val stats : encoding -> int * int * int
