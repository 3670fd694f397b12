(** Floating-point helpers shared across the code base.

    All numeric code in contiver runs on IEEE doubles with explicit
    tolerances (the repo vendors its own LP/MILP solvers, see DESIGN.md);
    the helpers here centralize the comparison conventions. *)

(** Default absolute tolerance used by solvers and tests. *)
let eps = 1e-7

(** [approx_eq ?tol a b] is true when [a] and [b] differ by at most [tol]
    (default {!eps}) in absolute terms, or by [tol] relative to the larger
    magnitude for large numbers. *)
let approx_eq ?(tol = eps) a b =
  let d = Float.abs (a -. b) in
  d <= tol || d <= tol *. Float.max (Float.abs a) (Float.abs b)

(** [leq ?tol a b] is [a <= b] up to tolerance: true when [a <= b +. tol]. *)
let leq ?(tol = eps) a b = a <= b +. tol

(** [geq ?tol a b] is [a >= b] up to tolerance. *)
let geq ?(tol = eps) a b = a >= b -. tol

(** [clamp ~lo ~hi x] restricts [x] to the closed interval [[lo, hi]];
    NaN comes back unchanged. The annotation makes the comparisons
    float ones: left polymorphic, each call boxes its arguments and
    goes through the runtime's generic compare. *)
let clamp ~lo ~hi (x : float) =
  if x < lo then lo else if x > hi then hi else x

(** [is_finite x] is true when [x] is neither NaN nor infinite. *)
let is_finite x = Float.is_finite x

(** Relu on a scalar. *)
let relu x = if x > 0. then x else 0.

(** [lerp a b t] linearly interpolates between [a] (t=0) and [b] (t=1). *)
let lerp a b t = a +. ((b -. a) *. t)

(** [sum xs] sums a float array with left-to-right accumulation. *)
let sum xs = Array.fold_left ( +. ) 0. xs

(** [max_abs xs] is the largest absolute value in [xs]; 0 for the empty
    array. *)
let max_abs xs = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. xs

(** [sign x] is [-1.], [0.] or [1.]. *)
let sign x = if x > 0. then 1. else if x < 0. then -1. else 0.
