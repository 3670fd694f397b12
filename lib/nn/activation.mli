(** Activation functions of the feed-forward networks under
    verification. *)

type t =
  | Relu
  | Leaky_relu of float  (** negative-side slope, expected in [[0, 1]] *)
  | Sigmoid
  | Tanh
  | Identity

(** [apply act x] evaluates the activation on a scalar. *)
val apply : t -> float -> float

(** [apply_vec act v] maps {!apply} over a vector. *)
val apply_vec : t -> float array -> float array

(** [derivative act x] is the (sub)derivative used by backprop (0 at the
    ReLU kink). *)
val derivative : t -> float -> float

(** [lipschitz act] is a tight global Lipschitz constant of the scalar
    activation. *)
val lipschitz : t -> float

(** [is_piecewise_linear act] is true for activations that admit an
    exact MILP encoding. *)
val is_piecewise_linear : t -> bool

(** [is_monotone act] — all supported activations are monotone
    nondecreasing. *)
val is_monotone : t -> bool

(** [interval act iv] is the exact image of an interval under the
    (monotone) activation. *)
val interval : t -> Cv_interval.Interval.t -> Cv_interval.Interval.t

val to_string : t -> string

val to_json : t -> Cv_util.Json.t

(** [of_json j] decodes {!to_json}'s output; raises
    {!Cv_util.Json.Error} on anything else, including a leaky-ReLU slope
    that is not a number in [[0, 1]]. *)
val of_json : Cv_util.Json.t -> t
