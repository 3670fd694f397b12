(** Activation functions of the feed-forward networks under
    verification.

    The paper's networks use ReLU (the verified head) with Leaky ReLU and
    sigmoid mentioned as supported nonlinearities; we implement all of
    them plus [Identity] (the final linear layer producing [v_out]) and
    [Tanh] for completeness of the training substrate. *)

type t =
  | Relu
  | Leaky_relu of float  (** negative-side slope, expected in [[0, 1]] *)
  | Sigmoid
  | Tanh
  | Identity

(** [apply act x] evaluates the activation on a scalar. *)
let apply act x =
  match act with
  | Relu -> if x > 0. then x else 0.
  | Leaky_relu slope -> if x > 0. then x else slope *. x
  | Sigmoid -> 1. /. (1. +. exp (-.x))
  | Tanh -> tanh x
  | Identity -> x

(** [apply_vec act v] maps {!apply} over a vector. *)
let apply_vec act v = Array.map (apply act) v

(** [derivative act x] is the (sub)derivative used by backprop; at the
    ReLU kink we use 0, the standard convention. *)
let derivative act x =
  match act with
  | Relu -> if x > 0. then 1. else 0.
  | Leaky_relu slope -> if x > 0. then 1. else slope
  | Sigmoid ->
    let s = 1. /. (1. +. exp (-.x)) in
    s *. (1. -. s)
  | Tanh ->
    let t = tanh x in
    1. -. (t *. t)
  | Identity -> 1.

(** [lipschitz act] is a (tight) global Lipschitz constant of the scalar
    activation — the factor contributed per layer by the operator-norm
    product bound. *)
let lipschitz = function
  | Relu -> 1.
  | Leaky_relu slope -> Float.max 1. (Float.abs slope)
  | Sigmoid -> 0.25
  | Tanh -> 1.
  | Identity -> 1.

(** [is_piecewise_linear act] is true for activations that admit an exact
    MILP encoding (big-M); sigmoid/tanh do not. *)
let is_piecewise_linear = function
  | Relu | Leaky_relu _ | Identity -> true
  | Sigmoid | Tanh -> false

(** [is_monotone act] — all our activations are monotone nondecreasing,
    which the interval transformer exploits. *)
let is_monotone = function Relu | Leaky_relu _ | Sigmoid | Tanh | Identity -> true

(** [interval act iv] is the exact image of an interval under the
    (monotone) activation. *)
let interval act iv =
  match act with
  | Relu -> Cv_interval.Interval.relu iv
  | Leaky_relu slope -> Cv_interval.Interval.leaky_relu slope iv
  | Sigmoid | Tanh | Identity -> Cv_interval.Interval.monotone_image (apply act) iv

(** [to_string act] is a short printable name. *)
let to_string = function
  | Relu -> "relu"
  | Leaky_relu slope -> Printf.sprintf "leaky_relu(%g)" slope
  | Sigmoid -> "sigmoid"
  | Tanh -> "tanh"
  | Identity -> "identity"

(** [to_json act] encodes the activation. *)
let to_json act =
  let open Cv_util.Json in
  match act with
  | Relu -> Str "relu"
  | Leaky_relu slope -> Obj [ ("leaky_relu", Num slope) ]
  | Sigmoid -> Str "sigmoid"
  | Tanh -> Str "tanh"
  | Identity -> Str "identity"

(** [of_json j] decodes an activation written by {!to_json}. A leaky
    slope outside [[0, 1]] is refused: the big-M rows, the interval
    image and every abstract domain assume that range. *)
let of_json j =
  let open Cv_util.Json in
  match j with
  | Str "relu" -> Relu
  | Str "sigmoid" -> Sigmoid
  | Str "tanh" -> Tanh
  | Str "identity" -> Identity
  | Obj [ ("leaky_relu", Num slope) ] ->
    if slope >= 0. && slope <= 1. then Leaky_relu slope
    else
      raise
        (Error
           (Printf.sprintf "Activation.of_json: leaky_relu slope %g outside [0, 1]"
              slope))
  | _ -> raise (Error "Activation.of_json")
