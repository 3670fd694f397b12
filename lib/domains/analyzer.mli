(** Layer-wise state-abstraction generation.

    Folding an abstract domain over a network yields the paper's proof
    artifact: inductive state abstractions [S_1..S_n] as boxes
    (per-neuron lower/upper valuations, as ReluVal produces in the
    paper's experiment). See DESIGN.md for the inductivity subtlety. *)

module Make (D : Transformer.DOMAIN) : sig
  (** [abstractions ?deadline ?widen net din] computes inductive state
      abstractions [S_1..S_n] as boxes: [S_{i+1}] is the domain's image
      of the box [S_i], optionally widened by the absolute slack
      [widen] per neuron (default 0). Widening keeps the chain inductive
      while leaving room for fine-tuning drift. The optional [deadline]
      is polled once per layer; raises {!Cv_util.Deadline.Expired} on
      budget exhaustion, and [Invalid_argument] on a negative or NaN
      [widen]. *)
  val abstractions :
    ?deadline:Cv_util.Deadline.t ->
    ?widen:float ->
    Cv_nn.Network.t ->
    Cv_interval.Box.t ->
    Cv_interval.Box.t array

  (** [abstractions_through net din] carries the abstract value through
      all layers (tighter boxes, but only end-to-end containment is
      guaranteed — not the per-layer box induction). *)
  val abstractions_through :
    Cv_nn.Network.t -> Cv_interval.Box.t -> Cv_interval.Box.t array

  (** [output_box ?deadline net din] is the concretised network output
      reach (relational value carried through; [deadline] polled per
      layer). *)
  val output_box :
    ?deadline:Cv_util.Deadline.t ->
    Cv_nn.Network.t ->
    Cv_interval.Box.t ->
    Cv_interval.Box.t

  (** [verify ?deadline net ~din ~dout] — one-shot abstract
      verification. *)
  val verify :
    ?deadline:Cv_util.Deadline.t ->
    Cv_nn.Network.t ->
    din:Cv_interval.Box.t ->
    dout:Cv_interval.Box.t ->
    bool

  val name : string
end

module Box_analysis : module type of Make (Box_domain)

module Symint_analysis : module type of Make (Symint)

module Zonotope_analysis : module type of Make (Zonotope)

module Deeppoly_analysis : module type of Make (Deeppoly)

module Star_analysis : module type of Make (Starset)

(** Runtime-selectable domain for CLI/benches. *)
type domain_kind = Box | Symint | Zonotope | Deeppoly | Star

(** [domain_of_string s] parses a domain name; raises [Invalid_argument]
    on unknown names. *)
val domain_of_string : string -> domain_kind

(** [domain_name k] is the printable name. *)
val domain_name : domain_kind -> string

(** Dispatchers over {!domain_kind}. *)
val abstractions :
  ?deadline:Cv_util.Deadline.t ->
  ?widen:float ->
  domain_kind ->
  Cv_nn.Network.t ->
  Cv_interval.Box.t ->
  Cv_interval.Box.t array

val output_box :
  ?deadline:Cv_util.Deadline.t ->
  domain_kind ->
  Cv_nn.Network.t ->
  Cv_interval.Box.t ->
  Cv_interval.Box.t

val verify :
  ?deadline:Cv_util.Deadline.t ->
  domain_kind ->
  Cv_nn.Network.t ->
  din:Cv_interval.Box.t ->
  dout:Cv_interval.Box.t ->
  bool
