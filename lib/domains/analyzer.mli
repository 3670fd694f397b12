(** Layer-wise state-abstraction generation.

    Folding the box step over a network yields the paper's proof
    artifact: inductive state abstractions [S_1..S_n] as boxes
    (per-neuron lower/upper valuations, as ReluVal produces in the
    paper's experiment). See DESIGN.md for why the box step is the
    exact hull every other domain's per-layer restart would recompute. *)

(** Runtime-selectable domain for CLI/benches. *)
type domain_kind = Box | Symint | Zonotope | Deeppoly | Star

(** [domain_of_string s] parses a domain name; raises [Invalid_argument]
    on unknown names. *)
val domain_of_string : string -> domain_kind

(** [domain_name k] is the printable name. *)
val domain_name : domain_kind -> string

(** [abstractions ?deadline ?widen kind net din] computes inductive
    state abstractions [S_1..S_n] as boxes: [S_{i+1}] is the box step
    of [S_i] (the exact hull of the layer's image of the box),
    optionally widened by the absolute slack [widen] per neuron
    (default 0). [kind] does not change the chain: restarting any
    domain from a box recomputes or loosens the box step. Counts under
    [domains.box.*]. The optional [deadline] is polled once per layer;
    raises {!Cv_util.Deadline.Expired} on budget exhaustion, and
    [Invalid_argument] on a negative or NaN [widen]. *)
val abstractions :
  ?deadline:Cv_util.Deadline.t ->
  ?widen:float ->
  domain_kind ->
  Cv_nn.Network.t ->
  Cv_interval.Box.t ->
  Cv_interval.Box.t array

(** [output_box ?deadline kind net din] is the concretised network
    output reach, with [kind]'s relational value carried through every
    layer — the tightest that domain offers ([deadline] polled per
    layer). Counts under [domains.<kind>.*]. *)
val output_box :
  ?deadline:Cv_util.Deadline.t ->
  domain_kind ->
  Cv_nn.Network.t ->
  Cv_interval.Box.t ->
  Cv_interval.Box.t
