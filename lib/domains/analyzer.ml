(** Layer-wise state-abstraction generation.

    Folding an abstract domain over a network yields exactly the paper's
    proof artifact: state abstractions [S_1, …, S_n] with
    [∀x ∈ D_in, g_1(x) ∈ S_1], [∀x_i ∈ S_i, g_{i+1}(x_i) ∈ S_{i+1}]
    (by transformer soundness and monotonicity over the recorded boxes),
    and the safety check [S_n ⊆ D_out].

    The recorded [S_i] are boxes (per-neuron lower/upper valuations, as
    produced by ReluVal in the paper's experiment). Note the subtlety:
    the inductive property "[S_i] steps into [S_{i+1}]" must hold for the
    {e box} [S_i], not merely for the more precise abstract value passing
    through — so {!abstractions} re-launches the domain from [to_box] at
    every layer, which is sound and gives boxes satisfying the paper's
    definition. {!abstractions_through} instead carries the abstract
    value through (tighter boxes, but inductive only w.r.t. the carried
    relational value); both are exposed because the reuse propositions
    need the former while falsification diagnostics favour the latter.

    Every entry point resolves the network's layers to their memoized
    kernel-ready form ({!Cv_nn.Network.prepared}) once and drives the
    domain through [apply_prepared], and accounts the bytes it allocated
    under the [kernel.bytes_alloc] counter (a
    {!Cv_util.Metrics.allocated_bytes} delta) — the regression guard
    for the allocation-free kernel claim. *)

let m_bytes = Cv_util.Metrics.counter "kernel.bytes_alloc"

(* Charge the bytes allocated by [f] (in this domain) to
   [kernel.bytes_alloc]. *)
let with_alloc_gauge f =
  let b0 = Cv_util.Metrics.allocated_bytes () in
  Fun.protect
    ~finally:(fun () ->
      let d = Cv_util.Metrics.allocated_bytes () -. b0 in
      if d > 0. then Cv_util.Metrics.add m_bytes (int_of_float d))
    f

module Make (D : Transformer.DOMAIN) = struct
  (* Per-domain effort accounting under "domains.<name>.*": one [calls]
     tick per analysis entry point, one [layers] tick per layer
     transformer application, wall-clock accumulated in [seconds]. *)
  let m_calls = Cv_util.Metrics.counter ("domains." ^ D.name ^ ".calls")

  let m_layers = Cv_util.Metrics.counter ("domains." ^ D.name ^ ".layers")

  let t_seconds = Cv_util.Metrics.timer ("domains." ^ D.name ^ ".seconds")

  (** [abstractions ?widen net din] computes inductive state
      abstractions [S_1..S_n] as boxes: [S_{i+1}] is the domain's image
      of the box [S_i], optionally widened by the absolute slack
      [widen] on every neuron (default 0). Widening keeps the chain
      inductive — the image is a subset of its own widening — while
      leaving room for the parameter drift of later fine-tuning, the
      same engineering practice as the paper's "additional buffers" on
      [D_in]. Raises [Invalid_argument] on a negative or NaN [widen]. *)
  let abstractions ?deadline ?(widen = 0.) net din =
    if not (widen >= 0.) then
      invalid_arg "Analyzer.abstractions: widen must be >= 0";
    Cv_util.Metrics.incr m_calls;
    Cv_util.Metrics.time t_seconds @@ fun () ->
    with_alloc_gauge @@ fun () ->
    let prep = Cv_nn.Network.prepared net in
    let n = Array.length prep in
    let result = Array.make n [||] in
    let box = ref din in
    for i = 0 to n - 1 do
      Cv_util.Deadline.check_opt deadline;
      Cv_util.Metrics.incr m_layers;
      let s = D.to_box (D.apply_prepared prep.(i) (D.of_box !box)) in
      let s = if widen > 0. then Cv_interval.Box.expand widen s else s in
      result.(i) <- s;
      box := s
    done;
    result

  (** [abstractions_through net din] carries the abstract value through
      all layers, recording the concretisation after each — tighter, but
      only the end-to-end containment [eval x ∈ S_i] is guaranteed, not
      the per-layer box induction. *)
  let abstractions_through net din =
    Cv_util.Metrics.incr m_calls;
    Cv_util.Metrics.time t_seconds @@ fun () ->
    with_alloc_gauge @@ fun () ->
    let prep = Cv_nn.Network.prepared net in
    let n = Array.length prep in
    let result = Array.make n [||] in
    let a = ref (D.of_box din) in
    for i = 0 to n - 1 do
      Cv_util.Metrics.incr m_layers;
      a := D.apply_prepared prep.(i) !a;
      result.(i) <- D.to_box !a
    done;
    result

  (** [output_box net din] is the concretised network output reach
      (relational value carried through — the tightest this domain
      offers). *)
  let output_box ?deadline net din =
    Cv_util.Metrics.incr m_calls;
    Cv_util.Metrics.time t_seconds @@ fun () ->
    with_alloc_gauge @@ fun () ->
    let a =
      Array.fold_left
        (fun acc p ->
          Cv_util.Deadline.check_opt deadline;
          Cv_util.Metrics.incr m_layers;
          D.apply_prepared p acc)
        (D.of_box din)
        (Cv_nn.Network.prepared net)
    in
    D.to_box a

  (** [verify net ~din ~dout] is [true] when the carried-through output
      reach is contained in [dout] — one-shot abstract verification. *)
  let verify ?deadline net ~din ~dout =
    Cv_interval.Box.subset_tol (output_box ?deadline net din) dout

  let name = D.name
end

module Box_analysis = Make (Box_domain)
module Symint_analysis = Make (Symint)
module Zonotope_analysis = Make (Zonotope)
module Deeppoly_analysis = Make (Deeppoly)
module Star_analysis = Make (Starset)

(** Runtime-selectable domain for CLI/benches. *)
type domain_kind = Box | Symint | Zonotope | Deeppoly | Star

(** [domain_of_string s] parses a domain name. *)
let domain_of_string = function
  | "box" -> Box
  | "symint" -> Symint
  | "zonotope" -> Zonotope
  | "deeppoly" -> Deeppoly
  | "star" -> Star
  | s -> invalid_arg ("Analyzer.domain_of_string: " ^ s)

(** [domain_name k] is the printable name. *)
let domain_name = function
  | Box -> "box"
  | Symint -> "symint"
  | Zonotope -> "zonotope"
  | Deeppoly -> "deeppoly"
  | Star -> "star"

(** [abstractions ?deadline ?widen kind net din] dispatches
    {!Make.abstractions}. *)
let abstractions ?deadline ?widen kind net din =
  match kind with
  | Box -> Box_analysis.abstractions ?deadline ?widen net din
  | Symint -> Symint_analysis.abstractions ?deadline ?widen net din
  | Zonotope -> Zonotope_analysis.abstractions ?deadline ?widen net din
  | Deeppoly -> Deeppoly_analysis.abstractions ?deadline ?widen net din
  | Star -> Star_analysis.abstractions ?deadline ?widen net din

(** [output_box ?deadline kind net din] dispatches {!Make.output_box}. *)
let output_box ?deadline kind net din =
  match kind with
  | Box -> Box_analysis.output_box ?deadline net din
  | Symint -> Symint_analysis.output_box ?deadline net din
  | Zonotope -> Zonotope_analysis.output_box ?deadline net din
  | Deeppoly -> Deeppoly_analysis.output_box ?deadline net din
  | Star -> Star_analysis.output_box ?deadline net din

(** [verify ?deadline kind net ~din ~dout] dispatches {!Make.verify}. *)
let verify ?deadline kind net ~din ~dout =
  match kind with
  | Box -> Box_analysis.verify ?deadline net ~din ~dout
  | Symint -> Symint_analysis.verify ?deadline net ~din ~dout
  | Zonotope -> Zonotope_analysis.verify ?deadline net ~din ~dout
  | Deeppoly -> Deeppoly_analysis.verify ?deadline net ~din ~dout
  | Star -> Star_analysis.verify ?deadline net ~din ~dout
