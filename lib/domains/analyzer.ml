(** Layer-wise state-abstraction generation.

    The paper's proof artifact is a chain of boxes [S_1, …, S_n] with
    [∀x ∈ D_in, g_1(x) ∈ S_1], [∀x_i ∈ S_i, g_{i+1}(x_i) ∈ S_{i+1}],
    and the safety check [S_n ⊆ D_out]. The recorded [S_i] are boxes
    (per-neuron lower/upper valuations, as produced by ReluVal in the
    paper's experiment), and the induction must hold for the {e box}
    [S_i], not merely for a more precise abstract value passing
    through. One affine-plus-monotone layer over a box has the interval
    step as its exact hull, so no domain restarted from [S_i] can do
    better than {!Box_domain}'s step: {!abstractions} is that step
    folded over the network. {!output_box} instead carries a chosen
    domain's relational value through every layer — tighter, but only
    end to end.

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

  (* One accounted entry point: a [calls] tick, its time and bytes. *)
  let entry f =
    Cv_util.Metrics.incr m_calls;
    Cv_util.Metrics.time t_seconds @@ fun () -> with_alloc_gauge f

  (* One layer step, polling the deadline first. *)
  let step ?deadline p a =
    Cv_util.Deadline.check_opt deadline;
    Cv_util.Metrics.incr m_layers;
    D.apply_prepared p a

  let output_box ?deadline net din =
    entry @@ fun () ->
    D.to_box
      (Array.fold_left
         (fun a p -> step ?deadline p a)
         (D.of_box din)
         (Cv_nn.Network.prepared net))
end

module Box_analysis = Make (Box_domain)
module Symint_analysis = Make (Symint)
module Zonotope_analysis = Make (Zonotope)
module Deeppoly_analysis = Make (Deeppoly)
module Star_analysis = Make (Starset)

type domain_kind = Box | Symint | Zonotope | Deeppoly | Star

let domain_of_string = function
  | "box" -> Box
  | "symint" -> Symint
  | "zonotope" -> Zonotope
  | "deeppoly" -> Deeppoly
  | "star" -> Star
  | s -> invalid_arg ("Analyzer.domain_of_string: " ^ s)

let domain_name = function
  | Box -> "box"
  | Symint -> "symint"
  | Zonotope -> "zonotope"
  | Deeppoly -> "deeppoly"
  | Star -> "star"

(* [S_{i+1}] is the box step of [S_i], widened by [widen] per neuron:
   the image is a subset of its own widening, so the chain stays
   inductive while leaving room for later fine-tuning drift, the same
   practice as the paper's "additional buffers" on [D_in]. *)
let abstractions ?deadline ?(widen = 0.) (_ : domain_kind) net din =
  if not (widen >= 0.) then
    invalid_arg "Analyzer.abstractions: widen must be >= 0";
  Box_analysis.entry @@ fun () ->
  snd
    (Array.fold_left_map
       (fun box p ->
         let s = Box_analysis.step ?deadline p box in
         let s = if widen > 0. then Cv_interval.Box.expand widen s else s in
         (s, s))
       din (Cv_nn.Network.prepared net))

let output_box ?deadline kind net din =
  match kind with
  | Box -> Box_analysis.output_box ?deadline net din
  | Symint -> Symint_analysis.output_box ?deadline net din
  | Zonotope -> Zonotope_analysis.output_box ?deadline net din
  | Deeppoly -> Deeppoly_analysis.output_box ?deadline net din
  | Star -> Star_analysis.output_box ?deadline net din
