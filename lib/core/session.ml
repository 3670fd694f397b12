(** A continuous-verification session (see the interface for the
    transitions and the commit-only-on-proved contract). *)

module Json = Cv_util.Json
module Box = Cv_interval.Box
module Monitor = Cv_monitor.Monitor
module Artifacts = Cv_artifacts.Artifacts
module Property = Cv_verify.Property

type event =
  | Certified of string
  | Domain_enlarged of Batch.job_result
  | Domain_rejected of Batch.job_result
  | Version_adopted of Batch.job_result
  | Version_rejected of Batch.job_result
  | Spec_changed of Batch.job_result
  | Spec_rejected of Batch.job_result
  | Budget_exhausted of Batch.job_result

(* Session-lifecycle accounting: one counter per transition kind, so a
   long-running deployment can report how often each continuous-
   engineering event fired (surfaced by `contiver --stats`). *)
let m_event = function
  | Certified _ -> Cv_util.Metrics.counter "core.session.certified"
  | Domain_enlarged _ -> Cv_util.Metrics.counter "core.session.enlargements"
  | Domain_rejected _ ->
    Cv_util.Metrics.counter "core.session.enlargements_rejected"
  | Version_adopted _ -> Cv_util.Metrics.counter "core.session.adoptions"
  | Version_rejected _ ->
    Cv_util.Metrics.counter "core.session.adoptions_rejected"
  | Spec_changed _ -> Cv_util.Metrics.counter "core.session.spec_changes"
  | Spec_rejected _ ->
    Cv_util.Metrics.counter "core.session.spec_changes_rejected"
  | Budget_exhausted _ ->
    Cv_util.Metrics.counter "core.session.budget_exhausted"

let record_event e = Cv_util.Metrics.incr (m_event e)

type t = {
  mutable net : Cv_nn.Network.t;
  mutable proof : Artifacts.t;  (** its [D_in] is the monitor's box *)
  monitor : Monitor.t;
  config : Batch.config;
  widen : float;
  mutable rounds : int;
  mutable history : event list;  (** newest first *)
}

type saved = {
  round : int;
  pending : Cv_linalg.Vec.t list;
  artifact : Artifacts.t;
}

let push s e =
  record_event e;
  s.history <- e :: s.history

let default_widen = 0.03

let restore ?(config = Batch.default_config) ?(widen = default_widen) net
    (v : saved) =
  if not (Artifacts.matches v.artifact net) then
    invalid_arg "Session.restore: artifact/network mismatch";
  let monitor = Monitor.of_box v.artifact.Artifacts.property.Property.din in
  List.iter (fun x -> ignore (Monitor.observe monitor x)) v.pending;
  let e = Certified v.artifact.Artifacts.solver in
  record_event e;
  { net;
    proof = v.artifact;
    monitor;
    config;
    widen;
    rounds = v.round;
    history = [ e ] }

let resume ?config ?widen net artifact =
  restore ?config ?widen net { round = 0; pending = []; artifact }

let certify ?deadline ?(config = Batch.default_config) ?(widen = default_widen)
    net prop =
  let original =
    Strategy.solve_original_exact ?deadline ~widen ~with_split_cert:true net
      prop
  in
  if original.Strategy.proved then
    Ok (resume ~config ~widen net original.Strategy.artifact)
  else Error original.Strategy.verdict

type resume_error =
  | Corrupt_artifact of string
  | Artifact_mismatch of string

let resume_error_message = function
  | Corrupt_artifact msg -> msg
  | Artifact_mismatch msg -> msg

let resume_file ?config ?widen net path =
  match Artifacts.load_result path with
  | Error e -> Error (Corrupt_artifact (Artifacts.load_error_message e))
  | Ok artifact ->
    if not (Artifacts.matches artifact net) then
      Error
        (Artifact_mismatch
           (Printf.sprintf
              "%s: artifact fingerprint does not match this network" path))
    else Ok (resume ?config ?widen net artifact)

let save s =
  { round = s.rounds;
    pending =
      List.map (fun ev -> ev.Monitor.features) (Monitor.events s.monitor);
    artifact = s.proof }

let saved_to_json v =
  Json.Obj
    [ ("round", Json.of_int v.round);
      ("pending", Json.List (List.map Json.of_float_array v.pending));
      ("artifact", Artifacts.to_json v.artifact) ]

let saved_of_json j =
  { round = Json.to_int (Json.member "round" j);
    pending =
      List.map Json.float_array (Json.to_list (Json.member "pending" j));
    artifact = Artifacts.of_json (Json.member "artifact" j) }

let network s = s.net
let artifact s = s.proof
let property s = s.proof.Artifacts.property
let box s = Monitor.current s.monitor
let rounds s = s.rounds
let history s = List.rev s.history
let pending_ood s = Monitor.event_count s.monitor
let kappa s = Monitor.kappa s.monitor
let observe s features = Monitor.observe_class s.monitor features

(* The one artifact refresh, run once a reuse proof holds for [net] over
   [prop]: the widened chain and the Lipschitz constants go through the
   session's cache, and a stored bisection certificate is repaired for
   [net] and extended over any domain growth. The chain is kept only
   when its [S_n] lies inside [D_out], as an artifact's chain must; a
   failed chain build degrades to an artifact without one, so the next
   round starts from a coarser route; an injected process death (a
   killed cache write) ends the process instead. *)
let refresh s net (prop : Property.t) =
  let cache = s.config.Batch.cache and strategy = s.config.Batch.strategy in
  let chain =
    match
      Cv_util.Supervisor.run ~name:"session.refresh-chain" (fun () ->
          Strategy.chain ?cache ~widen:s.widen net prop.Property.din)
    with
    | Ok c when Box.subset_tol c.(Array.length c - 1) prop.Property.dout ->
      Some c
    | exception (Cv_util.Fault.Killed _ as e) -> raise e
    | Ok _ | Error _ | (exception _) -> None
  in
  let split_cert =
    Option.bind s.proof.Artifacts.split_cert (fun cert ->
        match
          Cv_verify.Split_cert.repair ?domains:strategy.Strategy.domains cert
            net
        with
        | Some cert'
          when Box.subset_tol prop.Property.din
                 cert'.Cv_verify.Split_cert.input_box ->
          Some cert'
        | _ ->
          Cv_verify.Split_cert.prove net ~input_box:prop.Property.din
            ~target:prop.Property.dout)
  in
  Artifacts.make ?state_abstractions:chain ?split_cert
    ~lipschitz:(Strategy.lipschitz ?cache net)
    ~property:prop ~net ~solver:"session-refresh"
    ~solve_seconds:s.proof.Artifacts.solve_seconds ()

(* The commit: box, network and refreshed artifact move together, and
   only after the refresh has succeeded. *)
let commit s net din =
  let proof =
    refresh s net (Property.make ~din ~dout:(property s).Property.dout)
  in
  Monitor.commit s.monitor din;
  s.net <- net;
  s.proof <- proof

(* One SVuDC/SVbTV round: a one-job batch over the enlarged box, which
   commits [candidate] with the box on a [Safe] verdict. *)
let round ?deadline ?(margin = 0.005) s ~mode ~candidate spec =
  let number = s.rounds + 1 in
  let new_din = Monitor.enlarged_box ~margin s.monitor in
  let job =
    { Batch.id = Printf.sprintf "round-%04d-%s" number mode;
      spec = spec new_din;
      timeout = Option.map Cv_util.Deadline.remaining deadline }
  in
  let result = List.hd (Batch.run ~config:s.config [ job ]).Batch.results in
  s.rounds <- number;
  if result.Batch.verdict = Batch.Safe then commit s candidate new_din;
  result

let settle s (r : Batch.job_result) ~ok ~rejected =
  push s
    (match r.Batch.verdict with
    | Batch.Safe -> ok r
    | Batch.Exhausted -> Budget_exhausted r
    | _ -> rejected r);
  r

let absorb_enlargement ?deadline ?margin s =
  round ?deadline ?margin s ~mode:"svudc" ~candidate:s.net (fun new_din ->
      Batch.Svudc { net = s.net; artifact = s.proof; new_din })
  |> settle s
       ~ok:(fun r -> Domain_enlarged r)
       ~rejected:(fun r -> Domain_rejected r)

let adopt ?deadline ?margin s candidate =
  round ?deadline ?margin s ~mode:"svbtv" ~candidate (fun new_din ->
      Batch.Svbtv
        { old_net = s.net; new_net = candidate; artifact = s.proof; new_din })
  |> settle s
       ~ok:(fun r -> Version_adopted r)
       ~rejected:(fun r -> Version_rejected r)

let retarget ?deadline s new_dout =
  let p = Specchange.make ~net:s.net ~artifact:s.proof ~new_dout () in
  let r =
    Batch.result_of_report ~id:"retarget" ~mode:"svusc"
      (Specchange.solve ?deadline ~config:s.config.Batch.strategy p)
  in
  if r.Batch.verdict = Batch.Safe then
    s.proof <- refresh s s.net (Property.make ~din:(box s) ~dout:new_dout);
  settle s r
    ~ok:(fun r -> Spec_changed r)
    ~rejected:(fun r -> Spec_rejected r)

let event_string e =
  let via what (r : Batch.job_result) =
    Printf.sprintf "%s via %s" what (Option.value ~default:"?" r.Batch.decisive)
  in
  let why what (r : Batch.job_result) =
    Printf.sprintf "%s: %s (%s)" what
      (Batch.verdict_name r.Batch.verdict)
      r.Batch.detail
  in
  match e with
  | Certified solver -> "certified (" ^ solver ^ ")"
  | Domain_enlarged r -> via "domain enlarged" r
  | Domain_rejected r -> why "domain enlargement rejected" r
  | Version_adopted r -> via "new version adopted" r
  | Version_rejected r -> why "candidate version rejected" r
  | Spec_changed r -> via "specification changed" r
  | Spec_rejected r -> why "specification change rejected" r
  | Budget_exhausted r -> why "transition abandoned" r
