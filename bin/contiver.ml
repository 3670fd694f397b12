(* contiver — continuous safety verification of neural networks.

   A cmdliner front-end over the library: generate the synthetic
   experiment, verify properties, persist and reuse proof artifacts, and
   run the incremental (SVuDC / SVbTV) checks.

   Typical session:

     contiver generate --out /tmp/exp
     contiver describe --model /tmp/exp/head1.json
     contiver verify --model /tmp/exp/head1.json \
         --property /tmp/exp/property.json --artifact /tmp/exp/proof.json
     contiver svudc --model /tmp/exp/head1.json \
         --artifact /tmp/exp/proof.json --new-din /tmp/exp/enlarged_din.json
     contiver svbtv --old /tmp/exp/head1.json --new /tmp/exp/head2.json \
         --artifact /tmp/exp/proof.json --new-din /tmp/exp/enlarged_din.json *)

open Cmdliner

(* User-facing failure (missing/unreadable/corrupt input files): caught
   by [run] below and rendered as a one-line error plus a nonzero exit
   code, never a backtrace. *)
exception Cli_error of string

let cli_fail fmt = Printf.ksprintf (fun s -> raise (Cli_error s)) fmt

(* Wrap a command body: its normal result is the exit code. Injected
   faults, budget expiry and malformed JSON that escape the library's
   own degradation layers are still rendered as one-line errors, never
   a backtrace. *)
let run f =
  try f () with
  | Cli_error msg ->
    prerr_endline ("contiver: error: " ^ msg);
    Cmd.Exit.some_error
  | Sys_error msg ->
    prerr_endline ("contiver: error: " ^ msg);
    Cmd.Exit.some_error
  | Cv_util.Json.Error msg ->
    prerr_endline ("contiver: error: malformed JSON: " ^ msg);
    Cmd.Exit.some_error
  | Cv_util.Deadline.Expired msg ->
    prerr_endline ("contiver: error: budget expired: " ^ msg);
    Cmd.Exit.some_error
  | Cv_util.Fault.Injected msg ->
    prerr_endline ("contiver: error: injected fault: " ^ msg);
    Cmd.Exit.some_error

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

let load_json path =
  match Cv_util.Json.parse (read_file path) with
  | j -> j
  | exception Sys_error msg -> cli_fail "%s" msg
  | exception Cv_util.Json.Error msg -> cli_fail "%s: %s" path msg

let load_network path =
  match Cv_nn.Serialize.load_network_result path with
  | Ok net -> net
  | Error e -> cli_fail "%s" (Cv_nn.Serialize.load_error_message e)

let load_artifact path =
  match Cv_artifacts.Artifacts.load_result path with
  | Ok a -> a
  | Error e -> cli_fail "%s" (Cv_artifacts.Artifacts.load_error_message e)

let load_box path =
  match Cv_interval.Box.of_json_result (load_json path) with
  | Ok b -> b
  | Error msg -> cli_fail "%s: %s" path msg

let save_box path box =
  write_file path (Cv_util.Json.to_string (Cv_interval.Box.to_json box))

let load_property path =
  match Cv_verify.Property.of_json_result (load_json path) with
  | Ok p -> p
  | Error msg -> cli_fail "%s: %s" path msg

let save_property path prop =
  write_file path (Cv_util.Json.to_string (Cv_verify.Property.to_json prop))

(* ------------------------------------------------------------------ *)
(* Proof certificates                                                  *)
(* ------------------------------------------------------------------ *)

let emit_cert_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-cert" ] ~docv:"FILE"
        ~doc:
          "After the run, emit a standalone proof certificate to $(docv): a \
           self-contained document (network, claim and proof inside) that \
           $(b,contiver check) replays with outward-rounded interval \
           arithmetic only. Best-effort: a verdict outside the certifiable \
           fragment prints a warning and writes nothing.")

(* Safe-network emission ladder: the interval chain / split tree first
   (cheap, covers most proved properties), the MILP goal certificates
   when bisection alone cannot close the bound. *)
let safe_network_cert ~mode ~solver ~fingerprint net ~din ~dout =
  match Cv_cert.Emit.safe_cert ~mode ~solver ~fingerprint net ~din ~dout with
  | Some c -> Some c
  | None ->
    Cv_milp.Cert_bridge.safe_cert ~mode ~solver ~fingerprint net ~din ~dout

(* "prop3" (a Strategy attempt name) -> "Proposition 3". *)
let proposition_of_route route =
  let n = String.length route in
  if n > 4 && String.sub route 0 4 = "prop" then
    "Proposition " ^ String.sub route 4 (n - 4)
  else route

(* Wrap an incremental run's certificate in the reuse frame recording
   which decision route settled the verdict; an unwrappable frame
   degrades to the inner certificate. *)
let reuse_wrapped ~route ~dout cert =
  let slack =
    match cert.Cv_cert.Cert.proof with
    | Cv_cert.Cert.P_chain boxes -> Cv_cert.Check.chain_slack ~dout boxes
    | _ -> 0.
  in
  match
    Cv_cert.Emit.reuse_cert ~route ~proposition:(proposition_of_route route)
      ~slack cert
  with
  | Some wrapped -> Some wrapped
  | None -> Some cert

(* Persist (checksummed envelope) and mirror into the artifact cache
   under the content-addressed key fingerprint × D_in hash ×
   "cert:<mode>". *)
let write_cert ?cache ~din path cert =
  Cv_artifacts.Artifacts.save_doc ~format:Cv_cert.Cert.envelope_format path
    (Cv_cert.Cert.to_json cert);
  Option.iter
    (fun c ->
      Cv_artifacts.Cache.store c
        ~fingerprint:cert.Cv_cert.Cert.fingerprint
        ~box_hash:(Cv_artifacts.Cache.box_hash din)
        ~kind:("cert:" ^ cert.Cv_cert.Cert.mode)
        (Cv_cert.Cert.to_json cert))
    cache;
  Printf.printf "certificate (%s proof) written to %s\n"
    (Cv_cert.Cert.proof_kind cert.Cv_cert.Cert.proof)
    path

let emit_cert_to ?cache ~din path = function
  | Some cert -> write_cert ?cache ~din path cert
  | None ->
    Printf.eprintf
      "contiver: warning: no certificate emitted (verdict outside the \
       certifiable fragment)\n\
       %!"

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

let setup_logs verbose =
  Cv_util.Fault.init_from_env ();
  Cv_util.Log_setup.init ~level:(if verbose then Logs.Info else Logs.Warning) ()

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")

let model_arg ?(names = [ "model" ]) () =
  Arg.(
    required
    & opt (some file) None
    & info names ~docv:"FILE" ~doc:"Model file (contiver JSON format).")

let artifact_arg ~mode =
  match mode with
  | `In ->
    Arg.(
      required
      & opt (some file) None
      & info [ "artifact" ] ~docv:"FILE" ~doc:"Proof-artifact file to reuse.")
  | `Out ->
    Arg.(
      required
      & opt (some string) None
      & info [ "artifact" ] ~docv:"FILE" ~doc:"Where to write proof artifacts.")

let engine_arg =
  let conv_engine s =
    match s with
    | "ladder" -> Ok Cv_verify.Containment.Ladder
    | "milp" -> Ok Cv_verify.Containment.Milp
    | "symint-split" -> Ok (Cv_verify.Containment.Symint_split 4096)
    | "box" | "symint" | "zonotope" | "deeppoly" | "star" ->
      Ok (Cv_verify.Containment.Abstract (Cv_domains.Analyzer.domain_of_string s))
    | _ -> Error (`Msg ("unknown engine: " ^ s))
  in
  let pp_engine ppf e =
    Format.pp_print_string ppf (Cv_verify.Containment.engine_name e)
  in
  Arg.(
    value
    & opt
        (conv (conv_engine, pp_engine))
        Cv_core.Strategy.default_config.Cv_core.Strategy.engine
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Verification engine: $(b,ladder) (symint bound first, cutoff \
           MILP only for the output sides it leaves open), \
           $(b,milp) (cutoff MILP on every side), $(b,symint-split), or a \
           one-shot abstract domain ($(b,box), $(b,symint), \
           $(b,zonotope), $(b,deeppoly), $(b,star)).")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Verification budget in seconds. On expiry the run degrades \
           gracefully to a structured UNKNOWN verdict (with the best bound \
           salvaged so far) instead of running to completion.")

let deadline_of = Option.map (fun seconds -> Cv_util.Deadline.make ~seconds)

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "After the run, print the solver-effort counters and timers \
           (simplex pivots, branch-and-bound nodes, bisection splits, \
           abstract-domain calls, ...) to standard error, grouped per \
           engine.")

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:
          "Record hierarchical timed spans of the run (strategy attempts, \
           escalation rungs, containment queries) and write the span tree \
           to $(docv) as JSON.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Periodically snapshot the run's search state to $(docv) \
           (atomic write, checksummed envelope), so a killed run can be \
           restarted with $(b,--resume-checkpoint).")

let checkpoint_every_arg =
  Arg.(
    value & opt float 5.
    & info [ "checkpoint-every" ] ~docv:"SECONDS"
        ~doc:
          "Minimum seconds between periodic checkpoint snapshots \
           (default 5; 0 snapshots at every safe point).")

let resume_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "resume-checkpoint" ] ~docv:"FILE"
        ~doc:
          "Restart from a checkpoint written by a previous (killed) run \
           of the same command on the same network. The file's run \
           kind, network fingerprint and property are validated before \
           resuming. Unless $(b,--checkpoint) says otherwise, the run \
           keeps checkpointing to the same file.")

(* Resolve the checkpoint flags into a cadenced sink plus the validated
   resume payload. [--resume-checkpoint] without [--checkpoint] keeps
   checkpointing to the resumed file. The scope binds the checkpoint to
   the property under verification: resuming an exact search recorded
   for a different D_in would replay completed query optima computed on
   the wrong domain, so a scope mismatch refuses to resume. *)
let setup_checkpointing ~kind ~fingerprint ~scope ~checkpoint ~every ~resume =
  let resume_payload =
    match resume with
    | None -> None
    | Some path -> (
      match
        Cv_core.Runstate.load ~path ~kind ~fingerprint ~scope:(Some scope)
      with
      | Ok payload -> Some payload
      | Error e -> cli_fail "%s" (Cv_core.Runstate.resume_error_message e))
  in
  let sink_path = match checkpoint with Some _ -> checkpoint | None -> resume in
  let sink =
    Option.map
      (fun path ->
        Cv_util.Checkpoint.create ~every (fun payload ->
            Cv_core.Runstate.save ~scope ~path ~kind ~fingerprint payload))
      sink_path
  in
  (sink, resume_payload)

(* Zero the metrics registry, optionally enable span recording, run the
   command body, then emit the requested observability outputs — also on
   error paths, so a failed run still reports where its effort went. A
   failing trace write must not mask the body's own result, so it
   degrades to a warning. *)
let with_observability ~stats ~trace_json f =
  Cv_util.Metrics.reset ();
  if trace_json <> None then Cv_util.Trace.enable ();
  let finish () =
    (match trace_json with
    | None -> ()
    | Some path -> (
      Cv_util.Trace.disable ();
      match write_file path (Cv_util.Json.to_string (Cv_util.Trace.to_json ())) with
      | () -> Printf.eprintf "trace written to %s\n%!" path
      | exception Sys_error msg ->
        Printf.eprintf "contiver: warning: trace not written: %s\n%!" msg));
    if stats then prerr_string (Cv_util.Metrics.table ())
  in
  Fun.protect ~finally:finish f

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate verbose out seed =
  run @@ fun () ->
  setup_logs verbose;
  let config = { Cv_vehicle.Pipeline.default_config with Cv_vehicle.Pipeline.seed } in
  let exp = Cv_vehicle.Pipeline.build ~config () in
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.iteri
    (fun i head ->
      Cv_nn.Serialize.save_network
        ~name:(Printf.sprintf "head%d" (i + 1))
        (Filename.concat out (Printf.sprintf "head%d.json" (i + 1)))
        head)
    exp.Cv_vehicle.Pipeline.heads;
  save_property
    (Filename.concat out "property.json")
    (Cv_vehicle.Pipeline.property exp);
  save_box (Filename.concat out "din.json") exp.Cv_vehicle.Pipeline.din;
  save_box
    (Filename.concat out "enlarged_din.json")
    exp.Cv_vehicle.Pipeline.enlarged_din;
  Printf.printf
    "wrote %d heads, property, din and enlarged_din to %s\n(train loss %.5f, %d OOD events, kappa %.4f)\n"
    (Array.length exp.Cv_vehicle.Pipeline.heads)
    out exp.Cv_vehicle.Pipeline.train_loss exp.Cv_vehicle.Pipeline.ood_events
    exp.Cv_vehicle.Pipeline.kappa;
  Cmd.Exit.ok

let generate_cmd =
  let out =
    Arg.(
      value & opt string "contiver-experiment"
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate the synthetic vehicle experiment (models + domains).")
    Term.(const generate $ verbose_arg $ out $ seed)

(* ------------------------------------------------------------------ *)
(* describe                                                            *)
(* ------------------------------------------------------------------ *)

let describe verbose model =
  run @@ fun () ->
  setup_logs verbose;
  let net = load_network model in
  print_string (Cv_nn.Describe.layer_table net);
  Printf.printf "global Lipschitz (Linf): %.4g\n"
    (Cv_lipschitz.Lipschitz.global ~norm:Cv_lipschitz.Lipschitz.Linf net);
  Cmd.Exit.ok

let describe_cmd =
  Cmd.v
    (Cmd.info "describe" ~doc:"Print a model's architecture summary.")
    Term.(const describe $ verbose_arg $ model_arg ())

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

let string_of_unknown (u : Cv_verify.Containment.unknown) =
  Printf.sprintf "UNKNOWN (%s): %s%s"
    (Cv_verify.Containment.reason_name u.Cv_verify.Containment.reason)
    u.Cv_verify.Containment.message
    (match u.Cv_verify.Containment.best_bound with
    | None -> ""
    | Some b -> Printf.sprintf " [best bound %.6g]" b)

let verify verbose model property artifact_out emit_cert exact widen timeout
    stats trace_json checkpoint checkpoint_every resume =
  run @@ fun () ->
  setup_logs verbose;
  with_observability ~stats ~trace_json @@ fun () ->
  let net = load_network model in
  let prop = load_property property in
  if (checkpoint <> None || resume <> None) && not exact then
    cli_fail
      "--checkpoint/--resume-checkpoint require --exact (only the exact \
       branch-and-bound search has resumable state)";
  let checkpoint, resume =
    setup_checkpointing ~kind:Cv_core.Runstate.Verify
      ~fingerprint:(Cv_artifacts.Artifacts.fingerprint net)
      ~scope:
        (Cv_core.Runstate.property_scope ~din:prop.Cv_verify.Property.din
           ~dout:prop.Cv_verify.Property.dout ())
      ~checkpoint ~every:checkpoint_every ~resume
  in
  let deadline = deadline_of timeout in
  let original =
    if exact then
      Cv_core.Strategy.solve_original_exact ?deadline ~widen ?checkpoint
        ?resume net prop
    else Cv_core.Strategy.solve_original ?deadline net prop
  in
  let verdict = original.Cv_core.Strategy.report.Cv_verify.Verifier.verdict in
  Printf.printf "verdict: %s\n"
    (match verdict with
    | Cv_verify.Containment.Proved -> "PROVED"
    | Cv_verify.Containment.Violated v ->
      Printf.sprintf "VIOLATED (output %d, margin %.4g)"
        v.Cv_verify.Falsify.neuron v.Cv_verify.Falsify.margin
    | Cv_verify.Containment.Unknown u -> string_of_unknown u);
  Printf.printf "time: %.3fs  solver: %s\n"
    original.Cv_core.Strategy.artifact.Cv_artifacts.Artifacts.solve_seconds
    original.Cv_core.Strategy.artifact.Cv_artifacts.Artifacts.solver;
  if original.Cv_core.Strategy.proved then begin
    Cv_artifacts.Artifacts.save artifact_out original.Cv_core.Strategy.artifact;
    Printf.printf "proof artifacts written to %s\n" artifact_out
  end
  else Printf.printf "no artifact written (property not proved)\n";
  Option.iter
    (fun path ->
      let fingerprint = Cv_artifacts.Artifacts.fingerprint net in
      let solver =
        original.Cv_core.Strategy.artifact.Cv_artifacts.Artifacts.solver
      in
      let din = prop.Cv_verify.Property.din
      and dout = prop.Cv_verify.Property.dout in
      emit_cert_to ~din path
        (match verdict with
        | Cv_verify.Containment.Proved ->
          safe_network_cert ~mode:"verify" ~solver ~fingerprint net ~din ~dout
        | Cv_verify.Containment.Violated v ->
          Cv_cert.Emit.unsafe_cert ~mode:"verify" ~solver ~fingerprint net
            ~din ~dout ~x:v.Cv_verify.Falsify.input
        | Cv_verify.Containment.Unknown _ -> None))
    emit_cert;
  (* A budget expiry is a structured, expected outcome of a bounded run,
     not a failure of the tool: exit 0. Everything else unproved is 1. *)
  match verdict with
  | Cv_verify.Containment.Proved -> Cmd.Exit.ok
  | Cv_verify.Containment.Unknown
      { Cv_verify.Containment.reason = Cv_verify.Containment.Timeout; _ } ->
    Cmd.Exit.ok
  | _ -> 1

let verify_cmd =
  let property =
    Arg.(
      required
      & opt (some file) None
      & info [ "property" ] ~docv:"FILE" ~doc:"Safety property (JSON).")
  in
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Run the sound-and-complete exact solve (MILP output range) \
             instead of abstract-with-fallback.")
  in
  let widen =
    Arg.(
      value & opt float 0.02
      & info [ "widen" ] ~docv:"W"
          ~doc:"Widening slack on recorded state abstractions.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Verify a safety property from scratch and record proof artifacts.")
    Term.(
      const verify $ verbose_arg $ model_arg () $ property
      $ artifact_arg ~mode:`Out $ emit_cert_arg $ exact $ widen $ timeout_arg
      $ stats_arg $ trace_json_arg $ checkpoint_arg $ checkpoint_every_arg
      $ resume_arg)

(* ------------------------------------------------------------------ *)
(* svudc / svbtv                                                       *)
(* ------------------------------------------------------------------ *)

let print_report report original_seconds =
  print_endline (Cv_core.Report.to_string report);
  Printf.printf "incremental cost: %.3f%% of the original solve\n"
    (100.
    *. Cv_core.Strategy.ratio ~incremental:report.Cv_core.Report.total_wall
         ~original:original_seconds);
  match report.Cv_core.Report.verdict with
  | Cv_core.Report.Safe -> Cmd.Exit.ok
  | Cv_core.Report.Exhausted _ ->
    (* Budget expiry is a structured, expected outcome of a bounded run. *)
    Cmd.Exit.ok
  | _ -> 1

(* Incremental runs certify the re-established property: the enlarged
   (or inherited) input domain against the artifact's output box, on
   the network that was actually verified, wrapped in the reuse frame
   naming the decisive route. *)
let emit_incremental_cert ~mode ~path net ~din ~dout
    (report : Cv_core.Report.t) =
  match report.Cv_core.Report.verdict with
  | Cv_core.Report.Safe ->
    let solver =
      Option.value ~default:"strategy" report.Cv_core.Report.decisive
    in
    let fingerprint = Cv_artifacts.Artifacts.fingerprint net in
    let inner = safe_network_cert ~mode ~solver ~fingerprint net ~din ~dout in
    emit_cert_to ~din path
      (match (inner, report.Cv_core.Report.decisive) with
      | Some c, Some route -> reuse_wrapped ~route ~dout c
      | _ -> inner)
  | Cv_core.Report.Unsafe v ->
    let fingerprint = Cv_artifacts.Artifacts.fingerprint net in
    emit_cert_to ~din path
      (Cv_cert.Emit.unsafe_cert ~mode ~solver:"falsify" ~fingerprint net ~din
         ~dout ~x:v.Cv_verify.Falsify.input)
  | Cv_core.Report.Inconclusive _ | Cv_core.Report.Exhausted _ ->
    emit_cert_to ~din path None

let svudc verbose model artifact new_din emit_cert engine timeout stats
    trace_json checkpoint checkpoint_every resume =
  run @@ fun () ->
  setup_logs verbose;
  with_observability ~stats ~trace_json @@ fun () ->
  let net = load_network model in
  let artifact = load_artifact artifact in
  let new_din = load_box new_din in
  let checkpoint, resume =
    setup_checkpointing ~kind:Cv_core.Runstate.Svudc
      ~fingerprint:(Cv_artifacts.Artifacts.fingerprint net)
      ~scope:
        (Cv_core.Runstate.property_scope ~din:new_din
           ~dout:
             artifact.Cv_artifacts.Artifacts.property.Cv_verify.Property.dout
           ())
      ~checkpoint ~every:checkpoint_every ~resume
  in
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din in
  let config = { Cv_core.Strategy.default_config with Cv_core.Strategy.engine } in
  let report =
    Cv_core.Strategy.solve_svudc ?deadline:(deadline_of timeout) ~config
      ?checkpoint ?resume p
  in
  Option.iter
    (fun path ->
      emit_incremental_cert ~mode:"svudc" ~path net ~din:new_din
        ~dout:artifact.Cv_artifacts.Artifacts.property.Cv_verify.Property.dout
        report)
    emit_cert;
  print_report report artifact.Cv_artifacts.Artifacts.solve_seconds

let svudc_cmd =
  let new_din =
    Arg.(
      required
      & opt (some file) None
      & info [ "new-din" ] ~docv:"FILE" ~doc:"Enlarged input domain (JSON box).")
  in
  Cmd.v
    (Cmd.info "svudc"
       ~doc:
         "Safety Verification under Domain Change: re-establish a proved \
          property on an enlarged input domain by reusing proof artifacts.")
    Term.(
      const svudc $ verbose_arg $ model_arg () $ artifact_arg ~mode:`In
      $ new_din $ emit_cert_arg $ engine_arg $ timeout_arg $ stats_arg
      $ trace_json_arg $ checkpoint_arg $ checkpoint_every_arg $ resume_arg)

let svbtv verbose old_model new_model artifact new_din emit_cert engine slack
    timeout stats trace_json checkpoint checkpoint_every resume =
  run @@ fun () ->
  setup_logs verbose;
  with_observability ~stats ~trace_json @@ fun () ->
  let old_net = load_network old_model in
  let new_net = load_network new_model in
  let artifact = load_artifact artifact in
  let new_din =
    match new_din with
    | Some path -> load_box path
    | None -> artifact.Cv_artifacts.Artifacts.property.Cv_verify.Property.din
  in
  (* The checkpoint is bound to the network under verification — the
     fine-tuned successor — and, via the scope, to the reference
     network the artifact speaks about. *)
  let checkpoint, resume =
    setup_checkpointing ~kind:Cv_core.Runstate.Svbtv
      ~fingerprint:(Cv_artifacts.Artifacts.fingerprint new_net)
      ~scope:
        (Cv_core.Runstate.property_scope
           ~old_fingerprint:(Cv_artifacts.Artifacts.fingerprint old_net)
           ~din:new_din
           ~dout:
             artifact.Cv_artifacts.Artifacts.property.Cv_verify.Property.dout
           ())
      ~checkpoint ~every:checkpoint_every ~resume
  in
  let p = Cv_core.Problem.svbtv ~old_net ~new_net ~artifact ~new_din in
  Printf.printf "parameter drift (Linf): %.5g\n" (Cv_core.Problem.drift p);
  let config =
    { Cv_core.Strategy.default_config with
      Cv_core.Strategy.engine;
      interval_slack = slack }
  in
  let report =
    Cv_core.Strategy.solve_svbtv ?deadline:(deadline_of timeout) ~config
      ?checkpoint ?resume p
  in
  Option.iter
    (fun path ->
      emit_incremental_cert ~mode:"svbtv" ~path new_net ~din:new_din
        ~dout:artifact.Cv_artifacts.Artifacts.property.Cv_verify.Property.dout
        report)
    emit_cert;
  print_report report artifact.Cv_artifacts.Artifacts.solve_seconds

let svbtv_cmd =
  let old_model = model_arg ~names:[ "old" ] () in
  let new_model = model_arg ~names:[ "new" ] () in
  let new_din =
    Arg.(
      value
      & opt (some file) None
      & info [ "new-din" ] ~docv:"FILE"
          ~doc:"Enlarged input domain (defaults to the artifact's D_in).")
  in
  let slack =
    Arg.(
      value
      & opt (some float) None
      & info [ "interval-slack" ] ~docv:"S"
          ~doc:"Also try weight-interval Prop 6 reuse with this slack.")
  in
  Cmd.v
    (Cmd.info "svbtv"
       ~doc:
         "Safety Verification between Two Versions: transfer a proof from a \
          network to its fine-tuned successor.")
    Term.(
      const svbtv $ verbose_arg $ old_model $ new_model
      $ artifact_arg ~mode:`In $ new_din $ emit_cert_arg $ engine_arg $ slack
      $ timeout_arg $ stats_arg $ trace_json_arg $ checkpoint_arg
      $ checkpoint_every_arg $ resume_arg)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

(* The Fig. 2 toy network: small enough that every chaos round is
   instant, rich enough (two ReLU layers, exact max ≈ 6.2 on [-1,1]²)
   that both a provable and a falsifiable property exist. *)
let chaos_net () =
  Cv_nn.Network.of_list
    [ Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 1.; -2. |]; [| -2.; 1. |]; [| 1.; -1. |] ])
        [| 0.; 0.; 0. |] Cv_nn.Activation.Relu;
      Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 2.; 2.; -1. |] ])
        [| 0. |] Cv_nn.Activation.Relu ]

(* Collapse a verdict (or an escaped exception) into the three-way
   outcome the soundness invariant speaks about. *)
type chaos_outcome = C_safe | C_unsafe | C_degraded of string

let chaos_outcome_name = function
  | C_safe -> "safe"
  | C_unsafe -> "unsafe"
  | C_degraded why -> "degraded (" ^ why ^ ")"

let chaos_run_scenario net ~input_box ~target =
  match
    Cv_verify.Containment.check Cv_verify.Containment.Milp net ~input_box
      ~target
  with
  | Cv_verify.Containment.Proved -> C_safe
  | Cv_verify.Containment.Violated _ -> C_unsafe
  | Cv_verify.Containment.Unknown u ->
    C_degraded (Cv_verify.Containment.reason_name u.Cv_verify.Containment.reason)
  | exception exn -> C_degraded ("escaped: " ^ Printexc.to_string exn)

(* A verdict flip is Safe↔Unsafe in either direction; degradation to
   Unknown (or a crash) is an acceptable loss of progress, never of
   soundness. *)
let chaos_is_flip ~baseline ~faulty =
  match (baseline, faulty) with
  | C_safe, C_unsafe | C_unsafe, C_safe -> true
  | _ -> false

let chaos verbose seed rounds =
  run @@ fun () ->
  setup_logs verbose;
  (* The baseline must be fault-free even under CONTIVER_FAULTS. *)
  Cv_util.Fault.reset ();
  let net = chaos_net () in
  let input_box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let scenarios =
    [ ("provable", Cv_interval.Box.of_bounds [| -1. |] [| 13. |]);
      ("falsifiable", Cv_interval.Box.of_bounds [| -1. |] [| 5. |]) ]
  in
  let baseline =
    List.map
      (fun (name, target) -> (name, chaos_run_scenario net ~input_box ~target))
      scenarios
  in
  List.iter
    (fun (name, outcome) ->
      Printf.printf "baseline %-11s -> %s\n" name (chaos_outcome_name outcome))
    baseline;
  (match List.assoc "provable" baseline with
  | C_safe -> ()
  | o ->
    cli_fail "fault-free baseline did not prove the provable scenario (%s)"
      (chaos_outcome_name o));
  (match List.assoc "falsifiable" baseline with
  | C_unsafe -> ()
  | o ->
    cli_fail "fault-free baseline did not falsify the falsifiable scenario (%s)"
      (chaos_outcome_name o));
  (* A live checkpoint sink, so kill-mid-checkpoint and
     truncate-artifact have a write path to strike. *)
  let ck_path = Filename.temp_file "contiver_chaos" ".ck.json" in
  let fingerprint = Cv_artifacts.Artifacts.fingerprint net in
  let ck_save round =
    Cv_core.Runstate.save ~path:ck_path ~kind:Cv_core.Runstate.Verify
      ~fingerprint
      (Cv_util.Json.Obj [ ("round", Cv_util.Json.Num (float_of_int round)) ])
  in
  ck_save 0;
  let campaign =
    Cv_util.Fault.plan ~seed ~rounds ~points:Cv_util.Fault.all_points
  in
  let flips = ref 0 and degradations = ref 0 in
  List.iteri
    (fun i faults ->
      let round = i + 1 in
      let armed =
        String.concat ", "
          (List.map
             (fun (p, m) ->
               Printf.sprintf "%s:%s" (Cv_util.Fault.point_name p)
                 (Cv_util.Fault.mode_name m))
             faults)
      in
      Printf.printf "round %2d  faults: %s\n" round armed;
      List.iter (fun (p, m) -> Cv_util.Fault.enable ~mode:m p) faults;
      List.iter
        (fun (name, target) ->
          let outcome = chaos_run_scenario net ~input_box ~target in
          let base = List.assoc name baseline in
          let flip = chaos_is_flip ~baseline:base ~faulty:outcome in
          if flip then incr flips;
          (match outcome with C_degraded _ -> incr degradations | _ -> ());
          Printf.printf "          %-11s -> %s%s\n" name
            (chaos_outcome_name outcome)
            (if flip then "  ** VERDICT FLIP **" else ""))
        scenarios;
      (* Exercise the checkpoint write path under the same faults. A
         kill mid-write must leave the previous checkpoint intact; any
         other damage must be detected at load, never silently
         resumed. *)
      (match ck_save round with
      | () -> ()
      | exception Cv_util.Fault.Injected _ -> (
        match
          Cv_core.Runstate.load ~path:ck_path ~kind:Cv_core.Runstate.Verify
            ~fingerprint ~scope:None
        with
        | Ok _ -> Printf.printf "          checkpoint   -> previous intact\n"
        | Error e ->
          incr flips;
          Printf.printf
            "          checkpoint   -> ** LOST AFTER KILL ** (%s)\n"
            (Cv_core.Runstate.resume_error_message e)));
      Cv_util.Fault.reset ();
      (match
         Cv_core.Runstate.load ~path:ck_path ~kind:Cv_core.Runstate.Verify
           ~fingerprint ~scope:None
       with
      | Ok _ -> ()
      | Error _ ->
        (* Detected (checksum-caught) damage from a truncation fault:
           a degradation, not a soundness failure. Reseed for the next
           round. *)
        incr degradations;
        Printf.printf "          checkpoint   -> corrupted but detected\n");
      ck_save 0)
    campaign;
  (try Sys.remove ck_path with Sys_error _ -> ());
  Printf.printf "chaos: %d rounds, %d degradations, %d verdict flips\n" rounds
    !degradations !flips;
  if !flips = 0 then Cmd.Exit.ok else 1

let chaos_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")
  in
  let rounds =
    Arg.(
      value & opt int 8
      & info [ "rounds" ] ~docv:"K" ~doc:"Number of fault rounds to run.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded fault-injection campaign against the verifier and \
          assert soundness: under injected solver crashes, worker deaths, \
          allocation failures and killed checkpoint writes, verdicts may \
          degrade to UNKNOWN but must never flip between safe and unsafe. \
          Exits nonzero on any flip.")
    Term.(const chaos $ verbose_arg $ seed $ rounds)

(* ------------------------------------------------------------------ *)
(* range                                                               *)
(* ------------------------------------------------------------------ *)

let range verbose model din domains =
  run @@ fun () ->
  setup_logs verbose;
  let net = load_network model in
  let din = load_box din in
  let r, dt =
    Cv_util.Timer.time (fun () ->
        Cv_verify.Range.exact_range ~domains net ~din)
  in
  Printf.printf "exact output range: %s\n"
    (Cv_interval.Box.to_string r.Cv_verify.Range.range);
  Printf.printf "MILP: %d vars, %d binaries; %.3fs\n" r.Cv_verify.Range.milp_vars
    r.Cv_verify.Range.milp_binaries dt;
  Cmd.Exit.ok

let range_cmd =
  let din =
    Arg.(
      required
      & opt (some file) None
      & info [ "din" ] ~docv:"FILE" ~doc:"Input domain (JSON box).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "milp-domains" ] ~docv:"N"
          ~doc:
            "Run branch-and-bound dives on $(docv) parallel domains \
             (deterministic verdicts; 1 = sequential).")
  in
  Cmd.v
    (Cmd.info "range"
       ~doc:"Compute the exact output range of a model over an input box.")
    Term.(const range $ verbose_arg $ model_arg () $ din $ domains)

(* ------------------------------------------------------------------ *)
(* diff                                                                *)
(* ------------------------------------------------------------------ *)

let diff verbose old_model new_model din =
  run @@ fun () ->
  setup_logs verbose;
  let old_net = load_network old_model in
  let new_net = load_network new_model in
  let box = load_box din in
  Printf.printf "parameter drift (Linf): %.5g\n"
    (Cv_nn.Network.param_dist_inf old_net new_net);
  let delta, dt =
    Cv_util.Timer.time (fun () ->
        Cv_diffverify.Diffverify.output_delta ~old_net ~new_net box)
  in
  Printf.printf "differential output bound (f' - f) over the box: %s (%.4fs)\n"
    (Cv_interval.Box.to_string delta) dt;
  Printf.printf "max |f' - f| <= %.5g\n"
    (Cv_diffverify.Diffverify.max_output_delta ~old_net ~new_net box);
  Cmd.Exit.ok

let diff_cmd =
  let old_model = model_arg ~names:[ "old" ] () in
  let new_model = model_arg ~names:[ "new" ] () in
  let din =
    Arg.(
      required
      & opt (some file) None
      & info [ "din" ] ~docv:"FILE" ~doc:"Input domain (JSON box).")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Bound the output difference between two model versions over an \
          input box (differential interval analysis).")
    Term.(const diff $ verbose_arg $ old_model $ new_model $ din)

(* ------------------------------------------------------------------ *)
(* suspects                                                            *)
(* ------------------------------------------------------------------ *)

let suspects verbose model property =
  run @@ fun () ->
  setup_logs verbose;
  let net = load_network model in
  let prop = load_property property in
  let result, dt =
    Cv_util.Timer.time (fun () ->
        Cv_verify.Backward.suspect_regions net ~din:prop.Cv_verify.Property.din
          ~dout:prop.Cv_verify.Property.dout)
  in
  List.iter (fun s -> Format.printf "%a@." Cv_verify.Backward.pp_suspect s) result;
  Printf.printf "%s (%.3fs)\n"
    (if Cv_verify.Backward.all_safe result then
       "all output bounds proved by the LP relaxation"
     else "suspect regions remain — consider split-verifying or collecting data there")
    dt;
  Cmd.Exit.ok

let suspects_cmd =
  let property =
    Arg.(
      required
      & opt (some file) None
      & info [ "property" ] ~docv:"FILE" ~doc:"Safety property (JSON).")
  in
  Cmd.v
    (Cmd.info "suspects"
       ~doc:
         "Backward analysis: over-approximate the input regions that could \
          violate the property (LP relaxation).")
    Term.(const suspects $ verbose_arg $ model_arg () $ property)

(* ------------------------------------------------------------------ *)
(* nnet import/export                                                  *)
(* ------------------------------------------------------------------ *)

let import_nnet verbose nnet out =
  run @@ fun () ->
  setup_logs verbose;
  let doc = Cv_nn.Nnet.load nnet in
  Cv_nn.Serialize.save_network ~name:(Filename.basename nnet) out
    doc.Cv_nn.Nnet.network;
  let box_path = Filename.remove_extension out ^ ".din.json" in
  save_box box_path doc.Cv_nn.Nnet.input_box;
  Printf.printf "imported %s -> %s (input box: %s)\n" nnet out box_path;
  print_string (Cv_nn.Describe.layer_table doc.Cv_nn.Nnet.network);
  Cmd.Exit.ok

let import_nnet_cmd =
  let nnet =
    Arg.(
      required
      & opt (some file) None
      & info [ "nnet" ] ~docv:"FILE" ~doc:".nnet file to import.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Output model (contiver JSON).")
  in
  Cmd.v
    (Cmd.info "import-nnet"
       ~doc:
         "Import a network in the community .nnet format (ACAS-Xu style) and \
          write the contiver model plus its declared input box.")
    Term.(const import_nnet $ verbose_arg $ nnet $ out)

let export_nnet verbose model din out =
  run @@ fun () ->
  setup_logs verbose;
  let net = load_network model in
  let input_box = Option.map load_box din in
  let doc = Cv_nn.Nnet.of_network ?input_box net in
  Cv_nn.Nnet.save out doc;
  Printf.printf "exported %s -> %s\n" model out;
  Cmd.Exit.ok

let export_nnet_cmd =
  let din =
    Arg.(
      value
      & opt (some file) None
      & info [ "din" ] ~docv:"FILE"
          ~doc:"Input box to record in the header (default [0,1]^d).")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Output .nnet file.")
  in
  Cmd.v
    (Cmd.info "export-nnet"
       ~doc:"Export a contiver model to the community .nnet format.")
    Term.(const export_nnet $ verbose_arg $ model_arg () $ din $ out)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let simulate verbose steps shifted seed =
  run @@ fun () ->
  setup_logs verbose;
  let exp = Cv_vehicle.Pipeline.build () in
  let track = exp.Cv_vehicle.Pipeline.track in
  let perception = exp.Cv_vehicle.Pipeline.perception in
  let monitor = Cv_monitor.Monitor.of_box exp.Cv_vehicle.Pipeline.din in
  let rng = Cv_util.Rng.create seed in
  let conditions =
    if shifted then Cv_vehicle.Camera.shifted else Cv_vehicle.Camera.nominal
  in
  let state = Cv_vehicle.Controller.init track ~s:0. in
  let final, trace =
    Cv_vehicle.Controller.drive ~conditions ~rng ~track ~perception ~monitor
      ~steps state
  in
  let poses =
    List.filteri (fun i _ -> i mod (max 1 (steps / 15)) = 0) trace
    |> List.map (fun t -> t.Cv_vehicle.Controller.t_pose)
  in
  print_string (Cv_vehicle.Track.render track poses);
  Printf.printf
    "%d steps under %s conditions: %d off-track, %d OOD events (kappa %.4f)\n"
    steps
    (if shifted then "shifted" else "nominal")
    final.Cv_vehicle.Controller.off_track
    (Cv_monitor.Monitor.event_count monitor)
    (Cv_monitor.Monitor.kappa monitor);
  Cmd.Exit.ok

let simulate_cmd =
  let steps =
    Arg.(value & opt int 200 & info [ "steps" ] ~docv:"N" ~doc:"Simulation steps.")
  in
  let shifted =
    Arg.(
      value & flag
      & info [ "shifted" ]
          ~doc:"Drive under shifted (OOD-provoking) camera conditions.")
  in
  let seed =
    Arg.(value & opt int 123 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Closed-loop lane following with runtime monitoring on the synthetic \
          track.")
    Term.(const simulate $ verbose_arg $ steps $ shifted $ seed)

(* ------------------------------------------------------------------ *)
(* batch                                                               *)
(* ------------------------------------------------------------------ *)

(* One manifest entry. Files are loaded here (missing/corrupt input
   files are manifest authoring errors and abort the batch up front);
   semantic validation — artifact/network fingerprints, domain
   containment, shape agreement — happens inside the job, where a bad
   entry degrades to one crashed job instead of poisoning the run. *)
let parse_batch_job ~resolve ~load_net index j =
  let str key = Cv_util.Json.to_str (Cv_util.Json.member key j) in
  let opt_str key =
    match Cv_util.Json.member_opt key j with
    | None | Some Cv_util.Json.Null -> None
    | Some v -> Some (Cv_util.Json.to_str v)
  in
  let id =
    match opt_str "id" with
    | Some id -> id
    | None -> cli_fail "batch manifest: job %d has no \"id\"" index
  in
  let timeout =
    match Cv_util.Json.member_opt "timeout" j with
    | None | Some Cv_util.Json.Null -> None
    | Some v -> Some (Cv_util.Json.to_float v)
  in
  let mode = Option.value ~default:"verify" (opt_str "mode") in
  let spec =
    match mode with
    | "verify" | "verify-exact" ->
      let net = load_net (str "model") in
      let prop = load_property (resolve (str "property")) in
      let exact =
        String.equal mode "verify-exact"
        ||
        match Cv_util.Json.member_opt "exact" j with
        | Some v -> Cv_util.Json.to_bool v
        | None -> false
      in
      let artifact_out = Option.map resolve (opt_str "artifact_out") in
      Cv_core.Batch.Verify { net; prop; exact; artifact_out }
    | "svudc" ->
      Cv_core.Batch.Svudc
        { net = load_net (str "model");
          artifact = load_artifact (resolve (str "artifact"));
          new_din = load_box (resolve (str "new_din")) }
    | "svbtv" ->
      let artifact = load_artifact (resolve (str "artifact")) in
      let new_din =
        match opt_str "new_din" with
        | Some path -> load_box (resolve path)
        | None ->
          artifact.Cv_artifacts.Artifacts.property.Cv_verify.Property.din
      in
      Cv_core.Batch.Svbtv
        { old_net = load_net (str "old");
          new_net = load_net (str "new");
          artifact;
          new_din }
    | m -> cli_fail "batch manifest: job %s: unknown mode %S" id m
  in
  { Cv_core.Batch.id; spec; timeout }

(* Each model file is loaded once per manifest: jobs on one file share
   one network value, so they share its memoized fingerprint and
   prepared layers instead of rebuilding both per job. *)
let load_manifest path =
  let dir = Filename.dirname path in
  let resolve p = if Filename.is_relative p then Filename.concat dir p else p in
  let nets = Hashtbl.create 8 in
  let load_net p =
    let p = resolve p in
    match Hashtbl.find_opt nets p with
    | Some net -> net
    | None ->
      let net = load_network p in
      Hashtbl.add nets p net;
      net
  in
  match Cv_util.Json.to_list (Cv_util.Json.member "jobs" (load_json path)) with
  | [] -> cli_fail "batch manifest: no jobs"
  | jobs -> List.mapi (parse_batch_job ~resolve ~load_net) jobs
  | exception Cv_util.Json.Error msg -> cli_fail "%s: %s" path msg

let batch verbose manifest jobs timeout engine no_cache cache_dir
    cache_capacity checkpoint_dir checkpoint_every report_out emit_certs stats
    trace_json =
  run @@ fun () ->
  setup_logs verbose;
  with_observability ~stats ~trace_json @@ fun () ->
  let manifest_jobs = load_manifest manifest in
  let cache =
    if no_cache then None
    else Some (Cv_artifacts.Cache.create ~capacity:cache_capacity ?dir:cache_dir ())
  in
  let config =
    { Cv_core.Batch.jobs;
      job_timeout = timeout;
      strategy =
        { Cv_core.Strategy.default_config with Cv_core.Strategy.engine };
      cache;
      checkpoint_dir;
      checkpoint_every }
  in
  let t = Cv_core.Batch.run ~config manifest_jobs in
  List.iter
    (fun (r : Cv_core.Batch.job_result) ->
      Printf.printf "%-16s %-12s %-12s %-20s %8.3fs%s\n" r.Cv_core.Batch.job_id
        r.Cv_core.Batch.mode
        (Cv_core.Batch.verdict_name r.Cv_core.Batch.verdict)
        (Option.value ~default:"-" r.Cv_core.Batch.decisive)
        r.Cv_core.Batch.seconds
        (if r.Cv_core.Batch.resumed then "  (resumed)" else ""))
    t.Cv_core.Batch.results;
  let count v =
    List.length
      (List.filter
         (fun (r : Cv_core.Batch.job_result) -> r.Cv_core.Batch.verdict = v)
         t.Cv_core.Batch.results)
  in
  Printf.printf
    "batch: %d jobs  %d safe  %d unsafe  %d inconclusive  %d exhausted  %d crashed  (wall %.3fs)\n"
    (List.length t.Cv_core.Batch.results)
    (count Cv_core.Batch.Safe) (count Cv_core.Batch.Unsafe)
    (count Cv_core.Batch.Inconclusive)
    (count Cv_core.Batch.Exhausted)
    (count Cv_core.Batch.Crashed) t.Cv_core.Batch.wall_seconds;
  (match t.Cv_core.Batch.cache_stats with
  | None -> ()
  | Some s ->
    Printf.printf "cache: %d hits  %d misses  %d evictions\n"
      s.Cv_artifacts.Cache.hits s.Cv_artifacts.Cache.misses
      s.Cv_artifacts.Cache.evictions);
  (match emit_certs with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    List.iter
      (fun (r : Cv_core.Batch.job_result) ->
        if r.Cv_core.Batch.verdict = Cv_core.Batch.Safe then
          List.find_opt
            (fun j -> String.equal j.Cv_core.Batch.id r.Cv_core.Batch.job_id)
            manifest_jobs
          |> Option.iter (fun job ->
                 let mode = "batch:" ^ r.Cv_core.Batch.job_id in
                 let path =
                   Filename.concat dir (r.Cv_core.Batch.job_id ^ ".cert.json")
                 in
                 let emit net ~din ~dout ~route =
                   let fingerprint = Cv_artifacts.Artifacts.fingerprint net in
                   let solver = Option.value ~default:"strategy" route in
                   let inner =
                     safe_network_cert ~mode ~solver ~fingerprint net ~din
                       ~dout
                   in
                   emit_cert_to ?cache ~din path
                     (match (inner, route) with
                     | Some c, Some route -> reuse_wrapped ~route ~dout c
                     | _ -> inner)
                 in
                 match job.Cv_core.Batch.spec with
                 | Cv_core.Batch.Verify { net; prop; _ } ->
                   emit net ~din:prop.Cv_verify.Property.din
                     ~dout:prop.Cv_verify.Property.dout ~route:None
                 | Cv_core.Batch.Svudc { net; artifact; new_din } ->
                   emit net ~din:new_din
                     ~dout:
                       artifact.Cv_artifacts.Artifacts.property
                         .Cv_verify.Property.dout
                     ~route:r.Cv_core.Batch.decisive
                 | Cv_core.Batch.Svbtv { new_net; artifact; new_din; _ } ->
                   emit new_net ~din:new_din
                     ~dout:
                       artifact.Cv_artifacts.Artifacts.property
                         .Cv_verify.Property.dout
                     ~route:r.Cv_core.Batch.decisive))
      t.Cv_core.Batch.results);
  (match report_out with
  | None -> ()
  | Some path ->
    write_file path
      (Cv_util.Json.to_string (Cv_core.Batch.report_to_json t));
    Printf.printf "batch report written to %s\n" path);
  (* Mirror the single-shot commands' exit discipline: proved and
     budget-expired runs are expected outcomes of a bounded batch; an
     unsafe, inconclusive or crashed job makes the batch exit
     nonzero. *)
  if
    List.for_all
      (fun (r : Cv_core.Batch.job_result) ->
        match r.Cv_core.Batch.verdict with
        | Cv_core.Batch.Safe | Cv_core.Batch.Exhausted -> true
        | _ -> false)
      t.Cv_core.Batch.results
  then Cmd.Exit.ok
  else 1

let batch_cmd =
  let manifest =
    Arg.(
      required
      & opt (some file) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Batch manifest: a JSON object with a $(b,jobs) array. Each job \
             has an $(b,id), a $(b,mode) ($(b,verify), $(b,verify-exact), \
             $(b,svudc), $(b,svbtv); default $(b,verify)), the mode's input \
             files ($(b,model)/$(b,property), or \
             $(b,model)/$(b,artifact)/$(b,new_din), or \
             $(b,old)/$(b,new)/$(b,artifact)), and optionally a per-job \
             $(b,timeout) and an $(b,artifact_out) path. Relative paths are \
             resolved against the manifest's directory.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains. Admission is fair FIFO in manifest order; \
             verdicts are independent of $(docv).")
  in
  let job_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Default per-job budget, started when the job is admitted (a \
             job's own $(b,timeout) field takes precedence). On expiry the \
             job degrades to a structured exhausted verdict.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the proof-artifact cache (every job builds cold).")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Back the artifact cache with durable entries in $(docv) \
             (created if missing), so later batches reuse this one's \
             artifacts.")
  in
  let cache_capacity =
    Arg.(
      value & opt int 256
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"In-memory cache entries before LRU eviction (default 256).")
  in
  let checkpoint_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Per-job checkpointing: search state snapshots to \
             $(docv)/<id>.ck.json and completed results to \
             $(docv)/<id>.done.json. Re-running the same manifest replays \
             completed jobs and resumes interrupted ones.")
  in
  let report_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Write the consolidated JSON batch report to $(docv).")
  in
  let emit_certs =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-certs" ] ~docv:"DIR"
          ~doc:
            "Emit a standalone proof certificate ($(docv)/<id>.cert.json, \
             replayable with $(b,contiver check)) for every job that \
             verified safe. Best-effort per job: an uncertifiable proof \
             prints a warning and skips that job.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run a manifest of verification queries on a bounded worker pool, \
          reusing proof artifacts (state abstractions, Lipschitz constants, \
          network abstractions) across jobs through a content-addressed \
          cache.")
    Term.(
      const batch $ verbose_arg $ manifest $ jobs $ job_timeout $ engine_arg
      $ no_cache $ cache_dir $ cache_capacity $ checkpoint_dir
      $ checkpoint_every_arg $ report_out $ emit_certs $ stats_arg
      $ trace_json_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cert verbose file max_split_nodes =
  run @@ fun () ->
  setup_logs verbose;
  (* Accept both the checksummed envelope `--emit-cert` writes and a
     bare certificate document (e.g. a test fixture). *)
  let payload =
    match Cv_util.Json.member_opt "payload" (load_json file) with
    | None -> load_json file
    | Some _ -> (
      match
        Cv_artifacts.Artifacts.load_doc_result
          ~format:Cv_cert.Cert.envelope_format file
      with
      | Ok p -> p
      | Error e -> cli_fail "%s" (Cv_artifacts.Artifacts.load_error_message e))
  in
  match Cv_cert.Cert.of_json_result payload with
  | Error msg -> cli_fail "%s: not a certificate: %s" file msg
  | Ok cert -> (
    Printf.printf "certificate: mode %s, %s proof (solver %s)\n"
      cert.Cv_cert.Cert.mode
      (Cv_cert.Cert.proof_kind cert.Cv_cert.Cert.proof)
      cert.Cv_cert.Cert.solver;
    match Cv_cert.Check.check ~max_split_nodes cert with
    | Cv_cert.Check.Valid ->
      print_endline "VALID";
      Cmd.Exit.ok
    | Cv_cert.Check.Invalid reason ->
      Printf.printf "INVALID: %s\n" reason;
      1)

let check_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"CERT" ~doc:"Certificate file to replay.")
  in
  let max_split_nodes =
    Arg.(
      value & opt int 200_000
      & info [ "max-split-nodes" ] ~docv:"N"
          ~doc:
            "Largest bisection / branch tree the checker walks before \
             rejecting the certificate as oversized (default 200000).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Replay a proof certificate with the independent trusted checker: \
          outward-rounded interval arithmetic only, no solver code. Exits 0 \
          on VALID, nonzero on INVALID or malformed input.")
    Term.(const check_cert $ verbose_arg $ file $ max_split_nodes)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

(* The continuous-verification daemon: monitored observations stream in
   (NDJSON on stdin, or the simulated vehicle with --drive), OOD events
   debounce into SVuDC rounds, a watched network file fingerprint change
   triggers SVbTV. Status records (contiver-serve-status-v1) go to
   stdout one JSON object per line; human-readable logs go to stderr. *)
let serve verbose model artifact_path artifact_out drive drive_steps drive_seed
    drive_burst drive_ramp max_rounds margin trigger_events trigger_kappa quiet
    queue_capacity engine widen timeout checkpoint_dir checkpoint_every resume
    status_every no_cache cache_dir cache_capacity watch no_watch stats
    trace_json =
  run @@ fun () ->
  setup_logs verbose;
  with_observability ~stats ~trace_json @@ fun () ->
  let stop_requested = Atomic.make false in
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true)))
    [ Sys.sigterm; Sys.sigint ];
  let cache =
    if no_cache then None
    else
      Some (Cv_artifacts.Cache.create ~capacity:cache_capacity ?dir:cache_dir ())
  in
  let strategy =
    { Cv_core.Strategy.default_config with Cv_core.Strategy.engine }
  in
  let net, artifact, stream, watch_path =
    if drive then begin
      let exp = Cv_vehicle.Pipeline.build () in
      let head = exp.Cv_vehicle.Pipeline.heads.(0) in
      let prop = Cv_vehicle.Pipeline.property exp in
      let original = Cv_core.Strategy.solve_original ~config:strategy head prop in
      if not original.Cv_core.Strategy.proved then
        cli_fail "serve --drive: could not certify the original property";
      let stream =
        Cv_vehicle.Stream.create ~ramp:drive_ramp
          ~rng:(Cv_util.Rng.create drive_seed)
          ~track:exp.Cv_vehicle.Pipeline.track
          ~perception:exp.Cv_vehicle.Pipeline.perception ~steps:drive_steps ()
      in
      (head, original.Cv_core.Strategy.artifact, Some stream, watch)
    end
    else begin
      let model =
        match model with
        | Some m -> m
        | None -> cli_fail "serve: --model is required unless --drive is given"
      in
      let artifact_path =
        match artifact_path with
        | Some a -> a
        | None -> cli_fail "serve: --artifact is required unless --drive is given"
      in
      let net = load_network model in
      let artifact = load_artifact artifact_path in
      if not (Cv_artifacts.Artifacts.matches artifact net) then
        cli_fail "serve: artifact %s was not produced for network %s"
          artifact_path model;
      let watch_path =
        if no_watch then None
        else Some (Option.value watch ~default:model)
      in
      (net, artifact, None, watch_path)
    end
  in
  let fingerprint = Cv_artifacts.Artifacts.fingerprint net in
  let restored =
    if not resume then None
    else
      match checkpoint_dir with
      | None -> cli_fail "serve: --resume-checkpoint needs --checkpoint-dir"
      | Some dir -> (
        match Cv_serve.Serve.load_state ~dir ~fingerprint with
        | Ok state -> state
        | Error e -> cli_fail "%s" (Cv_core.Runstate.resume_error_message e))
  in
  let source =
    match stream with
    | Some stream ->
      (* Replay the frames a previous run already consumed, so the
         resumed daemon continues at the exact frame it last saw. *)
      (match restored with
      | Some state -> Cv_vehicle.Stream.skip stream state.Cv_serve.Serve.p_consumed
      | None -> ());
      Cv_serve.Source.of_stream ~burst:drive_burst stream
    | None -> Cv_serve.Source.stdin_ndjson ()
  in
  let config =
    { Cv_serve.Serve.margin;
      trigger_events;
      trigger_kappa =
        (match trigger_kappa with None -> infinity | Some k -> k);
      quiet_events = quiet;
      queue_capacity;
      max_rounds;
      widen;
      strategy;
      round_timeout = timeout;
      checkpoint_dir;
      checkpoint_every;
      resume = restored;
      cache;
      status_every;
      watch = watch_path;
      artifact_out;
      status =
        (fun j ->
          print_endline (Cv_util.Json.to_string j);
          flush stdout);
      on_round =
        (fun r ->
          Printf.eprintf "round %04d %s: %s%s%s  (%.3fs, %d events, kappa %.4f)\n%!"
            r.Cv_serve.Serve.number
            (Cv_serve.Serve.round_kind_name r.Cv_serve.Serve.kind)
            (Cv_core.Batch.verdict_name r.Cv_serve.Serve.verdict)
            (if r.Cv_serve.Serve.committed then ", committed" else "")
            (if r.Cv_serve.Serve.resumed then " (resumed)" else "")
            r.Cv_serve.Serve.seconds r.Cv_serve.Serve.trigger_events
            r.Cv_serve.Serve.kappa);
      should_stop = (fun () -> Atomic.get stop_requested) }
  in
  let t = Cv_serve.Serve.run ~config ~net ~artifact ~source () in
  Printf.eprintf
    "serve: stopped (%s) after %d rounds  %d commits  %d seen  %d ood  %d \
     dropped  %d rejected  %d pending\n\
     %!"
    (Cv_serve.Serve.stop_reason_name t.Cv_serve.Serve.stop)
    t.Cv_serve.Serve.round_count t.Cv_serve.Serve.commits t.Cv_serve.Serve.seen
    t.Cv_serve.Serve.ood t.Cv_serve.Serve.dropped t.Cv_serve.Serve.rejected
    t.Cv_serve.Serve.pending;
  (* Mirror the batch exit discipline: proved and budget-exhausted
     rounds are expected outcomes; unsafe, inconclusive or crashed
     rounds make the service exit nonzero. *)
  if
    List.for_all
      (fun (r : Cv_serve.Serve.round) ->
        match r.Cv_serve.Serve.verdict with
        | Cv_core.Batch.Safe | Cv_core.Batch.Exhausted -> true
        | _ -> false)
      t.Cv_serve.Serve.rounds
  then Cmd.Exit.ok
  else 1

let serve_cmd =
  let model =
    Arg.(
      value
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:
            "Model file (contiver JSON format). Required unless \
             $(b,--drive) is given.")
  in
  let artifact =
    Arg.(
      value
      & opt (some file) None
      & info [ "artifact" ] ~docv:"FILE"
          ~doc:
            "Proof artifact of the property over the monitored box. \
             Required unless $(b,--drive) is given.")
  in
  let artifact_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifact-out" ] ~docv:"FILE"
          ~doc:
            "After every committed round, write the refreshed proof \
             artifact (enlarged domain, rebuilt abstractions) to $(docv).")
  in
  let drive =
    Arg.(
      value & flag
      & info [ "drive" ]
          ~doc:
            "Self-contained demo source: build the synthetic vehicle \
             experiment, certify the original property, then stream \
             features from the closed loop driving under drifting shifted \
             conditions.")
  in
  let drive_steps =
    Arg.(
      value & opt int 400
      & info [ "drive-steps" ] ~docv:"N"
          ~doc:"Frames to drive before the stream ends (default 400).")
  in
  let drive_seed =
    Arg.(
      value & opt int 123
      & info [ "drive-seed" ] ~docv:"N"
          ~doc:"Random seed of the drive source (default 123).")
  in
  let drive_burst =
    Arg.(
      value & opt int 8
      & info [ "drive-burst" ] ~docv:"N"
          ~doc:"Frames ingested per poll of the drive source (default 8).")
  in
  let drive_ramp =
    Arg.(
      value & opt float 0.005
      & info [ "drive-ramp" ] ~docv:"DELTA"
          ~doc:
            "Per-frame brightness drift of the drive source, so fresh \
             out-of-distribution events keep arriving (default 0.005).")
  in
  let max_rounds =
    Arg.(
      value
      & opt (some int) None
      & info [ "rounds" ] ~docv:"N"
          ~doc:"Stop after $(docv) verification rounds.")
  in
  let margin =
    Arg.(
      value & opt float 0.005
      & info [ "margin" ] ~docv:"DELTA"
          ~doc:
            "Padding added around each OOD event when enlarging the \
             monitored box (default 0.005).")
  in
  let trigger_events =
    Arg.(
      value & opt int 3
      & info [ "ood-events" ] ~docv:"N"
          ~doc:
            "Fire a re-verification round once this many OOD events are \
             pending (default 3).")
  in
  let trigger_kappa =
    Arg.(
      value
      & opt (some float) None
      & info [ "kappa" ] ~docv:"K"
          ~doc:
            "Also fire a round as soon as the enlargement distance κ \
             reaches $(docv) (off by default).")
  in
  let quiet =
    Arg.(
      value & opt int 0
      & info [ "quiet" ] ~docv:"N"
          ~doc:
            "Debounce: wait for $(docv) consecutive in-distribution \
             observations after the last OOD event before firing (waived \
             when the source is idle or has ended; default 0).")
  in
  let queue_capacity =
    Arg.(
      value & opt int 1024
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded ingestion queue capacity; on overflow the oldest \
             observation is dropped and counted (default 1024).")
  in
  let widen =
    Arg.(
      value & opt float 0.04
      & info [ "widen" ] ~docv:"SLACK"
          ~doc:
            "Widening slack of the abstraction chain rebuilt for a \
             committed box (default 0.04).")
  in
  let round_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-round verification budget; on expiry the round degrades \
             to a structured exhausted verdict and the box is not \
             committed.")
  in
  let checkpoint_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Durable serving state: the loop state (serve.state.json) \
             plus per-round search checkpoints and done-files, so a \
             killed daemon restarted with $(b,--resume-checkpoint) \
             replays finished rounds instead of re-verifying.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume-checkpoint" ]
          ~doc:
            "Resume from the state saved under $(b,--checkpoint-dir): \
             restore the monitored box, pending events and counters, \
             skip already-consumed drive frames, and replay completed \
             rounds from their done-files.")
  in
  let status_every =
    Arg.(
      value & opt float 10.
      & info [ "status-every" ] ~docv:"SECONDS"
          ~doc:
            "Minimum seconds between periodic status records on stdout \
             (one JSON object per line, schema \
             contiver-serve-status-v1); a record is also emitted after \
             every round and at shutdown (default 10).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the proof-artifact cache (every round builds cold).")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Back the artifact cache with durable entries in $(docv), so \
             restarted daemons reuse earlier rounds' artifacts.")
  in
  let cache_capacity =
    Arg.(
      value & opt int 256
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"In-memory cache entries before LRU eviction (default 256).")
  in
  let watch =
    Arg.(
      value
      & opt (some file) None
      & info [ "watch" ] ~docv:"FILE"
          ~doc:
            "Network file to watch; a content-fingerprint change (a \
             fine-tuned model dropped in place) triggers an SVbTV round. \
             Defaults to $(b,--model).")
  in
  let no_watch =
    Arg.(
      value & flag
      & info [ "no-watch" ] ~doc:"Do not watch any network file.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the continuous-verification service: ingest monitored \
          feature observations (NDJSON on stdin, or the simulated vehicle \
          with $(b,--drive)), debounce out-of-distribution events into \
          SVuDC re-verification rounds, watch for fine-tuned networks to \
          trigger SVbTV rounds, and commit enlarged domains back to the \
          monitor only on proved verdicts.")
    Term.(
      const serve $ verbose_arg $ model $ artifact $ artifact_out $ drive
      $ drive_steps $ drive_seed $ drive_burst $ drive_ramp $ max_rounds
      $ margin $ trigger_events $ trigger_kappa $ quiet $ queue_capacity
      $ engine_arg $ widen $ round_timeout $ checkpoint_dir
      $ checkpoint_every_arg $ resume $ status_every $ no_cache $ cache_dir
      $ cache_capacity $ watch $ no_watch $ stats_arg $ trace_json_arg)

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let doc = "continuous safety verification of neural networks" in
  let info = Cmd.info "contiver" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ generate_cmd; describe_cmd; verify_cmd; batch_cmd; serve_cmd;
            svudc_cmd; svbtv_cmd; check_cmd; chaos_cmd; range_cmd; diff_cmd;
            suspects_cmd; simulate_cmd; import_nnet_cmd; export_nnet_cmd ]))
