(* Tests of the continuous-verification service: the bounded event
   queue, scripted sources, full OOD→SVuDC→commit rounds checked against
   a one-shot oracle, backpressure accounting, malformed-vector
   rejection, cache reuse across rounds, watch-file SVbTV rounds, the
   refreshed artifact's chain guard, and checkpoint/resume continuity —
   both in-process and through the contiver binary (SIGKILL
   mid-round). *)

module Json = Cv_util.Json
module Box = Cv_interval.Box
module Monitor = Cv_monitor.Monitor
module Artifacts = Cv_artifacts.Artifacts
module Cache = Cv_artifacts.Cache
module Batch = Cv_core.Batch
module Strategy = Cv_core.Strategy
module Serve = Cv_serve.Serve
module Source = Cv_serve.Source
module Event_queue = Cv_serve.Event_queue

(* ------------------------------------------------------------------ *)
(* Shared toy problem: a tiny ReLU net with a generous output box, so
   SVuDC rounds over modestly enlarged domains stay provable. *)

let toy_net =
  Cv_nn.Network.random ~rng:(Cv_util.Rng.create 11) ~dims:[ 2; 4; 1 ]
    ~act:Cv_nn.Activation.Relu ()

let toy_din = Box.uniform 2 ~lo:(-1.) ~hi:1.

let toy_dout =
  (* Output range over a domain comfortably containing every enlargement
     the tests trigger, plus slack: all rounds should come back Safe. *)
  Box.expand 0.2
    (Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint toy_net
       (Box.uniform 2 ~lo:(-1.5) ~hi:1.5))

let toy_artifact =
  lazy
    (let prop = Cv_verify.Property.make ~din:toy_din ~dout:toy_dout in
     let original = Strategy.solve_original toy_net prop in
     Alcotest.(check bool) "toy property proved" true
       original.Strategy.proved;
     original.Strategy.artifact)

let in_dist =
  [ [| 0.; 0. |]; [| 0.1; -0.2 |]; [| -0.4; 0.3 |]; [| 0.5; -0.5 |] ]

let ood_at x0 = List.init 3 (fun k -> [| x0 +. (0.01 *. float_of_int k); 0. |])

let quiet_config =
  { Serve.default_config with Serve.margin = 0.01; trigger_events = 3 }

let batch_verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Batch.verdict_name v))
    ( = )

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)

let test_queue_fifo_and_drop () =
  let q = Event_queue.create ~capacity:3 () in
  Alcotest.(check int) "capacity" 3 (Event_queue.capacity q);
  let v n = [| float_of_int n |] in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "push %d evicts nothing" n)
        true
        (Event_queue.push q (v n) = None))
    [ 1; 2; 3 ];
  (* Overflow drops the oldest and reports it. *)
  (match Event_queue.push q (v 4) with
  | Some lost -> Alcotest.(check (float 0.)) "oldest dropped" 1. lost.(0)
  | None -> Alcotest.fail "overflow did not evict");
  Alcotest.(check int) "dropped counted" 1 (Event_queue.dropped q);
  Alcotest.(check int) "length at capacity" 3 (Event_queue.length q);
  (* FIFO order of the survivors. *)
  List.iter
    (fun expected ->
      match Event_queue.pop q with
      | Some x ->
        Alcotest.(check (float 0.))
          (Printf.sprintf "pop %g" expected)
          expected x.(0)
      | None -> Alcotest.fail "queue empty too early")
    [ 2.; 3.; 4. ];
  Alcotest.(check bool) "drained" true (Event_queue.pop q = None)

let test_queue_rejects_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Event_queue.create: capacity must be >= 1")
    (fun () -> ignore (Event_queue.create ~capacity:0 ()))

let test_source_of_bursts () =
  let s = Source.of_bursts [ [ [| 1. |] ]; []; [ [| 2. |]; [| 3. |] ] ] in
  (match s () with
  | Source.Burst [ x ] -> Alcotest.(check (float 0.)) "first" 1. x.(0)
  | _ -> Alcotest.fail "expected first burst");
  (match s () with
  | Source.Burst [] -> ()
  | _ -> Alcotest.fail "expected empty burst");
  (match s () with
  | Source.Burst [ x; y ] ->
    Alcotest.(check (float 0.)) "second" 2. x.(0);
    Alcotest.(check (float 0.)) "third" 3. y.(0)
  | _ -> Alcotest.fail "expected second burst");
  Alcotest.(check bool) "eof" true (s () = Source.Eof);
  Alcotest.(check bool) "eof stays" true (s () = Source.Eof)

(* ------------------------------------------------------------------ *)
(* Full rounds through Serve.run                                       *)

(* A scripted stream drives one OOD→SVuDC→commit round whose verdict
   must equal solving the same enlarged problem one-shot. *)
let test_round_matches_oracle () =
  let artifact = Lazy.force toy_artifact in
  let ood = ood_at 1.03 in
  let t =
    Serve.run ~config:quiet_config ~net:toy_net ~artifact
      ~source:(Source.of_bursts [ in_dist; ood ])
      ()
  in
  Alcotest.(check int) "one round" 1 t.Serve.round_count;
  Alcotest.(check int) "one commit" 1 t.Serve.commits;
  Alcotest.(check int) "seen all" 7 t.Serve.seen;
  Alcotest.(check int) "ood counted" 3 t.Serve.ood;
  Alcotest.(check int) "nothing pending" 0 t.Serve.pending;
  Alcotest.(check bool) "stopped at eof" true (t.Serve.stop = Serve.Eof);
  let round =
    match t.Serve.rounds with [ r ] -> r | _ -> Alcotest.fail "round list"
  in
  Alcotest.(check bool) "svudc round" true (round.Serve.kind = Serve.Svudc);
  Alcotest.(check bool) "committed" true round.Serve.committed;
  Alcotest.(check int) "triggered on 3 events" 3 round.Serve.trigger_events;
  List.iter
    (fun p ->
      Alcotest.(check bool) "committed box covers event" true (Box.mem p t.Serve.box))
    ood;
  (* The refreshed artifact is for the committed box. *)
  Alcotest.(check bool) "artifact din = committed box" true
    (Box.subset t.Serve.box
       t.Serve.artifact.Artifacts.property.Cv_verify.Property.din
    && Box.subset t.Serve.artifact.Artifacts.property.Cv_verify.Property.din
         t.Serve.box);
  (* Oracle: replay the observations into a fresh monitor and solve the
     identical SVuDC problem one-shot. *)
  let monitor = Monitor.of_box toy_din in
  List.iter (fun p -> ignore (Monitor.observe monitor p)) (in_dist @ ood);
  let enlarged = Monitor.enlarged_box ~margin:0.01 monitor in
  Alcotest.(check bool) "same enlarged box" true
    (Box.subset enlarged t.Serve.box && Box.subset t.Serve.box enlarged);
  let problem =
    Cv_core.Problem.svudc ~net:toy_net ~artifact ~new_din:enlarged
  in
  let report = Strategy.solve_svudc problem in
  let oracle =
    match report.Cv_core.Report.verdict with
    | Cv_core.Report.Safe -> Batch.Safe
    | Cv_core.Report.Unsafe _ -> Batch.Unsafe
    | Cv_core.Report.Inconclusive _ -> Batch.Inconclusive
    | Cv_core.Report.Exhausted _ -> Batch.Exhausted
  in
  Alcotest.check batch_verdict "verdict equals one-shot oracle" oracle
    round.Serve.verdict

let test_backpressure_accounting () =
  let artifact = Lazy.force toy_artifact in
  (* One burst far over capacity: the oldest six frames must be dropped,
     counted, and never observed. *)
  let burst = List.init 10 (fun _ -> [| 0.; 0. |]) in
  let config = { quiet_config with Serve.queue_capacity = 4 } in
  let t =
    Serve.run ~config ~net:toy_net ~artifact
      ~source:(Source.of_bursts [ burst ])
      ()
  in
  Alcotest.(check int) "consumed all" 10 t.Serve.consumed;
  Alcotest.(check int) "dropped overflow" 6 t.Serve.dropped;
  Alcotest.(check int) "observed the rest" 4 t.Serve.seen;
  Alcotest.(check int) "no rounds" 0 t.Serve.round_count

let test_rejects_non_finite () =
  let artifact = Lazy.force toy_artifact in
  let poisoned = [ [| nan; 0. |]; [| infinity; 0. |]; [| 0.; 0. |] ] in
  let t =
    Serve.run ~config:quiet_config ~net:toy_net ~artifact
      ~source:(Source.of_bursts [ poisoned ])
      ()
  in
  Alcotest.(check int) "rejected counted" 2 t.Serve.rejected;
  Alcotest.(check int) "no ood" 0 t.Serve.ood;
  Alcotest.(check int) "no rounds" 0 t.Serve.round_count

let test_cache_reuse_across_rounds () =
  let artifact = Lazy.force toy_artifact in
  let cache = Cache.create () in
  let config = { quiet_config with Serve.cache = Some cache } in
  let t =
    Serve.run ~config ~net:toy_net ~artifact
      ~source:(Source.of_bursts [ in_dist; ood_at 1.03; ood_at 1.2 ])
      ()
  in
  Alcotest.(check int) "two rounds" 2 t.Serve.round_count;
  Alcotest.(check int) "two commits" 2 t.Serve.commits;
  match t.Serve.cache_stats with
  | None -> Alcotest.fail "cache stats missing"
  | Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "cache hits on second round (%d hits)" s.Cache.hits)
      true (s.Cache.hits > 0)

(* Kill-free resume continuity: run one round with checkpointing, load
   the saved state in a second run, and check counters, round numbering
   and the monitored box carry over. *)
let test_resume_continues_counters () =
  let artifact = Lazy.force toy_artifact in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "contiver_serve_lib_test"
  in
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir));
  let config =
    { quiet_config with
      Serve.checkpoint_dir = Some dir;
      checkpoint_every = 0. }
  in
  let t1 =
    Serve.run ~config ~net:toy_net ~artifact
      ~source:(Source.of_bursts [ in_dist; ood_at 1.03 ])
      ()
  in
  Alcotest.(check int) "first run: one round" 1 t1.Serve.round_count;
  let fingerprint = Artifacts.fingerprint toy_net in
  let state =
    match Serve.load_state ~dir ~fingerprint with
    | Ok (Some p) -> p
    | Ok None -> Alcotest.fail "no state file"
    | Error e -> Alcotest.fail (Cv_core.Runstate.resume_error_message e)
  in
  Alcotest.(check int) "persisted round" 1
    state.Serve.p_session.Cv_core.Session.round;
  Alcotest.(check int) "persisted consumed" 7 state.Serve.p_consumed;
  Alcotest.(check int) "nothing left pending" 0
    (List.length state.Serve.p_session.Cv_core.Session.pending);
  let config2 = { config with Serve.resume = Some state } in
  let t2 =
    Serve.run ~config:config2 ~net:toy_net ~artifact
      ~source:(Source.of_bursts [ ood_at 1.2 ])
      ()
  in
  Alcotest.(check int) "round numbering continues" 2 t2.Serve.round_count;
  Alcotest.(check int) "commit counter continues" 2 t2.Serve.commits;
  Alcotest.(check int) "seen accumulates" 10 t2.Serve.seen;
  (match t2.Serve.rounds with
  | [ r ] -> Alcotest.(check int) "new round is number 2" 2 r.Serve.number
  | _ -> Alcotest.fail "second run should execute exactly one round");
  Alcotest.(check bool) "box only grows" true
    (Box.subset t1.Serve.box t2.Serve.box);
  List.iter
    (fun p ->
      Alcotest.(check bool) "new events covered" true (Box.mem p t2.Serve.box))
    (ood_at 1.2)

(* A refreshed artifact keeps its abstraction chain only when the last
   box lies inside D_out: Props 1 and 2 rely on that containment. A
   slack far too wide for D_out must leave the committed artifact
   without a chain. *)
let test_refresh_keeps_only_proving_chain () =
  let artifact = Lazy.force toy_artifact in
  let t =
    Serve.run
      ~config:{ quiet_config with Serve.widen = 10. }
      ~net:toy_net ~artifact
      ~source:(Source.of_bursts [ in_dist; ood_at 1.03 ])
      ()
  in
  Alcotest.(check int) "one commit" 1 t.Serve.commits;
  match Artifacts.final_abstraction t.Serve.artifact with
  | None -> ()
  | Some s_n ->
    Alcotest.(check bool) "stored S_n inside D_out" true
      (Box.subset_tol s_n toy_dout)

(* A watched network file rewritten mid-run: a changed fingerprint runs
   exactly one SVbTV round over the pending enlargement, while a rewrite
   with identical bytes under a new mtime runs nothing. *)
let watch_run ~rewrite_with ~ood =
  let artifact = Lazy.force toy_artifact in
  let path = Filename.temp_file "contiver_serve_watch" ".json" in
  Cv_nn.Serialize.save_network path toy_net;
  let calls = ref 0 in
  let source () =
    incr calls;
    match !calls with
    | 1 -> Source.Burst (in_dist @ ood)
    | 2 ->
      Cv_nn.Serialize.save_network path rewrite_with;
      let mtime = (Unix.stat path).Unix.st_mtime +. 10. in
      Unix.utimes path mtime mtime;
      Source.Burst [ [| 0.; 0. |] ]
    | _ -> Source.Eof
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serve.run
        ~config:{ quiet_config with Serve.watch = Some path }
        ~net:toy_net ~artifact ~source ())

let test_watch_file_svbtv_round () =
  let tuned =
    Cv_nn.Network.map_layers
      (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create 21) ~sigma:0.001)
      toy_net
  in
  (* Two OOD events: below the trigger, so only the watch fires. *)
  let ood = List.filteri (fun i _ -> i < 2) (ood_at 1.03) in
  let t = watch_run ~rewrite_with:tuned ~ood in
  let round =
    match t.Serve.rounds with
    | [ r ] -> r
    | rs -> Alcotest.failf "expected one round, got %d" (List.length rs)
  in
  Alcotest.(check bool) "svbtv round" true (round.Serve.kind = Serve.Svbtv);
  Alcotest.check batch_verdict "fine-tune proved" Batch.Safe
    round.Serve.verdict;
  Alcotest.(check bool) "committed exactly on safe" true
    (round.Serve.committed = (round.Serve.verdict = Batch.Safe));
  Alcotest.(check string) "new network installed"
    (Artifacts.fingerprint tuned)
    (Artifacts.fingerprint t.Serve.net);
  Alcotest.(check bool) "artifact is for the new network" true
    (Artifacts.matches t.Serve.artifact tuned);
  List.iter
    (fun p ->
      Alcotest.(check bool) "box committed with the network" true
        (Box.mem p t.Serve.box))
    ood;
  Alcotest.(check int) "nothing pending" 0 t.Serve.pending;
  let same = watch_run ~rewrite_with:toy_net ~ood:[] in
  Alcotest.(check int) "identical bytes: no round" 0 same.Serve.round_count;
  Alcotest.(check string) "network unchanged"
    (Artifacts.fingerprint toy_net)
    (Artifacts.fingerprint same.Serve.net)

(* ------------------------------------------------------------------ *)
(* Through the binary                                                  *)

let exe =
  List.find_opt Sys.file_exists
    [ "../bin/contiver.exe"; "_build/default/bin/contiver.exe";
      "bin/contiver.exe" ]
  |> Option.value ~default:"../bin/contiver.exe"

let tmp_dir =
  Filename.concat (Filename.get_temp_dir_name ()) "contiver_serve_cli_test"

let run args =
  Sys.command (Filename.quote_command exe args ^ " > /dev/null 2>&1")

let run_out ?stdin_file args =
  let out = Filename.temp_file "contiver_serve" ".out" in
  let redirect_in =
    match stdin_file with
    | None -> ""
    | Some f -> " < " ^ Filename.quote f
  in
  let cmd =
    Filename.quote_command exe args
    ^ redirect_in ^ " > " ^ Filename.quote out ^ " 2> /dev/null"
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* Every status line must parse as a [contiver-serve-status-v1] record;
   returns the last (final) one. *)
let final_status text =
  let records =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
           let j = Json.parse l in
           Alcotest.(check string)
             "status schema" "contiver-serve-status-v1"
             (Json.to_str (Json.member "schema" j));
           j)
  in
  match List.rev records with
  | last :: _ ->
    Alcotest.(check bool) "final record flagged" true
      (Json.to_bool (Json.member "final" last));
    last
  | [] -> Alcotest.fail "no status records on stdout"

let events_field status name =
  Json.to_int (Json.member name (Json.member "events" status))

(* Feed a hand-written NDJSON stream to [contiver serve] over stdin and
   check the final status record reports the committed round. *)
let test_cli_stdin_round () =
  ignore (Sys.command ("rm -rf " ^ Filename.quote tmp_dir));
  let path f = Filename.concat tmp_dir f in
  Alcotest.(check int) "generate" 0
    (run [ "generate"; "--out"; tmp_dir; "--seed"; "7" ]);
  Alcotest.(check int) "verify" 0
    (run
       [ "verify"; "--model"; path "head1.json"; "--property";
         path "property.json"; "--artifact"; path "proof.json" ]);
  (* din.json is the monitored box: a JSON list of [lo, hi] pairs. *)
  let din =
    let ic = open_in (path "din.json") in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Json.parse text |> Json.to_list
    |> List.map (fun pair ->
           match Json.to_list pair with
           | [ lo; hi ] -> (Json.to_float lo, Json.to_float hi)
           | _ -> Alcotest.fail "din.json entry is not a pair")
  in
  let mid = List.map (fun (lo, hi) -> 0.5 *. (lo +. hi)) din in
  let hi0 = match din with (_, hi) :: _ -> hi | [] -> Alcotest.fail "empty din" in
  let vec_line v = Json.to_string (Json.of_float_array (Array.of_list v)) in
  let ood_line k =
    let v =
      (hi0 +. 0.01 +. (0.002 *. float_of_int k)) :: List.tl mid
    in
    Json.to_string
      (Json.Obj [ ("features", Json.of_float_array (Array.of_list v)) ])
  in
  (* A vector of the wrong length is rejected, not fatal. *)
  let lines =
    List.init 4 (fun _ -> vec_line mid) @ [ vec_line [ 1.; 2. ] ]
    @ List.init 3 ood_line
  in
  write_file (path "events.ndjson") (String.concat "\n" lines ^ "\n");
  let code, text =
    run_out ~stdin_file:(path "events.ndjson")
      [ "serve"; "--model"; path "head1.json"; "--artifact";
        path "proof.json"; "--no-watch" ]
  in
  Alcotest.(check int) "serve exits 0" 0 code;
  let status = final_status text in
  Alcotest.(check int) "one round" 1
    (Json.to_int (Json.member "rounds" status));
  Alcotest.(check int) "one commit" 1
    (Json.to_int (Json.member "commits" status));
  Alcotest.(check int) "saw all frames" 8 (events_field status "seen");
  Alcotest.(check int) "three ood" 3 (events_field status "ood");
  Alcotest.(check int) "wrong length rejected" 1
    (events_field status "rejected");
  Alcotest.(check string) "stopped at eof" "eof"
    (Json.to_str (Json.member "stop" status))

(* SIGKILL the daemon mid-loop and resume from its checkpoint: the
   resumed run must reach the same final status as an uninterrupted
   reference run, replaying the finished round from its done-file. *)
let test_cli_kill_and_resume () =
  let drive_args =
    [ "serve"; "--drive"; "--rounds"; "2"; "--drive-steps"; "400";
      "--drive-seed"; "123" ]
  in
  let code, text = run_out drive_args in
  Alcotest.(check int) "reference run exits 0" 0 code;
  let reference = final_status text in
  Alcotest.(check int) "reference rounds" 2
    (Json.to_int (Json.member "rounds" reference));
  (* Same run, checkpointed at every tick; kill it once the first
     round's done-file has landed. *)
  let dir = Filename.concat tmp_dir "serve_ck" in
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir));
  let ck_args =
    drive_args @ [ "--checkpoint-dir"; dir; "--checkpoint-every"; "0" ]
  in
  let done_file = Filename.concat dir "round-0001-svudc.done.json" in
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: ck_args))
      Unix.stdin dev_null dev_null
  in
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait_for_done_file () =
    if Sys.file_exists done_file then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      (* The toy rounds are fast; the run may legitimately finish before
         we get to kill it — resume must still reproduce the result. *)
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        Unix.sleepf 0.005;
        wait_for_done_file ()
      | _ -> true
    end
  in
  let landed = wait_for_done_file () in
  Unix.close dev_null;
  Alcotest.(check bool) "first round done-file observed" true landed;
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  let code, text =
    run_out (ck_args @ [ "--resume-checkpoint" ])
  in
  Alcotest.(check int) "resumed run exits 0" 0 code;
  let resumed = final_status text in
  List.iter
    (fun field ->
      Alcotest.(check int)
        ("resumed " ^ field ^ " matches reference")
        (Json.to_int (Json.member field reference))
        (Json.to_int (Json.member field resumed)))
    [ "rounds"; "commits" ];
  List.iter
    (fun field ->
      Alcotest.(check int)
        ("resumed events." ^ field ^ " matches reference")
        (events_field reference field)
        (events_field resumed field))
    [ "seen"; "ood"; "pending"; "rejected" ];
  Alcotest.(check (float 1e-9)) "same committed box width"
    (Json.to_float (Json.member "box_width" reference))
    (Json.to_float (Json.member "box_width" resumed));
  Alcotest.(check string) "same stop reason"
    (Json.to_str (Json.member "stop" reference))
    (Json.to_str (Json.member "stop" resumed))

let () =
  Alcotest.run "cv_serve"
    [ ( "queue",
        [ Alcotest.test_case "fifo and drop accounting" `Quick
            test_queue_fifo_and_drop;
          Alcotest.test_case "bad capacity rejected" `Quick
            test_queue_rejects_bad_capacity;
          Alcotest.test_case "scripted source" `Quick test_source_of_bursts ] );
      ( "loop",
        [ Alcotest.test_case "round matches one-shot oracle" `Quick
            test_round_matches_oracle;
          Alcotest.test_case "backpressure accounting" `Quick
            test_backpressure_accounting;
          Alcotest.test_case "non-finite rejected" `Quick
            test_rejects_non_finite;
          Alcotest.test_case "cache reuse across rounds" `Quick
            test_cache_reuse_across_rounds;
          Alcotest.test_case "resume continues counters" `Quick
            test_resume_continues_counters;
          Alcotest.test_case "watch-file svbtv round" `Quick
            test_watch_file_svbtv_round;
          Alcotest.test_case "refresh keeps only a proving chain" `Quick
            test_refresh_keeps_only_proving_chain ] );
      ( "cli",
        [ Alcotest.test_case "stdin ndjson round" `Quick test_cli_stdin_round;
          Alcotest.test_case "kill and resume" `Quick test_cli_kill_and_resume ] )
    ]
