(* serve-drive: Serve.run on head 0 from the artifact of
   Strategy.solve_original, fed by a seeded vehicle stream whose
   brightness ramps, so OOD frames keep arriving and rounds keep
   firing. The artifact cache is on and every session checkpoints into a
   fresh directory. The only workload that exercises the monitor, the
   serve queue and debounce, Runstate's atomic writes and the artifact
   refresh. *)

let ramp = 5e-4

let run (t : Util.t) =
  let frames = 300 in
  let exp, artifact =
    Util.setup t (fun () ->
        let exp = Cv_vehicle.Pipeline.build ~config:(Util.pipeline t) () in
        let o =
          Cv_core.Strategy.solve_original exp.Cv_vehicle.Pipeline.heads.(0)
            (Cv_vehicle.Pipeline.property exp)
        in
        Util.expect t o.Cv_core.Strategy.proved "serve-drive: original not proved";
        (exp, o.Cv_core.Strategy.artifact))
  in
  let head = exp.Cv_vehicle.Pipeline.heads.(0) in
  let din = exp.Cv_vehicle.Pipeline.din in
  t.chain_flops <- Util.symint_flops head;
  let wall = ref 0. and rounds = ref [] and observed = ref [] in
  let session ~measured j =
    let stream =
      Cv_vehicle.Stream.create ~ramp
        ~rng:(Cv_util.Rng.create (Util.subseed t j))
        ~track:exp.Cv_vehicle.Pipeline.track
        ~perception:exp.Cv_vehicle.Pipeline.perception ~steps:frames ()
    in
    (* Keep the frames the service pulls, to check the final box. *)
    let seen = ref [] in
    let inner = Cv_serve.Source.of_stream stream in
    let source () =
      match inner () with
      | Cv_serve.Source.Burst xs as p ->
        seen := List.rev_append xs !seen;
        p
      | p -> p
    in
    let dir = Filename.concat t.tmp (Printf.sprintf "serve-%d" j) in
    Util.rm_rf dir;
    let cache = Cv_artifacts.Cache.create () in
    let config =
      { Cv_serve.Serve.default_config with
        Cv_serve.Serve.cache = Some cache;
        checkpoint_dir = Some dir }
    in
    let r, s =
      Util.op t ~measured ~layer:"serve" ~id:(Printf.sprintf "session-%d" j)
        (fun () -> Cv_serve.Serve.run ~config ~net:head ~artifact ~source ())
    in
    wall := !wall +. s;
    t.latencies <- s :: t.latencies;
    Util.rate t r.Cv_serve.Serve.consumed s;
    List.iter
      (fun (rd : Cv_serve.Serve.round) ->
        rounds := Util.norm t rd.Cv_serve.Serve.seconds :: !rounds;
        Util.expect t
          (rd.Cv_serve.Serve.committed
          && rd.Cv_serve.Serve.verdict = Cv_core.Batch.Safe)
          (Printf.sprintf "serve-drive: session %d round %d is %s, not committed" j
             rd.Cv_serve.Serve.number
             (Cv_core.Batch.verdict_name rd.Cv_serve.Serve.verdict)))
      r.Cv_serve.Serve.rounds;
    (* Replaying the same frames into a fresh monitor over D_in flags
       every OOD frame; the final committed box must hold each one. *)
    let frames_seen = Array.of_list (List.rev !seen) in
    let monitor = Cv_monitor.Monitor.of_box din in
    let missing = ref 0 in
    Array.iter
      (fun x ->
        match Cv_monitor.Monitor.observe monitor x with
        | Some _ when not (Cv_interval.Box.mem_tol x r.Cv_serve.Serve.box) -> incr missing
        | _ -> ())
      frames_seen;
    Util.expect t (!missing = 0)
      (Printf.sprintf "serve-drive: session %d final box misses %d OOD frames" j
         !missing);
    if measured then begin
      Util.add_cache t (Cv_artifacts.Cache.stats cache);
      Util.add t "raw:checkpoint.bytes" (float_of_int (Util.du dir));
      Util.add t "raw:serve.sessions" 1.;
      observed := frames_seen :: !observed
    end;
    if j = 0 then begin
      Util.count t "serve.rounds" (string_of_int r.Cv_serve.Serve.round_count);
      Util.count t "serve.commits" (string_of_int r.Cv_serve.Serve.commits);
      Util.count t "serve.consumed" (string_of_int r.Cv_serve.Serve.consumed);
      Util.count t "serve.box" (Cv_interval.Box.to_string r.Cv_serve.Serve.box)
    end;
    Util.rm_rf dir
  in
  (* 100 sessions give the session p90 ten samples beyond it, and the
     round p90 several hundred. *)
  let min_sessions = if t.small then 1 else 100 in
  Util.measure t ~min_ops:min_sessions ~fixed:min_sessions
    ~reset:(fun () -> wall := 0.; rounds := [])
    session;
  Util.named t "serve_round_p50_s" (Util.median !rounds) "s";
  Util.named t "serve_round_p90_s" (Util.quantile 0.9 !rounds) "s";
  Util.named t "serve_frames_per_s" (Util.throughput t) "frames/s";
  if t.traced then begin
    Util.set t "checkpoint.bytes"
      (Util.ratio (Util.raw t "checkpoint.bytes") (Util.raw t "serve.sessions"));
    Util.set t "serve.ingest_s" (!wall -. Util.sum !rounds);
    (* Monitor.observe takes about a microsecond: time every replayed
       frame as one region and divide. *)
    let all = Array.concat !observed in
    Util.set t "monitor.observe_s"
      (Util.traced_section t (fun () ->
           Util.probe t ~layer:"monitor" ~id:"observe" (fun () ->
               let m = Cv_monitor.Monitor.of_box din in
               let t0 = Util.now () in
               Array.iter (fun x -> ignore (Cv_monitor.Monitor.observe m x)) all;
               (Util.now () -. t0) /. float_of_int (max 1 (Array.length all)))))
  end
