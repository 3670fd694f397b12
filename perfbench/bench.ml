(* Workload dispatch and the report: a human-readable block with every
   figure by name and unit, then the one-line JSON result. *)

let workloads =
  [ ("table1", Table1.run);
    ("batch-wide", Batch_wide.run);
    ("serve-drive", Serve_drive.run);
    ("certify", Certify.run) ]

(* End-to-end metrics (untraced runs), the same four for every workload:
   the closed-loop operation is an incremental solve (table1), one
   Batch.run (batch-wide), one Serve.run session (serve-drive) or one
   certificate emitted and checked (certify). *)
let end_to_end =
  [ ("setup_s", "s"); ("op_p50_ms", "ms"); ("op_p90_ms", "ms");
    ("throughput", "1/s") ]

let routes =
  [ "trivial"; "prop3"; "prop1"; "prop2"; "delta-cover"; "full"; "prop6";
    "prop6-interval"; "leaf-reuse"; "fixer"; "prop-diff"; "prop5";
    "abstract-symint" ]

(* Per-layer metrics (traced runs), the same list for every workload;
   a layer a workload does not load reads 0 there. *)
let per_layer =
  [ ("lp.pivots", "count"); ("lp.solves", "count");
    ("lp.warmstart.hit_ratio", "ratio"); ("lp.dual_s", "s");
    ("lp.cert_s", "s"); ("lp.cold_s", "s");
    ("milp.nodes", "count"); ("milp.fathom_ratio", "ratio"); ("milp.s", "s");
    ("verify.exact_range_s", "s"); ("verify.checks", "count");
    ("verify.falsify.hit_ratio", "ratio");
    ("lipschitz.global_s", "s") ]
  @ List.concat_map
      (fun r -> [ ("route." ^ r ^ ".wall_s", "s"); ("route." ^ r ^ ".decided", "count") ])
      routes
  @ [ ("core.attempts_per_decision", "ratio") ]
  @ List.concat_map
      (fun i ->
        let l = Printf.sprintf "layer%d." i in
        [ (l ^ "abs_width", "width"); (l ^ "exact_width", "width"); (l ^ "local_s", "s") ])
      [ 1; 2; 3; 4 ]
  @ [ ("domains.symint.calls", "count"); ("domains.symint.seconds", "s");
      ("domains.chain_s", "s");
      ("kernel.gemm_s", "s"); ("kernel.gemv_s", "s"); ("kernel.posneg_s", "s");
      ("kernel.bytes_alloc", "B"); ("kernel.flops", "flop");
      ("kernel.gflops", "GFLOP/s");
      ("cache.hits", "count"); ("cache.misses", "count");
      ("cache.evictions", "count"); ("cache.hit_ratio", "ratio");
      ("checkpoint.saves", "count"); ("checkpoint.bytes", "B");
      ("batch.worker_util", "ratio"); ("batch.crashed", "count");
      ("serve.events.seen", "count"); ("serve.events.ood", "count");
      ("serve.events.dropped", "count"); ("serve.rounds", "count");
      ("serve.commit_ratio", "ratio"); ("serve.ingest_s", "s");
      ("monitor.observe_s", "s");
      ("cert.emit.chain_s", "s"); ("cert.emit.split_s", "s");
      ("cert.emit.milp_s", "s"); ("cert.check.chain_s", "s");
      ("cert.check.split_s", "s"); ("cert.check.milp_s", "s");
      ("cert.bytes", "B"); ("cert.split_leaves", "count");
      ("gc.minor", "count"); ("gc.major", "count"); ("gc.allocated_mb", "MB");
      ("supervisor.retries", "count"); ("peak_heap_mb", "MB");
      ("trace.spans", "count"); ("trace.overhead_ms", "ms");
      ("machine.speed", "ratio");
      (* The workloads' own end-to-end figures, as measured in the traced
         run; a workload reports 0 for another's. *)
      ("original_p50_s", "s"); ("svudc_p50_s", "s"); ("svudc_p90_s", "s");
      ("svbtv_p50_s", "s"); ("svbtv_p90_s", "s"); ("batch_qps", "jobs/s");
      ("batch_job_p90_s", "s"); ("serve_round_p50_s", "s");
      ("serve_round_p90_s", "s"); ("serve_frames_per_s", "frames/s");
      ("cert_emit_p50_s", "s"); ("cert_check_p50_s", "s");
      ("failed_frac", "ratio") ]

(* The worked example of the paper's Figure 2: the exact maximum of n4
   over the enlarged domain is 6.2. *)
let fig2_sanity (t : Util.t) =
  let net =
    Cv_nn.Network.of_list
      [ Cv_nn.Layer.make
          (Cv_linalg.Mat.of_rows [ [| 1.; -2. |]; [| -2.; 1. |]; [| 1.; -1. |] ])
          [| 0.; 0.; 0. |] Cv_nn.Activation.Relu;
        Cv_nn.Layer.make
          (Cv_linalg.Mat.of_rows [ [| 2.; 2.; -1. |] ])
          [| 0. |] Cv_nn.Activation.Relu ]
  in
  let enc =
    Cv_milp.Relu_encoding.encode ~net
      ~input_box:(Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.1)
  in
  let ok =
    match Cv_milp.Relu_encoding.max_output enc ~output:0 with
    | Cv_milp.Milp.Optimal s -> Float.abs (s.Cv_milp.Milp.objective -. 6.2) < 1e-6
    | _ -> false
  in
  Util.expect t ok "fig2: exact max of n4 is not 6.2"

let run ~workload ~seed ~seconds ~traced ~small ~tmp =
  match List.assoc_opt workload workloads with
  | None -> invalid_arg ("unknown workload " ^ workload)
  | Some f ->
    let t = Util.create ~workload ~seed ~seconds ~traced ~small ~tmp in
    Util.warm_up t;
    fig2_sanity t;
    f t;
    t

(* Fill the metric set this run reports: the end-to-end list untraced,
   the per-layer list traced. *)
let metrics (t : Util.t) =
  let ms x = 1000. *. x in
  if not t.Util.traced then
    [ ("setup_s", Util.setup_s t); ("op_p50_ms", ms (Util.op_p50 t));
      ("op_p90_ms", ms (Util.quantile 0.9 t.Util.latencies));
      ("throughput", Util.throughput t) ]
  else begin
    Util.derive t;
    Util.set t "trace.overhead_ms"
      (ms (Util.median t.Util.latencies -. Util.median t.Util.reference));
    List.iter (fun (k, v, _) -> Util.set t k v) t.Util.named;
    Util.set t "machine.speed" (Util.machine_speed t);
    Util.set t "peak_heap_mb"
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.);
    Util.set t "failed_frac"
      (Util.ratio (float_of_int t.Util.failed) (float_of_int t.Util.attempted));
    List.map (fun (k, _) -> (k, Util.get t k)) per_layer
  end

let fingerprint () =
  let env k = Option.value ~default:"" (Sys.getenv_opt k) in
  Printf.sprintf "nproc=%d ocaml=%s OCAMLRUNPARAM=%s source=%s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (env "OCAMLRUNPARAM") (env "PERFBENCH_SOURCE")

let report (t : Util.t) =
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n" t.Util.workload
    t.Util.seed t.Util.seconds
    (if t.Util.traced then 1 else 0);
  Printf.printf "machine: %s\n" (fingerprint ());
  if t.Util.traced then Printf.printf "spans written to %s\n" (Util.finish_trace t);
  let units = end_to_end @ per_layer in
  let metrics = metrics t in
  let failed_frac =
    Util.ratio (float_of_int t.Util.failed) (float_of_int t.Util.attempted)
  in
  Printf.printf "%-28s %14s  %s\n" "metric" "value" "unit";
  List.iter
    (fun (k, v, u) -> Printf.printf "%-28s %14.6g  %s\n" k v u)
    (List.rev t.Util.named
    @ [ ("failed_frac", failed_frac, "ratio");
        ("samples", float_of_int (List.length t.Util.latencies), "count");
        ("machine.speed", Util.machine_speed t, "ratio") ]);
  List.iter
    (fun (k, v) ->
      if v <> 0. || not t.Util.traced then
        Printf.printf "%-28s %14.6g  %s\n" k v (List.assoc k units))
    metrics;
  List.iter
    (fun (k, v) -> Printf.printf "%-28s %s\n" k v)
    (List.sort compare t.Util.counts);
  Hashtbl.iter
    (fun k v ->
      if String.starts_with ~prefix:"self:" k then
        Printf.printf "%-28s %14.6g  s\n" ("self time " ^ String.sub k 5 (String.length k - 5)) v)
    t.Util.layers;
  List.iter (Printf.printf "FAILED: %s\n") (List.rev t.Util.failures);
  let open Cv_util.Json in
  let result =
    Obj
      [ ("correct", Bool (t.Util.failed = 0));
        ("attempted", of_int t.Util.attempted);
        ("failed", of_int t.Util.failed);
        ( "metrics",
          Obj
            (List.map
               (fun (k, v) ->
                 (k, Obj [ ("value", Num v); ("unit", Str (List.assoc k units)) ]))
               metrics) ) ]
  in
  print_endline (to_string result)
