(* batch-wide: K seeded random 32x256x256x256x1 ReLU nets with M
   chain-provable properties each (D_out = symbolic-interval reach
   widened by distinct margins), run as one Batch.run with a fresh
   artifact cache, two workers, and jobs of different nets interleaved.
   The K misses build symint chains (domains + linalg kernels); the
   K*(M-1) hits exercise the cache and the scheduler; LP/MILP idle. *)

let run (t : Util.t) =
  let k_nets, m_props, dims =
    if t.small then (2, 4, [ 8; 32; 32; 1 ]) else (4, 16, [ 32; 256; 256; 256; 1 ])
  in
  let din = Cv_interval.Box.uniform (List.hd dims) ~lo:(-1.) ~hi:1. in
  let nets, jobs =
    Util.setup t (fun () ->
        let nets =
          Array.init k_nets (fun k ->
              Cv_nn.Network.random
                ~rng:(Cv_util.Rng.create (Util.subseed t k))
                ~dims ~act:Cv_nn.Activation.Relu ())
        in
        (* The chain's last box is exactly what a cached abstract attempt
           compares against D_out. *)
        let reach =
          Array.map
            (fun net ->
              let chain =
                Cv_domains.Analyzer.abstractions Cv_domains.Analyzer.Symint net din
              in
              chain.(Array.length chain - 1))
            nets
        in
        let jobs =
          List.concat
            (List.init m_props (fun m ->
                 List.init k_nets (fun k ->
                     let dout =
                       Cv_interval.Box.expand (0.05 +. (0.01 *. float_of_int m)) reach.(k)
                     in
                     { Cv_core.Batch.id = Printf.sprintf "n%dq%d" k m;
                       spec =
                         Cv_core.Batch.Verify
                           { net = nets.(k);
                             prop = Cv_verify.Property.make ~din ~dout;
                             exact = false;
                             artifact_out = None };
                       timeout = None })))
        in
        (nets, jobs))
  in
  t.chain_flops <- Util.symint_flops nets.(0);
  let workers = 2 and job_seconds = ref [] in
  let batch ~measured i =
    let cache = Cv_artifacts.Cache.create () in
    let config =
      { Cv_core.Batch.default_config with
        Cv_core.Batch.jobs = workers;
        job_timeout = Some 30.;
        cache = Some cache }
    in
    let r, s =
      Util.op t ~measured ~layer:"core.batch" ~id:(Printf.sprintf "batch-%d" i)
        (fun () -> Cv_core.Batch.run ~config jobs)
    in
    t.latencies <- s :: t.latencies;
    let safe = ref 0 in
    List.iter
      (fun (j : Cv_core.Batch.job_result) ->
        let ok = j.Cv_core.Batch.verdict = Cv_core.Batch.Safe in
        if ok then incr safe;
        Util.expect t ok
          (Printf.sprintf "batch-wide: job %s is %s" j.Cv_core.Batch.job_id
             (Cv_core.Batch.verdict_name j.Cv_core.Batch.verdict));
        job_seconds := Util.norm t j.Cv_core.Batch.seconds :: !job_seconds)
      r.Cv_core.Batch.results;
    Util.rate t !safe (Util.norm t r.Cv_core.Batch.wall_seconds);
    let s = Cv_artifacts.Cache.stats cache in
    Util.expect t
      (s.Cv_artifacts.Cache.misses = k_nets
      && s.Cv_artifacts.Cache.hits = k_nets * (m_props - 1))
      (Printf.sprintf "batch-wide: %d hits / %d misses, expected %d / %d"
         s.Cv_artifacts.Cache.hits s.Cv_artifacts.Cache.misses
         (k_nets * (m_props - 1)) k_nets);
    Util.count t "batch.hits" (string_of_int s.Cv_artifacts.Cache.hits);
    Util.count t "batch.misses" (string_of_int s.Cv_artifacts.Cache.misses);
    if measured then begin
      Util.add_cache t s;
      Util.add t "raw:batch.busy_s"
        (Util.sum
           (List.map
              (fun (j : Cv_core.Batch.job_result) -> j.Cv_core.Batch.seconds)
              r.Cv_core.Batch.results));
      Util.add t "raw:batch.capacity_s"
        (r.Cv_core.Batch.wall_seconds *. float_of_int workers)
    end
  in
  (* The operation is one whole Batch.run: a job's latency depends on how
     the two workers happened to interleave, a batch's much less. Ten
     batches give the job p90 several hundred samples. *)
  let min_batches = if t.small then 1 else 10 in
  Util.measure t ~min_ops:min_batches ~fixed:min_batches
    ~reset:(fun () -> job_seconds := [])
    batch;
  Util.named t "batch_qps" (Util.throughput t) "jobs/s";
  Util.named t "batch_job_p90_s" (Util.quantile 0.9 !job_seconds) "s";
  if t.traced then begin
    Util.set t "batch.worker_util"
      (Util.ratio (Util.raw t "batch.busy_s") (Util.raw t "batch.capacity_s"));
    Util.set t "domains.chain_s"
      (Util.traced_section t (fun () ->
           Util.probe t ~layer:"domains" ~id:"chain" (fun () ->
               Util.batched ~reps:5 (fun () ->
                   Cv_domains.Analyzer.abstractions Cv_domains.Analyzer.Symint nets.(0)
                     din))))
  end
