(* Benchmark self-test: every workload at its small size, traced (so
   the operation count is fixed), twice with the same seed. The two runs
   must give identical verdicts and identical counts: pivots, nodes,
   cache hits and misses, decisive routes, serve rounds and commits,
   certificate bytes. *)

let counters =
  [ "lp.pivots"; "milp.nodes"; "cache.hits"; "cache.misses";
    "serve.rounds"; "cert.bytes"; "cert.split_leaves"; "verify.checks" ]
  @ List.map (fun r -> "route." ^ r ^ ".decided") Perfbench.Bench.routes

let digest (t : Perfbench.Util.t) =
  List.sort compare t.Perfbench.Util.counts
  @ List.map
      (fun k -> (k, Printf.sprintf "%.17g" (Perfbench.Util.get t k)))
      counters
  @ [ ("attempted", string_of_int t.Perfbench.Util.attempted);
      ("failures", String.concat "; " t.Perfbench.Util.failures) ]

let run workload =
  let tmp = "selftest-" ^ workload in
  Perfbench.Util.mkdir_p tmp;
  let t =
    Perfbench.Bench.run ~workload ~seed:3 ~seconds:0. ~traced:true ~small:true
      ~tmp
  in
  ignore (Perfbench.Util.finish_trace t);
  ignore (Perfbench.Bench.metrics t);
  Perfbench.Util.rm_rf tmp;
  t

let () =
  let failures = ref 0 in
  List.iter
    (fun (workload, _) ->
      let a = run workload in
      let b = run workload in
      let da = digest a and db = digest b in
      List.iter2
        (fun (k, va) (_, vb) ->
          if va <> vb then begin
            incr failures;
            Printf.printf "%s: %s differs: %s vs %s\n" workload k va vb
          end)
        da db;
      if a.Perfbench.Util.failed > 0 then begin
        incr failures;
        List.iter (Printf.printf "%s: %s\n" workload) a.Perfbench.Util.failures
      end;
      Printf.printf "%s: %d checks, %d counts compared\n" workload
        a.Perfbench.Util.attempted (List.length da))
    Perfbench.Bench.workloads;
  if !failures > 0 then exit 1
