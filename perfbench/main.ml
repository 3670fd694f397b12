(* perfbench entry point:
     main.exe --workload NAME --seed N --seconds S --trace 0|1
   runs one workload in this process and prints its report, ending with
   the one-line JSON result; exits 1 when any verdict check failed.
   [--list] prints the workloads and both metric lists. Usually started
   through perfbench/run.py, which builds it first. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let list = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S closed-loop measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--list", Arg.Set list, " print workloads and metric names") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !list then begin
    List.iter (fun (w, _) -> Printf.printf "workload %s\n" w) Perfbench.Bench.workloads;
    List.iter (fun (k, u) -> Printf.printf "end_to_end %s %s\n" k u) Perfbench.Bench.end_to_end;
    List.iter (fun (k, u) -> Printf.printf "per_layer %s %s\n" k u) Perfbench.Bench.per_layer;
    exit 0
  end;
  if not (List.mem_assoc !workload Perfbench.Bench.workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let tmp = Filename.concat "_perfbench" (string_of_int (Unix.getpid ())) in
  Perfbench.Util.mkdir_p tmp;
  let t =
    Perfbench.Bench.run ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~traced:(!trace = 1) ~small:false ~tmp
  in
  Perfbench.Bench.report t;
  if Sys.readdir tmp = [||] then Sys.rmdir tmp;
  exit (if t.Perfbench.Util.failed = 0 then 0 else 1)
