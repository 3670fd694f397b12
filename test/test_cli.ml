(* End-to-end smoke tests of the contiver CLI binary: generate →
   describe → verify → svudc → svbtv → diff, driving the executable the
   way a user would. *)

(* Under `dune runtest` the cwd is _build/default/test; under
   `dune exec` it is the workspace root. *)
let exe =
  List.find_opt Sys.file_exists
    [ "../bin/contiver.exe"; "_build/default/bin/contiver.exe";
      "bin/contiver.exe" ]
  |> Option.value ~default:"../bin/contiver.exe"

let tmp_dir = Filename.concat (Filename.get_temp_dir_name ()) "contiver_cli_test"

let run args =
  let cmd = Filename.quote_command exe args ^ " > /dev/null 2>&1" in
  Sys.command cmd

(* Run and capture stdout (plus stderr when [with_stderr], where
   --stats prints), for asserting on the verdict line. *)
let run_out ?(with_stderr = false) args =
  let out = Filename.temp_file "contiver_cli" ".out" in
  let cmd =
    Filename.quote_command exe args
    ^ " > " ^ Filename.quote out
    ^ if with_stderr then " 2>&1" else " 2> /dev/null"
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let verdict_line text =
  String.split_on_char '\n' text
  |> List.find_opt (fun l -> String.length l > 8 && String.sub l 0 8 = "verdict:")
  |> Option.value ~default:"<no verdict line>"

let check_run ?(expect = 0) name args =
  Alcotest.(check int) name expect (run args)

let test_help () =
  check_run "--help" [ "--help" ];
  check_run "svudc --help" [ "svudc"; "--help" ]

let test_unknown_command () =
  Alcotest.(check bool) "nonzero exit" true (run [ "frobnicate" ] <> 0)

let test_generate_and_describe () =
  ignore (Sys.command ("rm -rf " ^ Filename.quote tmp_dir));
  check_run "generate" [ "generate"; "--out"; tmp_dir; "--seed"; "7" ];
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " exists") true
        (Sys.file_exists (Filename.concat tmp_dir f)))
    [ "head1.json"; "head5.json"; "property.json"; "din.json";
      "enlarged_din.json" ];
  check_run "describe" [ "describe"; "--model"; Filename.concat tmp_dir "head1.json" ]

let test_verify_and_reuse () =
  (* depends on test_generate_and_describe having populated tmp_dir *)
  let path f = Filename.concat tmp_dir f in
  check_run "verify (abstract)"
    [ "verify"; "--model"; path "head1.json"; "--property";
      path "property.json"; "--artifact"; path "proof.json" ];
  Alcotest.(check bool) "artifact written" true (Sys.file_exists (path "proof.json"));
  check_run "svudc"
    [ "svudc"; "--model"; path "head1.json"; "--artifact"; path "proof.json";
      "--new-din"; path "enlarged_din.json" ];
  check_run "svbtv"
    [ "svbtv"; "--old"; path "head1.json"; "--new"; path "head2.json";
      "--artifact"; path "proof.json"; "--new-din"; path "enlarged_din.json" ];
  check_run "diff"
    [ "diff"; "--old"; path "head1.json"; "--new"; path "head2.json";
      "--din"; path "din.json" ];
  check_run "suspects"
    [ "suspects"; "--model"; path "head1.json"; "--property";
      path "property.json" ];
  check_run "export-nnet"
    [ "export-nnet"; "--model"; path "head1.json"; "--din"; path "din.json";
      "--out"; path "head1.nnet" ];
  Alcotest.(check bool) "nnet written" true (Sys.file_exists (path "head1.nnet"));
  check_run "import-nnet"
    [ "import-nnet"; "--nnet"; path "head1.nnet"; "--out";
      path "head1_roundtrip.json" ];
  Alcotest.(check bool) "model written" true
    (Sys.file_exists (path "head1_roundtrip.json"))

let test_verify_rejects_missing_file () =
  Alcotest.(check bool) "missing model rejected" true
    (run [ "describe"; "--model"; "/nonexistent.json" ] <> 0)

(* The tentpole's end-to-end claim: SIGKILL a checkpointing exact run
   mid-search, resume from the snapshot, and get the identical
   verdict. *)
let test_kill_and_resume () =
  let path f = Filename.concat tmp_dir f in
  let verify_args artifact extra =
    [ "verify"; "--exact"; "--model"; path "head1.json"; "--property";
      path "property.json"; "--artifact"; path artifact ]
    @ extra
  in
  let code, text = run_out (verify_args "proof_exact.json" []) in
  Alcotest.(check int) "exact baseline exits 0" 0 code;
  let baseline = verdict_line text in
  Alcotest.(check bool) "baseline verdict found" true
    (baseline <> "<no verdict line>");
  (* Launch the same run with tight-cadence checkpointing, wait for the
     first snapshot to land, then SIGKILL it mid-search. *)
  let ck = path "ck.json" in
  if Sys.file_exists ck then Sys.remove ck;
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv =
    Array.of_list
      (exe
      :: verify_args "proof_killed.json"
           [ "--checkpoint"; ck; "--checkpoint-every"; "0.02" ])
  in
  let pid = Unix.create_process exe argv Unix.stdin dev_null dev_null in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait_for_checkpoint () =
    if Sys.file_exists ck then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      (* Bail out early if the run finished before checkpointing. *)
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        Unix.sleepf 0.01;
        wait_for_checkpoint ()
      | _ -> Sys.file_exists ck
    end
  in
  let saw_checkpoint = wait_for_checkpoint () in
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  Unix.close dev_null;
  Alcotest.(check bool) "checkpoint written before the kill" true
    saw_checkpoint;
  (* Resume from the snapshot: identical verdict, exit 0. *)
  let code, text =
    run_out (verify_args "proof_resumed.json" [ "--resume-checkpoint"; ck ])
  in
  Alcotest.(check int) "resumed run exits 0" 0 code;
  Alcotest.(check string) "resumed verdict identical" baseline
    (verdict_line text);
  Alcotest.(check bool) "resumed run writes the proof artifact" true
    (Sys.file_exists (path "proof_resumed.json"))

let test_checkpoint_flag_validation () =
  let path f = Filename.concat tmp_dir f in
  (* Checkpointing without --exact is a usage error. *)
  Alcotest.(check bool) "--checkpoint without --exact rejected" true
    (run
       [ "verify"; "--model"; path "head1.json"; "--property";
         path "property.json"; "--artifact"; path "p.json"; "--checkpoint";
         path "ck2.json" ]
    <> 0);
  (* A verify checkpoint cannot resume an svudc run. *)
  Alcotest.(check bool) "wrong-kind resume rejected" true
    (run
       [ "svudc"; "--model"; path "head1.json"; "--artifact";
         path "proof.json"; "--new-din"; path "enlarged_din.json";
         "--resume-checkpoint"; path "ck.json" ]
    <> 0);
  (* A corrupt checkpoint is refused with a typed error, not resumed. *)
  let corrupt = path "ck_corrupt.json" in
  let oc = open_out corrupt in
  output_string oc "{\"format\":\"contiver-checkpoint\",\"version\":2";
  close_out oc;
  Alcotest.(check bool) "corrupt resume rejected" true
    (run
       [ "verify"; "--exact"; "--model"; path "head1.json"; "--property";
         path "property.json"; "--artifact"; path "p.json";
         "--resume-checkpoint"; corrupt ]
    <> 0)

let test_chaos_campaign () =
  check_run "chaos campaign is sound" [ "chaos"; "--seed"; "2"; "--rounds"; "3" ]

(* ------------------------------------------------------------------ *)
(* batch: golden-file check of the consolidated JSON report            *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

(* Timings are the only nondeterministic members of the report: zero the
   numeric value after every "seconds"/"wall_seconds" key, byte-for-byte
   otherwise — so the golden comparison also pins the schema and the
   field order. *)
let normalize_report text =
  let n = String.length text in
  let buf = Buffer.create n in
  let starts k pos =
    pos + String.length k <= n && String.equal (String.sub text pos (String.length k)) k
  in
  let i = ref 0 in
  while !i < n do
    let key =
      List.find_opt (fun k -> starts k !i) [ "\"seconds\":"; "\"wall_seconds\":" ]
    in
    match key with
    | Some k ->
      Buffer.add_string buf k;
      Buffer.add_char buf '0';
      i := !i + String.length k;
      while
        !i < n
        &&
        match text.[!i] with
        | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
        | _ -> false
      do
        incr i
      done
    | None ->
      Buffer.add_char buf text.[!i];
      incr i
  done;
  Buffer.contents buf

let golden_report =
  List.find_opt Sys.file_exists
    [ "golden/batch_report.golden.json"; "test/golden/batch_report.golden.json" ]

(* Covers every job mode, a deterministic cache hit (two identical
   verify queries share one chain build) and a poisoned entry (artifact
   from another network) that must crash alone. Depends on
   test_generate_and_describe and test_verify_and_reuse having
   populated tmp_dir. *)
let test_batch_golden () =
  let path f = Filename.concat tmp_dir f in
  let manifest = path "batch_manifest.json" in
  let oc = open_out manifest in
  output_string oc
    {|{"jobs":[
  {"id":"v1","mode":"verify","model":"head1.json","property":"property.json"},
  {"id":"v2","mode":"verify","model":"head1.json","property":"property.json"},
  {"id":"u1","mode":"svudc","model":"head1.json","artifact":"proof.json","new_din":"enlarged_din.json"},
  {"id":"b1","mode":"svbtv","old":"head1.json","new":"head2.json","artifact":"proof.json","new_din":"enlarged_din.json"},
  {"id":"poisoned","mode":"svudc","model":"head2.json","artifact":"proof.json","new_din":"enlarged_din.json"}
]}|};
  close_out oc;
  let report = path "batch_report.json" in
  let code =
    run [ "batch"; "--manifest"; manifest; "--jobs"; "2"; "--report"; report ]
  in
  (* The poisoned job makes the batch exit nonzero — while the other
     four still complete. *)
  Alcotest.(check int) "batch exit reflects crashed job" 1 code;
  let actual = normalize_report (read_file report) in
  match golden_report with
  | None -> Alcotest.fail "golden/batch_report.golden.json not found"
  | Some g ->
    Alcotest.(check string) "batch report matches golden" (read_file g) actual

(* Certificate emission on every mode, replayed through the trusted
   checker; plus the committed golden pair (a valid chain certificate
   and a tampered copy the checker must reject). Depends on
   test_generate_and_describe / test_verify_and_reuse. *)
let test_cert_emission_and_check () =
  let path f = Filename.concat tmp_dir f in
  let contains text needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  let check_valid name cert =
    Alcotest.(check bool) (name ^ " cert written") true (Sys.file_exists cert);
    let code, out = run_out [ "check"; cert ] in
    Alcotest.(check int) (name ^ " check exit") 0 code;
    Alcotest.(check bool) (name ^ " VALID") true (contains out "VALID")
  in
  check_run "verify --emit-cert"
    [ "verify"; "--model"; path "head1.json"; "--property";
      path "property.json"; "--artifact"; path "proof.json"; "--emit-cert";
      path "cert_verify.json" ];
  check_valid "verify" (path "cert_verify.json");
  check_run "svudc --emit-cert"
    [ "svudc"; "--model"; path "head1.json"; "--artifact"; path "proof.json";
      "--new-din"; path "enlarged_din.json"; "--emit-cert";
      path "cert_svudc.json" ];
  check_valid "svudc" (path "cert_svudc.json");
  check_run "svbtv --emit-cert"
    [ "svbtv"; "--old"; path "head1.json"; "--new"; path "head2.json";
      "--artifact"; path "proof.json"; "--new-din"; path "enlarged_din.json";
      "--emit-cert"; path "cert_svbtv.json" ];
  check_valid "svbtv" (path "cert_svbtv.json");
  (* batch: one cert per safe job, each one checker-valid *)
  let manifest = path "cert_batch_manifest.json" in
  let oc = open_out manifest in
  output_string oc
    {|{"jobs":[
  {"id":"cv","mode":"verify","model":"head1.json","property":"property.json"},
  {"id":"cu","mode":"svudc","model":"head1.json","artifact":"proof.json","new_din":"enlarged_din.json"},
  {"id":"cb","mode":"svbtv","old":"head1.json","new":"head2.json","artifact":"proof.json","new_din":"enlarged_din.json"}
]}|};
  close_out oc;
  check_run "batch --emit-certs"
    [ "batch"; "--manifest"; manifest; "--emit-certs"; path "certs" ];
  List.iter
    (fun id ->
      check_valid ("batch " ^ id)
        (Filename.concat (path "certs") (id ^ ".cert.json")))
    [ "cv"; "cu"; "cb" ];
  (* committed golden pair *)
  (match
     List.find_opt Sys.file_exists
       [ "golden/cert_chain.golden.json"; "test/golden/cert_chain.golden.json" ]
   with
  | None -> Alcotest.fail "golden/cert_chain.golden.json not found"
  | Some g ->
    check_valid "golden" g;
    let tampered =
      Filename.chop_suffix g "cert_chain.golden.json"
      ^ "cert_chain_tampered.golden.json"
    in
    let code, out = run_out [ "check"; tampered ] in
    Alcotest.(check int) "tampered golden exit" 1 code;
    Alcotest.(check bool) "tampered golden INVALID" true
      (contains out "INVALID"));
  (* malformed input is a hard error, not a verdict *)
  let junk = path "junk_cert.json" in
  let oc = open_out junk in
  output_string oc "{\"schema\": \"not-a-cert\"";
  close_out oc;
  Alcotest.(check bool) "malformed cert rejected" true (run [ "check"; junk ] <> 0)

(* Verdicts must not depend on the concurrency level (the CI
   batch-matrix job re-checks this across full runs). *)
let test_batch_jobs_invariance () =
  let path f = Filename.concat tmp_dir f in
  let manifest = path "batch_manifest.json" in
  let report_for jobs =
    let report = path (Printf.sprintf "batch_report_j%d.json" jobs) in
    ignore
      (run
         [ "batch"; "--manifest"; manifest; "--jobs"; string_of_int jobs;
           "--report"; report ]);
    normalize_report (read_file report)
  in
  let r1 = report_for 1 in
  Alcotest.(check string) "jobs=4 report identical" r1 (report_for 4)

(* A manifest loads each model file once: two verify jobs on head1.json
   share one network value, so its 4 layers are prepared once, not once
   per job. Depends on test_generate_and_describe. *)
let test_batch_loads_model_once () =
  let path f = Filename.concat tmp_dir f in
  let manifest = path "two_verify_manifest.json" in
  let oc = open_out manifest in
  output_string oc
    {|{"jobs":[
  {"id":"v1","mode":"verify","model":"head1.json","property":"property.json"},
  {"id":"v2","mode":"verify","model":"head1.json","property":"property.json"}
]}|};
  close_out oc;
  let code, text =
    run_out ~with_stderr:true
      [ "batch"; "--manifest"; manifest; "--no-cache"; "--stats" ]
  in
  Alcotest.(check int) "batch exits 0" 0 code;
  let builds =
    String.split_on_char '\n' text
    |> List.find_map (fun l ->
           match String.split_on_char ' ' (String.trim l) with
           | "kernel.prepare.builds" :: rest ->
             List.find_opt (( <> ) "") rest |> Option.map int_of_string
           | _ -> None)
  in
  Alcotest.(check (option int)) "kernel.prepare.builds" (Some 4) builds

let () =
  if not (Sys.file_exists exe) then begin
    print_endline "contiver binary not found; skipping CLI tests";
    exit 0
  end;
  Alcotest.run "cv_cli"
    [ ( "cli",
        [ Alcotest.test_case "help" `Quick test_help;
          Alcotest.test_case "unknown command" `Quick test_unknown_command;
          Alcotest.test_case "generate+describe" `Quick
            test_generate_and_describe;
          Alcotest.test_case "verify+reuse" `Quick test_verify_and_reuse;
          Alcotest.test_case "missing file" `Quick
            test_verify_rejects_missing_file;
          Alcotest.test_case "kill and resume" `Quick test_kill_and_resume;
          Alcotest.test_case "checkpoint flag validation" `Quick
            test_checkpoint_flag_validation;
          Alcotest.test_case "chaos campaign" `Quick test_chaos_campaign;
          Alcotest.test_case "batch golden report" `Quick test_batch_golden;
          Alcotest.test_case "cert emission + check" `Quick
            test_cert_emission_and_check;
          Alcotest.test_case "batch jobs invariance" `Quick
            test_batch_jobs_invariance;
          Alcotest.test_case "batch loads each model once" `Quick
            test_batch_loads_model_once ] ) ]
