(** Shared unique-tmp + fsync + rename writer (see the interface for the
    atomicity and fault-injection contract). *)

(* Distinguishes concurrent writers targeting the same path from within
   one process (e.g. a checkpointer on a worker and the final artifact
   save): the pid alone is not unique enough. *)
let tmp_counter = Atomic.make 0

let write path contents =
  let contents =
    (* Fault injection: simulate a corrupted write (non-atomic writer or
       disk fault) by emitting a truncated document. *)
    if Cv_util.Fault.fires Cv_util.Fault.Truncate_artifact then
      String.sub contents 0 (String.length contents / 2)
    else contents
  in
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out_bin tmp in
  (try
     if Cv_util.Fault.fires Cv_util.Fault.Kill_mid_checkpoint then begin
       (* Simulate the process dying mid-write: half the bytes land in
          the tmp file, which is abandoned; the target path — and with
          it the previous document — stays intact. *)
       output_string oc (String.sub contents 0 (String.length contents / 2));
       close_out_noerr oc;
       raise (Cv_util.Fault.Killed "kill-mid-checkpoint (injected)")
     end;
     output_string oc contents;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     (match e with
     | Cv_util.Fault.Killed _ -> () (* a dead process cleans nothing *)
     | _ -> ( try Sys.remove tmp with Sys_error _ -> ()));
     raise e);
  Sys.rename tmp path
