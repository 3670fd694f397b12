(** Exact output-range computation.

    The "sound and complete" original verification of the paper's
    related work: compute the exact minimum and maximum of every output
    neuron over the input box with branch-and-bound MILP (no cutoff —
    the solver must close the optimality gap), then compare with
    [D_out]. This is the expensive full-network run whose cost is the
    denominator of the Table I ratios; the incremental reuse checks
    replace it with cheap cutoff {e decision} queries on small slices. *)

module J = Cv_util.Json

type t = {
  range : Cv_interval.Box.t;  (** exact per-output [min, max] *)
  milp_vars : int;
  milp_binaries : int;
}

(* Progress document for checkpoint/resume: the per-output queries
   already closed (with their exact optima, in completion order) plus
   at most one in-flight branch-and-bound snapshot. Completed values
   are replayed as recorded, so a resumed run reproduces the
   uninterrupted run's range within a few ulps: the first query it
   solves starts from a cold lowering, where the uninterrupted run
   restarted warm from the previous query's root basis and may have
   ended on another optimal vertex of a degenerate LP. *)
let progress_doc ~completed inflight =
  J.Obj
    [ ( "done",
        J.List
          (List.rev_map
             (fun (o, dir, v) ->
               J.Obj
                 [ ("output", J.of_int o); ("dir", J.Str dir);
                   ("value", J.Num v) ])
             completed) );
      ("inflight", inflight) ]

(** [exact_range ?deadline ?domains net ~din] computes the exact output
    range of a piecewise-linear network over [din], with [domains > 1]
    running each query's branch-and-bound dives on parallel domains
    (deterministic verdicts). Exactness means a timed-out query has no
    usable answer here, so deadline expiry (including a solver degrading
    to [Milp.Timeout]) raises {!Cv_util.Deadline.Expired} — callers that
    need graceful degradation catch it and fall back to a partial
    verdict.

    [checkpoint] persists progress (completed query optima plus the
    in-flight query's branch-and-bound snapshot); [resume] restores
    such a document, skipping completed queries and resuming the
    interrupted one mid-search. Raises {!Cv_util.Json.Error} on a
    malformed resume document. *)
let exact_range ?deadline ?domains ?checkpoint ?resume net ~din =
  let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:din in
  let out_dim = Cv_nn.Network.out_dim net in
  let expired dir i =
    raise
      (Cv_util.Deadline.Expired
         (Printf.sprintf "Range.exact_range: budget expired on %s of output %d"
            dir i))
  in
  (* Restored state: completed query results keyed by (output, dir),
     plus the interrupted query's solver snapshot, if any. *)
  let done_tbl : (int * string, float) Hashtbl.t = Hashtbl.create 8 in
  let completed = ref [] in
  let inflight = ref None in
  (match resume with
  | None -> ()
  | Some doc ->
    J.to_list (J.member "done" doc)
    |> List.iter (fun q ->
           let o = J.to_int (J.member "output" q) in
           let dir = J.to_str (J.member "dir" q) in
           let v = J.to_float (J.member "value" q) in
           Hashtbl.replace done_tbl (o, dir) v;
           (* "done" is written oldest-first; consing restores the
              in-memory most-recent-first invariant. *)
           completed := (o, dir, v) :: !completed);
    match J.member "inflight" doc with
    | J.Null -> ()
    | q ->
      inflight :=
        Some
          ( (J.to_int (J.member "output" q), J.to_str (J.member "dir" q)),
            J.member "snapshot" q ));
  let query dir i =
    match Hashtbl.find_opt done_tbl (i, dir) with
    | Some v -> v (* already closed before the interruption *)
    | None ->
      let sub_resume =
        match !inflight with
        | Some ((o, d), snap) when o = i && String.equal d dir ->
          inflight := None;
          Some snap
        | _ -> None
      in
      (* Wrap the sink so a mid-search solver snapshot is embedded in
         the progress document alongside the queries already closed. *)
      let sub_checkpoint =
        Cv_util.Checkpoint.wrap_opt checkpoint (fun snap ->
            progress_doc ~completed:!completed
              (J.Obj
                 [ ("output", J.of_int i); ("dir", J.Str dir);
                   ("snapshot", snap) ]))
      in
      let result =
        if String.equal dir "max" then
          Cv_milp.Relu_encoding.max_output ?deadline ?domains
            ?checkpoint:sub_checkpoint ?resume:sub_resume enc ~output:i
        else
          Cv_milp.Relu_encoding.min_output ?deadline ?domains
            ?checkpoint:sub_checkpoint ?resume:sub_resume enc ~output:i
      in
      (match result with
      | Cv_milp.Milp.Optimal s ->
        let v = s.Cv_milp.Milp.objective in
        completed := (i, dir, v) :: !completed;
        (* A closed query is a natural commit point: record it durably
           regardless of cadence, with no in-flight snapshot. *)
        Cv_util.Checkpoint.save_opt checkpoint (fun () ->
            progress_doc ~completed:!completed J.Null);
        v
      | Cv_milp.Milp.Timeout _ -> expired dir i
      | _ ->
        failwith
          (Printf.sprintf "Range.exact_range: %s query on output %d failed" dir
             i))
  in
  let range =
    Array.init out_dim (fun i ->
        let hi = query "max" i in
        let lo = query "min" i in
        Cv_interval.Interval.make (Float.min lo hi) (Float.max lo hi))
  in
  let vars, _, binaries = Cv_milp.Relu_encoding.stats enc in
  { range; milp_vars = vars; milp_binaries = binaries }

(** [verify_exact ?deadline ?domains net prop] decides the property by
    exact range computation; returns the verdict together with the
    range. Raises {!Cv_util.Deadline.Expired} on budget exhaustion.
    [checkpoint]/[resume] persist and restore the range computation's
    progress (see {!exact_range}). *)
let verify_exact ?deadline ?domains ?checkpoint ?resume net
    (prop : Property.t) =
  let r =
    exact_range ?deadline ?domains ?checkpoint ?resume net
      ~din:prop.Property.din
  in
  let verdict =
    if Cv_interval.Box.subset_tol r.range prop.Property.dout then
      Containment.Proved
    else begin
      (* The range escapes D_out: extract a witness by sampling near the
         violating bound; fall back to Unknown when floats disagree. *)
      let rng = Cv_util.Rng.create 31 in
      match
        Falsify.search ~samples:512 ~rounds:3 ~rng net ~din:prop.Property.din
          ~dout:prop.Property.dout ()
      with
      | Some v -> Containment.Violated v
      | None ->
        Containment.unknown Containment.Numerical
          "exact range escapes D_out but no concrete witness found"
    end
  in
  (verdict, r)
