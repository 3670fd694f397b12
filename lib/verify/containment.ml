(** The local containment check — the workhorse of proof reuse.

    Every sufficient condition in the paper reduces to queries of the
    form [∀x ∈ B : g(x) ∈ T] where [g] is a small slice of the network,
    [B] an input box and [T] a stored state abstraction (or [D_out]).
    This module answers such queries with a selectable engine:

    - abstract one-shot (box / symint / zonotope / deeppoly): cheap,
      incomplete — may answer [Unknown];
    - [Symint_split]: symbolic intervals with input bisection
      (ReluVal-style), complete for piecewise-linear slices up to the
      split budget;
    - [Milp]: the exact big-M encoding with per-output cutoff queries,
      sound and complete for piecewise-linear slices;
    - [Ladder]: cost-ordered — the one-shot symint reach closes each
      output side it can, and [Milp]'s sampler and cutoff queries run
      for the remaining sides only. The default for every reuse route.

    Budget exhaustion never raises out of {!check}: a deadline expiring
    mid-query degrades the verdict to [Unknown { reason = Timeout; _ }],
    keeping any certified partial bound the engine salvaged. *)

type engine =
  | Abstract of Cv_domains.Analyzer.domain_kind
  | Symint_split of int  (** max number of box splits *)
  | Milp
  | Ladder

(** [engine_name e] is a printable engine label. *)
let engine_name = function
  | Abstract k -> Cv_domains.Analyzer.domain_name k
  | Symint_split n -> Printf.sprintf "symint-split(%d)" n
  | Milp -> "milp"
  | Ladder -> "ladder"

(** Why an engine answered [Unknown]. *)
type unknown_reason = Imprecise | Budget | Timeout | Numerical | Crash

(** Structured payload of an [Unknown] verdict. *)
type unknown = {
  reason : unknown_reason;
  message : string;
  best_bound : float option;
      (** certified partial bound salvaged before giving up *)
}

type verdict = Proved | Violated of Falsify.violation | Unknown of unknown

(** [reason_name r] is a printable label. *)
let reason_name = function
  | Imprecise -> "imprecise"
  | Budget -> "budget"
  | Timeout -> "timeout"
  | Numerical -> "numerical"
  | Crash -> "crash"

(** [unknown ?best_bound reason message] builds an [Unknown] verdict. *)
let unknown ?best_bound reason message = Unknown { reason; message; best_bound }

(** [is_proved v] is true for [Proved]. *)
let is_proved = function Proved -> true | _ -> false

let violation_from_point net target x =
  match Falsify.violation_of net target x with
  | Some v -> Violated v
  | None ->
    unknown Numerical
      "solver reported a violating point the concrete check cannot confirm"

(* One-shot abstract check. *)
let check_abstract ?deadline kind net ~input_box ~target =
  let reach = Cv_domains.Analyzer.output_box ?deadline kind net input_box in
  if Cv_interval.Box.subset_tol reach target then Proved
  else
    unknown Imprecise
      (Printf.sprintf "%s reach %s not within target"
         (Cv_domains.Analyzer.domain_name kind)
         (Cv_interval.Box.to_string reach))

let m_checks = Cv_util.Metrics.counter "verify.checks"

let m_splits = Cv_util.Metrics.counter "verify.splits"

(* ReluVal-style bisection: prove each sub-box abstractly; sample for
   counterexamples before splitting; stop at the split budget. *)
let check_split ?deadline budget net ~input_box ~target =
  let rng = Cv_util.Rng.create 97 in
  let splits = ref 0 in
  let rec go box =
    Cv_util.Deadline.check_opt deadline;
    let reach = Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint net box in
    if Cv_interval.Box.subset_tol reach target then Proved
    else begin
      (* Quick concrete disproof attempt at the center. *)
      match Falsify.violation_of net target (Cv_interval.Box.center box) with
      | Some v -> Violated v
      | None ->
        if !splits >= budget then
          unknown Budget (Printf.sprintf "split budget %d exhausted" budget)
        else if Cv_interval.Box.max_width box <= 1e-9 then
          (* Degenerate box still not proved: treat the residual as
             abstract imprecision. *)
          unknown Imprecise "degenerate box not proved"
        else begin
          incr splits;
          Cv_util.Metrics.incr m_splits;
          let left, right = Cv_interval.Box.split box in
          match go left with
          | Proved -> go right
          | (Violated _ | Unknown _) as r -> r
        end
    end
  in
  match
    Falsify.search ~samples:32 ~rounds:1 ~rng net ~din:input_box ~dout:target ()
  with
  | Some v -> Violated v
  | None -> go input_box

(* Exact MILP check: per output coordinate, bound max and min with
   cutoff queries. [closed i] marks the (upper, lower) sides of output
   [i] that are already decided and get no query. *)
let check_milp ?deadline ?domains ?(closed = fun _ -> (false, false)) net
    ~input_box ~target =
  let enc = Cv_milp.Relu_encoding.encode ~net ~input_box in
  let out_dim = Cv_nn.Network.out_dim net in
  if Cv_interval.Box.dim target <> out_dim then
    invalid_arg "Containment.check_milp: target dimension";
  let tol = 1e-7 in
  let rec per_output i =
    if i = out_dim then Proved
    else begin
      let iv = Cv_interval.Box.get target i in
      let hi = Cv_interval.Interval.hi iv and lo = Cv_interval.Interval.lo iv in
      let upper_closed, lower_closed = closed i in
      let upper_ok =
        if hi = Float.infinity || upper_closed then Proved
        else
          match
            Cv_milp.Relu_encoding.max_output ?deadline ?domains enc ~output:i
              ~cutoff:(hi +. tol)
          with
          | Cv_milp.Milp.Below_cutoff _ -> Proved
          | Cv_milp.Milp.Optimal s ->
            if s.Cv_milp.Milp.objective <= hi +. tol then Proved
            else
              violation_from_point net target
                (Array.sub s.Cv_milp.Milp.values 0 (Cv_nn.Network.in_dim net))
          | Cv_milp.Milp.Cutoff_reached s ->
            violation_from_point net target
              (Array.sub s.Cv_milp.Milp.values 0 (Cv_nn.Network.in_dim net))
          | Cv_milp.Milp.Infeasible -> unknown Numerical "MILP infeasible"
          | Cv_milp.Milp.Unbounded -> unknown Numerical "MILP unbounded"
          | Cv_milp.Milp.Timeout { bound; _ } ->
            unknown Timeout ~best_bound:bound
              (Printf.sprintf
                 "budget expired bounding output %d from above (certified ≤ %g, need ≤ %g)"
                 i bound hi)
      in
      match upper_ok with
      | Proved -> (
        let lower_ok =
          if lo = Float.neg_infinity || lower_closed then Proved
          else
            match
              Cv_milp.Relu_encoding.min_output ?deadline ?domains enc ~output:i
                ~cutoff:(lo -. tol)
            with
            | Cv_milp.Milp.Below_cutoff _ -> Proved
            | Cv_milp.Milp.Optimal s ->
              if s.Cv_milp.Milp.objective >= lo -. tol then Proved
              else
                violation_from_point net target
                  (Array.sub s.Cv_milp.Milp.values 0 (Cv_nn.Network.in_dim net))
            | Cv_milp.Milp.Cutoff_reached s ->
              violation_from_point net target
                (Array.sub s.Cv_milp.Milp.values 0 (Cv_nn.Network.in_dim net))
            | Cv_milp.Milp.Infeasible -> unknown Numerical "MILP infeasible"
            | Cv_milp.Milp.Unbounded -> unknown Numerical "MILP unbounded"
            | Cv_milp.Milp.Timeout { bound; _ } ->
              unknown Timeout ~best_bound:bound
                (Printf.sprintf
                   "budget expired bounding output %d from below (certified ≥ %g, need ≥ %g)"
                   i bound lo)
        in
        match lower_ok with Proved -> per_output (i + 1) | r -> r)
      | r -> r
    end
  in
  (* Sampling first: a concrete counterexample skips the solver. *)
  let rng = Cv_util.Rng.create 43 in
  match
    Falsify.search ~samples:64 ~rounds:1 ~rng net ~din:input_box ~dout:target ()
  with
  | Some v -> Violated v
  | None -> per_output 0

let m_ladder_closed = Cv_util.Metrics.counter "verify.ladder.closed"

let m_ladder_open = Cv_util.Metrics.counter "verify.ladder.open"

(* Cost-ordered check: the slice's one-shot symint reach closes an
   output side only when it lies inside the target bound with no
   tolerance; the sides it leaves open go to [check_milp], whose
   sampler and cutoff queries then run unchanged. Symint is sound, so a
   closed side is one the MILP would have proved. *)
let check_ladder ?deadline ?domains net ~input_box ~target =
  let out_dim = Cv_nn.Network.out_dim net in
  if Cv_interval.Box.dim target <> out_dim then
    invalid_arg "Containment.check_ladder: target dimension";
  let reach =
    Cv_domains.Analyzer.output_box ?deadline Cv_domains.Analyzer.Symint net
      input_box
  in
  let closed =
    Array.init out_dim (fun i ->
        let r = Cv_interval.Box.get reach i
        and t = Cv_interval.Box.get target i in
        ( Cv_interval.Interval.hi r <= Cv_interval.Interval.hi t,
          Cv_interval.Interval.lo r >= Cv_interval.Interval.lo t ))
  in
  let n_closed =
    Array.fold_left
      (fun n (u, l) -> n + Bool.to_int u + Bool.to_int l)
      0 closed
  in
  let n_open = (2 * out_dim) - n_closed in
  Cv_util.Metrics.add m_ladder_closed n_closed;
  Cv_util.Metrics.add m_ladder_open n_open;
  Cv_util.Trace.add_attr "ladder.closed" (string_of_int n_closed);
  Cv_util.Trace.add_attr "ladder.open" (string_of_int n_open);
  if n_open = 0 then Proved
  else
    check_milp ?deadline ?domains ~closed:(Array.get closed) net ~input_box
      ~target

let verdict_label = function
  | Proved -> "proved"
  | Violated _ -> "violated"
  | Unknown u -> "unknown:" ^ reason_name u.reason

(** [check ?deadline engine net ~input_box ~target] decides (or
    attempts) [∀x ∈ input_box : net(x) ∈ target]. Deadline expiry
    degrades to [Unknown {reason = Timeout; _}] instead of raising. *)
let check ?deadline ?domains engine net ~input_box ~target =
  Cv_util.Metrics.incr m_checks;
  Cv_util.Trace.with_span "containment.check"
    ~attrs:[ ("engine", engine_name engine) ]
  @@ fun () ->
  let v =
    (* Every engine runs supervised: transient failures (spurious solver
       errors, allocation faults, injected chaos) are retried with
       backoff, and an engine that keeps dying yields a structured
       [Unknown {reason = Crash; _}] — weaker than any real verdict but
       never wrong — so one poisoned query degrades instead of killing
       the whole verification run. *)
    Cv_util.Supervisor.protect
      ~name:("containment." ^ engine_name engine)
      ~fallback:(fun exn ->
        unknown Crash
          (Printf.sprintf "%s engine crashed: %s" (engine_name engine)
             (Printexc.to_string exn)))
      (fun () ->
        try
          match engine with
          | Abstract kind ->
            check_abstract ?deadline kind net ~input_box ~target
          | Symint_split budget ->
            check_split ?deadline budget net ~input_box ~target
          | Milp -> check_milp ?deadline ?domains net ~input_box ~target
          | Ladder -> check_ladder ?deadline ?domains net ~input_box ~target
        with Cv_util.Deadline.Expired msg -> unknown Timeout msg)
  in
  Cv_util.Trace.add_attr "verdict" (verdict_label v);
  v

(** [check_timed ?deadline ?domains engine net ~input_box ~target] also
    reports wall-clock seconds — the quantity the Table I reproduction
    aggregates. *)
let check_timed ?deadline ?domains engine net ~input_box ~target =
  Cv_util.Timer.time (fun () ->
      check ?deadline ?domains engine net ~input_box ~target)
