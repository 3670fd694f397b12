(** Supervised execution of flaky solver and analysis calls.

    The solver stack can fail transiently — a spurious numerical error
    in a warm restart, an allocation failure under memory pressure, an
    injected chaos fault — and the continuous-verification loop must
    absorb those without losing a whole run. [run] retries a bounded
    number of times with exponential backoff, distinguishing transient
    failures (worth retrying) from logic errors and deadline expiry
    (re-raised immediately: retrying a budget overrun only digs the hole
    deeper, and retrying a programming bug hides it). [protect] adds a
    structured fallback so call sites degrade to a weaker-but-sound
    answer instead of crashing. *)

type policy = {
  retries : int;  (** additional attempts after the first failure *)
  backoff : float;  (** seconds before the first retry *)
  max_backoff : float;  (** backoff growth cap *)
}

let default_policy = { retries = 2; backoff = 0.005; max_backoff = 0.1 }

let m_retries = Metrics.counter "supervisor.retries"
let m_recovered = Metrics.counter "supervisor.recovered"
let m_giveups = Metrics.counter "supervisor.giveups"

(** Which exceptions are worth another attempt. Injected faults,
    [Failure] (the solver stack's transient-error idiom), and resource
    exhaustion are transient; deadline expiry, an injected process death
    ({!Fault.Killed}) and [Invalid_argument] are not — a budget decision,
    a death and a bug. *)
let retryable = function
  | Fault.Injected _ | Failure _ | Out_of_memory | Stack_overflow -> true
  | _ -> false

(** [run ?policy ~name f] runs [f], retrying transient failures up to
    [policy.retries] extra times with exponential backoff. Returns
    [Ok v] on success, [Error exn] when attempts are exhausted.
    Non-retryable exceptions propagate. *)
let run ?(policy = default_policy) ~name f =
  let rec attempt n backoff =
    match f () with
    | v ->
      if n > 0 then Metrics.incr m_recovered;
      Ok v
    | exception e when retryable e ->
      if n >= policy.retries then begin
        Metrics.incr m_giveups;
        Logs.warn (fun m ->
            m "supervisor: %s failed after %d attempt(s): %s" name (n + 1)
              (Printexc.to_string e));
        Error e
      end
      else begin
        Metrics.incr m_retries;
        Logs.debug (fun m ->
            m "supervisor: %s attempt %d failed (%s), retrying in %gs" name
              (n + 1) (Printexc.to_string e) backoff);
        if backoff > 0. then Unix.sleepf backoff;
        attempt (n + 1) (Float.min policy.max_backoff (backoff *. 2.))
      end
  in
  attempt 0 policy.backoff

(** [protect ?policy ~name ~fallback f] is [run] with a structured
    escape hatch: exhausted retries produce [fallback exn] instead of an
    [Error], so the caller always gets an answer — typically a
    [Containment.Unknown] carrying the crash message. *)
let protect ?policy ~name ~fallback f =
  match run ?policy ~name f with Ok v -> v | Error e -> fallback e
