(** Supervised execution of flaky solver and analysis calls: bounded
    retry with exponential backoff for transient failures, structured
    fallback for exhausted ones. Deadline expiry and logic errors are
    never retried or swallowed. *)

type policy = {
  retries : int;  (** additional attempts after the first failure *)
  backoff : float;  (** seconds before the first retry *)
  max_backoff : float;  (** backoff growth cap *)
}

(** 2 retries, 5 ms initial backoff, 100 ms cap. *)
val default_policy : policy

(** [retryable e] — is [e] a transient failure worth another attempt?
    True for {!Fault.Injected}, [Failure], [Out_of_memory] and
    [Stack_overflow]; false otherwise (a {!Fault.Killed} process death
    among them). *)
val retryable : exn -> bool

(** [run ?policy ~name f] runs [f], retrying transient failures.
    [Ok v] on success, [Error exn] when attempts are exhausted;
    non-retryable exceptions propagate. *)
val run : ?policy:policy -> name:string -> (unit -> 'a) -> ('a, exn) result

(** [protect ?policy ~name ~fallback f] is {!run} that maps exhausted
    retries to [fallback exn] instead of an [Error]. *)
val protect :
  ?policy:policy -> name:string -> fallback:(exn -> 'a) -> (unit -> 'a) -> 'a
