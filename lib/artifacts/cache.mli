(** Content-addressed proof-artifact cache.

    Proof artifacts — state-abstraction chains, Lipschitz constants,
    network abstractions — are pure functions of (network contents,
    input box, build recipe). The cache keys them exactly that way:

    {v fingerprint × input-box hash × artifact kind v}

    where [fingerprint] is {!Artifacts.fingerprint} (a content hash of
    the network's weights, biases and activations), the box hash is a
    content hash of the box's canonical JSON, and [kind] names the
    recipe (e.g. ["abstractions:symint:w=0"], ["lipschitz:Linf"],
    ["netabs:adaptive:dout=<hash>"]).
    Content addressing gives invalidation for free: a fine-tuned network
    has a different fingerprint, so its keys can never collide with
    stale entries — a mismatched artifact is simply never found. It also
    gives prefix sharing for free: two networks with identical first [k]
    layers produce the same fingerprint for their layer-[k] prefix, so a
    prefix-level artifact built for one is found verbatim by the other.

    Lookups are {e single-flight}: when several concurrent queries miss
    on the same key, exactly one builds while the rest wait and then hit
    — N identical queries cost one build regardless of the concurrency
    level, and hit/miss accounting stays deterministic.

    Two tiers share the keys, the single-flight builds, the bounded
    in-memory working set ([capacity] entries, LRU eviction) and the
    accounting. JSON entries ({!find_or_build} and its typed wrappers)
    may be backed by an optional directory of durable entries written
    through the store's shared atomic writer ({!Atomic_write.write})
    inside the checksummed envelope, so a crash mid-write never
    corrupts an entry and a corrupt/mismatched disk entry degrades to a
    rebuild, never a wrong artifact. Values with no JSON codec (SVbTV
    network abstractions) live in the in-memory tier
    ({!memo_or_build}), typed by a [Type.Id.t] and never written to
    disk.

    Effort accounting: every lookup of either tier bumps the global
    metrics counters [cache.hits] / [cache.misses] / [cache.evictions]
    (surfaced by [--stats]) as well as the per-cache counters
    ({!stats}) that the batch report and the serve status records
    print. Nothing else bumps [cache.*]. *)

type t

type stats = { hits : int; misses : int; evictions : int }

(** [create ?capacity ?dir ()] — a fresh cache holding at most
    [capacity] entries in memory (default 256; at least 1), optionally
    backed by directory [dir] (created if missing). Safe for concurrent
    use from multiple domains. *)
val create : ?capacity:int -> ?dir:string -> unit -> t

(** [box_hash b] is the content hash of a box, for key building. *)
val box_hash : Cv_interval.Box.t -> string

(** [no_box] is the box-hash sentinel for box-independent artifacts
    (e.g. global Lipschitz constants). *)
val no_box : string

(** [find t ~fingerprint ~box_hash ~kind] looks an entry up (memory
    first, then the backing directory), counting a hit or a miss. Never
    waits on an in-flight build. *)
val find :
  t -> fingerprint:string -> box_hash:string -> kind:string ->
  Cv_util.Json.t option

(** [store t ~fingerprint ~box_hash ~kind payload] inserts an entry,
    evicting the least-recently-used one when over capacity, and
    persists it durably when the cache is disk-backed. Propagates
    writer exceptions (e.g. an injected kill): a failed write caches
    nothing. *)
val store :
  t -> fingerprint:string -> box_hash:string -> kind:string ->
  Cv_util.Json.t -> unit

(** [find_or_build t ~fingerprint ~box_hash ~kind build] returns the
    cached entry or builds, stores and returns it. Single-flight:
    concurrent callers missing on the same key wait for the one builder
    (their lookups count as hits — the build was skipped). A build
    failure releases the key and re-raises. *)
val find_or_build :
  t -> fingerprint:string -> box_hash:string -> kind:string ->
  (unit -> Cv_util.Json.t) -> Cv_util.Json.t

(** [memo_or_build t id ~fingerprint ~box_hash ~kind build] is
    {!find_or_build} for the in-memory tier: any OCaml value, stored
    under [id] and never written to disk. Whatever [build] returns is
    cached — a [None] from an optional build too — so a hopeless build
    is paid for once. An entry stored under another id reads as
    absent. *)
val memo_or_build :
  t -> 'a Type.Id.t -> fingerprint:string -> box_hash:string ->
  kind:string -> (unit -> 'a) -> 'a

(** [boxes_or_build t ~fingerprint ~box_hash ~kind build] —
    {!find_or_build} specialised to box arrays (state-abstraction
    chains). A cached entry that fails to decode degrades to a rebuild;
    an exception raised by [build] itself (including
    {!Cv_util.Json.Error}) propagates as-is without running the build a
    second time. *)
val boxes_or_build :
  t -> fingerprint:string -> box_hash:string -> kind:string ->
  (unit -> Cv_interval.Box.t array) -> Cv_interval.Box.t array

(** [float_or_build t ~fingerprint ~box_hash ~kind build] —
    {!find_or_build} specialised to scalars (Lipschitz constants). *)
val float_or_build :
  t -> fingerprint:string -> box_hash:string -> kind:string ->
  (unit -> float) -> float

(** [stats t] snapshots this cache's own hit/miss/eviction counters. *)
val stats : t -> stats

(** [stats_to_json s] is [{"hits":..,"misses":..,"evictions":..}] — the
    [cache] member of the batch report and the serve status record. *)
val stats_to_json : stats -> Cv_util.Json.t

(** [size t] is the current number of in-memory entries. *)
val size : t -> int
