(** Content-addressed proof-artifact cache (see the interface for the
    keying, single-flight and durability contract). *)

let cache_format = "contiver-cache"

(* Global effort accounting, alongside the per-cache counters: the
   batch scheduler and --stats read these. *)
let m_hits = Cv_util.Metrics.counter "cache.hits"
let m_misses = Cv_util.Metrics.counter "cache.misses"
let m_evictions = Cv_util.Metrics.counter "cache.evictions"

type stats = { hits : int; misses : int; evictions : int }

(* Entries of both tiers share one table: a value travels with the
   [Type.Id] it was stored under, and a lookup under another id sees no
   entry. *)
type packed = Pack : 'a Type.Id.t * 'a -> packed

type entry = { value : packed; mutable tick : int }

let json_id : Cv_util.Json.t Type.Id.t = Type.Id.make ()

let unpack : type a. a Type.Id.t -> packed -> a option =
 fun id (Pack (id', v)) ->
  match Type.Id.provably_equal id id' with
  | Some Type.Equal -> Some v
  | None -> None

type t = {
  capacity : int;
  dir : string option;
  lock : Mutex.t;
  settled : Condition.t;  (** signalled when an in-flight build ends *)
  table : (string, entry) Hashtbl.t;
  building : (string, unit) Hashtbl.t;  (** keys with an in-flight build *)
  mutable clock : int;  (** LRU tick source, guarded by [lock] *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

let create ?(capacity = 256) ?dir () =
  (match dir with
  | None -> ()
  | Some d -> (
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()));
  { capacity = max 1 capacity;
    dir;
    lock = Mutex.create ();
    settled = Condition.create ();
    table = Hashtbl.create 64;
    building = Hashtbl.create 8;
    clock = 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0 }

let box_hash b = Digest.to_hex (Digest.string (Cv_util.Json.to_string (Cv_interval.Box.to_json b)))

let no_box = "-"

let key_string ~fingerprint ~box_hash ~kind =
  String.concat "\x00" [ fingerprint; box_hash; kind ]

(* Disk entries are named by the key digest and record the full key, so
   a load validates content addressing end to end: the envelope checksum
   guards the bytes, the recorded key guards against digest collisions
   and — the invalidation story — against any fingerprint mismatch. *)
let disk_path dir ~fingerprint ~box_hash ~kind =
  Filename.concat dir
    (Digest.to_hex (Digest.string (key_string ~fingerprint ~box_hash ~kind))
    ^ ".cache.json")

let disk_doc ~fingerprint ~box_hash ~kind payload =
  Cv_util.Json.Obj
    [ ( "key",
        Cv_util.Json.Obj
          [ ("fingerprint", Cv_util.Json.Str fingerprint);
            ("box_hash", Cv_util.Json.Str box_hash);
            ("kind", Cv_util.Json.Str kind) ] );
      ("value", payload) ]

let disk_load dir ~fingerprint ~box_hash ~kind =
  let path = disk_path dir ~fingerprint ~box_hash ~kind in
  if not (Sys.file_exists path) then None
  else
    match Artifacts.load_doc_result ~format:cache_format path with
    | Error _ -> None (* corrupt entries degrade to a rebuild *)
    | Ok doc -> (
      match
        let open Cv_util.Json in
        let k = member "key" doc in
        ( to_str (member "fingerprint" k),
          to_str (member "box_hash" k),
          to_str (member "kind" k),
          member "value" doc )
      with
      | f, b, k, v
        when String.equal f fingerprint
             && String.equal b box_hash && String.equal k kind ->
        Some v
      | _ -> None (* key mismatch: never serve a wrong artifact *)
      | exception Cv_util.Json.Error _ -> None)

let count_hit t =
  Atomic.incr t.hits;
  Cv_util.Metrics.incr m_hits

let count_miss t =
  Atomic.incr t.misses;
  Cv_util.Metrics.incr m_misses

(* All [locked_*] helpers assume [t.lock] is held. *)

let locked_touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

let locked_find_memory t id key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some e ->
    let v = unpack id e.value in
    if Option.is_some v then locked_touch t e;
    v

(* Evict least-recently-used entries down to capacity. The backing
   directory is not touched: disk is the durable store, memory the
   bounded working set — an evicted entry re-enters from disk as a
   hit. *)
let locked_evict t =
  while Hashtbl.length t.table > t.capacity do
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          match acc with
          | Some (_, tick) when tick <= e.tick -> acc
          | _ -> Some (key, e.tick))
        t.table None
    in
    match victim with
    | None -> ()
    | Some (key, _) ->
      Hashtbl.remove t.table key;
      Atomic.incr t.evictions;
      Cv_util.Metrics.incr m_evictions
  done

let locked_insert t key value =
  t.clock <- t.clock + 1;
  Hashtbl.replace t.table key { value; tick = t.clock };
  locked_evict t

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t ~fingerprint ~box_hash ~kind =
  let key = key_string ~fingerprint ~box_hash ~kind in
  let from_memory = with_lock t (fun () -> locked_find_memory t json_id key) in
  match from_memory with
  | Some payload ->
    count_hit t;
    Some payload
  | None -> (
    match t.dir with
    | None ->
      count_miss t;
      None
    | Some dir -> (
      match disk_load dir ~fingerprint ~box_hash ~kind with
      | Some payload ->
        (* Promote into the working set: the build was skipped. *)
        with_lock t (fun () -> locked_insert t key (Pack (json_id, payload)));
        count_hit t;
        Some payload
      | None ->
        count_miss t;
        None))

let persist t ~fingerprint ~box_hash ~kind payload =
  match t.dir with
  | None -> ()
  | Some dir ->
    Artifacts.save_doc ~format:cache_format
      (disk_path dir ~fingerprint ~box_hash ~kind)
      (disk_doc ~fingerprint ~box_hash ~kind payload)

let store t ~fingerprint ~box_hash ~kind payload =
  (* Durability first: a failed write caches nothing, so memory never
     claims an entry the disk lost. *)
  persist t ~fingerprint ~box_hash ~kind payload;
  let key = key_string ~fingerprint ~box_hash ~kind in
  with_lock t (fun () -> locked_insert t key (Pack (json_id, payload)))

(* The single-flight lookup behind both tiers. [load] consults the
   backing store once this caller holds the build slot; [persist]
   writes a fresh build through to it before it enters memory. *)
let single_flight t id key ~load ~persist build =
  (* Returns [Ok v] on a hit, [Error ()] once this caller holds the
     build slot for [key]. *)
  let rec claim () =
    match locked_find_memory t id key with
    | Some v -> Ok v
    | None ->
      if Hashtbl.mem t.building key then begin
        (* Single-flight: somebody else is building this exact
           artifact; wait for them instead of duplicating the work. *)
        Condition.wait t.settled t.lock;
        claim ()
      end
      else begin
        Hashtbl.add t.building key ();
        Error ()
      end
  in
  match with_lock t claim with
  | Ok v ->
    count_hit t;
    v
  | Error () ->
    (* A failed build or write caches nothing; releasing the slot lets
       a waiter retry (and take it over). *)
    Fun.protect ~finally:(fun () ->
        with_lock t (fun () ->
            Hashtbl.remove t.building key;
            Condition.broadcast t.settled))
    @@ fun () ->
    let v =
      match load () with
      | Some v ->
        count_hit t;
        v
      | None ->
        count_miss t;
        let v = build () in
        persist v;
        v
    in
    with_lock t (fun () -> locked_insert t key (Pack (id, v)));
    v

let find_or_build t ~fingerprint ~box_hash ~kind build =
  single_flight t json_id
    (key_string ~fingerprint ~box_hash ~kind)
    ~load:(fun () ->
      Option.bind t.dir (fun dir -> disk_load dir ~fingerprint ~box_hash ~kind))
    ~persist:(persist t ~fingerprint ~box_hash ~kind)
    build

let memo_or_build t id ~fingerprint ~box_hash ~kind build =
  single_flight t id
    (key_string ~fingerprint ~box_hash ~kind)
    ~load:(fun () -> None) ~persist:ignore build

(* ------------------------------------------------------------------ *)
(* Typed payloads                                                      *)
(* ------------------------------------------------------------------ *)

(* JSON round-trips are exact (the writer prints %.17g), so a decoded
   artifact is bit-identical to the built one — cache hits can never
   shift a verdict. A cached payload that fails to decode (foreign
   bytes under our key) degrades to a rebuild through the store. Only
   decode failures do: a [Json.Error] raised by [build] itself is a
   build failure and propagates as-is, never triggering a second build
   (which would skew the deterministic hit/miss accounting). The
   [Build_failed] wrapper keeps the two apart. *)

exception Build_failed of exn * Printexc.raw_backtrace

let rebuild_and_store t ~fingerprint ~box_hash ~kind ~encode build =
  let value = build () in
  store t ~fingerprint ~box_hash ~kind (encode value);
  value

(* [find_or_build] with a typed codec: [decode] failures on a cached
   payload rebuild; [build] failures re-raise the original exception. *)
let typed_or_build t ~fingerprint ~box_hash ~kind ~encode ~decode build =
  let guarded_build () =
    match encode (build ()) with
    | payload -> payload
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      raise (Build_failed (e, bt))
  in
  match decode (find_or_build t ~fingerprint ~box_hash ~kind guarded_build) with
  | v -> v
  | exception Build_failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | exception Cv_util.Json.Error _ ->
    rebuild_and_store t ~fingerprint ~box_hash ~kind ~encode build

let boxes_to_json boxes =
  Cv_util.Json.List (Array.to_list (Array.map Cv_interval.Box.to_json boxes))

let boxes_of_json j =
  Cv_util.Json.to_list j |> List.map Cv_interval.Box.of_json |> Array.of_list

let boxes_or_build t ~fingerprint ~box_hash ~kind build =
  typed_or_build t ~fingerprint ~box_hash ~kind ~encode:boxes_to_json
    ~decode:boxes_of_json build

let float_or_build t ~fingerprint ~box_hash ~kind build =
  typed_or_build t ~fingerprint ~box_hash ~kind
    ~encode:(fun v -> Cv_util.Json.Num v)
    ~decode:Cv_util.Json.to_float build

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let stats t =
  { hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions }

let stats_to_json (s : stats) =
  Cv_util.Json.Obj
    [ ("hits", Cv_util.Json.of_int s.hits);
      ("misses", Cv_util.Json.of_int s.misses);
      ("evictions", Cv_util.Json.of_int s.evictions) ]

let size t = with_lock t (fun () -> Hashtbl.length t.table)
