(* The native key-value workloads: one client, in a closed loop on one
   domain, drives the sharded universal-construction service
   ([Scs_shard.Service]) over [Native_prims]. Every answer is checked
   against a sequential model, and the service is rebuilt (a new slot
   arena) before any shard would run out of slots. *)

open Common
module P = Scs_prims.Native_prims
module S = Scs_shard.Service.Make (P)
module Kv = Scs_shard.Kv
module Uc = Scs_universal.Uc_object.Make (P)
module Sc = Scs_consensus.Split_consensus.Make (P)
module Ab = Scs_consensus.Abortable_bakery.Make (P)
module Cc = Scs_consensus.Cas_consensus.Make (P)
module Mix = Scs_load.Mix
module Rng = Scs_util.Rng
module Request = Scs_spec.Request
module History = Scs_spec.History

type cfg = {
  shards : int;
  buckets : int;
  capacity : int;  (** slots per shard *)
  read_ratio : float;
  keys : int;
  skew : Mix.skew;
  migrate_every : int;  (** client ops between migrations; 0 = never *)
  replica : bool;  (** traced runs also feed a bare UC object the same requests *)
  warmup_epochs : int;  (** untimed work of one set-up *)
  trace_epochs_per_s : float;  (** traced passes run this many epochs per --seconds *)
}

(* YCSB-A over 16 zipfian keys on one shard of 512 slots: the request
   history grows to 512 entries, so the UC's history-length-dependent
   bookkeeping dominates. *)
let long_history =
  {
    shards = 1;
    buckets = 1;
    capacity = 512;
    read_ratio = 0.5;
    keys = 16;
    skew = Mix.Zipfian 0.99;
    migrate_every = 0;
    replica = true;
    warmup_epochs = 3;
    trace_epochs_per_s = 0.8;
  }

(* YCSB-B over 1024 uniform keys on 8 shards of 64 slots and 64 buckets,
   migrating the next bucket to the next shard every 50 client ops:
   histories stay short, and the work goes to arena rebuilds, routing and
   the migration's admin writes. *)
let sharded_migrate =
  {
    shards = 8;
    buckets = 64;
    capacity = 64;
    read_ratio = 0.95;
    keys = 1024;
    skew = Mix.Uniform;
    migrate_every = 50;
    replica = false;
    warmup_epochs = 100;
    trace_epochs_per_s = 30.0;
  }

(* One slot arena: a freshly built service plus the benchmark's own view
   of it — slots used per shard, the owner of each bucket, and the
   sequential model of the keyspace. *)
type arena = {
  svc : S.t;
  h : S.h;
  mig : S.Migration.t;
  used : int array;
  owner : int array;
  model : int array;  (** key -> value; 0 = never written, as in [Kv] *)
  rep : Kv.req Uc.phandle option;
      (** the bare-UC replica (traced long-history runs only) *)
  mutable rep_ctr : int;
}

(* Per-layer accumulators of a traced pass. *)
type layers = {
  mutable route_ns : int;
  mutable apply_ns : int;
  mutable apply_words : int;
  mutable invoke_ns : int;
  mutable invoke_words : int;
  mutable beta_ns : int;
  mutable beta_words : int;
  mutable hist_len : int;
  mutable build_ns : int;
  mutable builds : int;
  mutable migrate_ns : int;
  mutable migrations : int;
  mutable sealed : int;
}

let new_layers () =
  {
    route_ns = 0;
    apply_ns = 0;
    apply_words = 0;
    invoke_ns = 0;
    invoke_words = 0;
    beta_ns = 0;
    beta_words = 0;
    hist_len = 0;
    build_ns = 0;
    builds = 0;
    migrate_ns = 0;
    migrations = 0;
    sealed = 0;
  }

type state = {
  cfg : cfg;
  mix : Mix.t;
  rng : Rng.t;
  key_bucket : int array;
  mutable ops : int;  (** client ops completed *)
  mutable next : (bool * int) option;  (** drawn but not yet applied: read?, key *)
  mutable op_t0 : int;  (** start of the pending op, or -1 *)
  mutable mig_rr : int;
  mutable mig_done_for : int;  (** client-op index whose migration already ran *)
  mutable failed : int;
  lat : Samples.t;
  mutable epochs : (int * int * int) list;  (** (client ops, start, end) per finished epoch *)
  tr : layers option;
}

let spec_of cfg = Kv.spec ~buckets:cfg.buckets

let replica_stages =
  [
    (fun ~name ~slot -> Sc.instance (Sc.create ~name:(Printf.sprintf "%s.split[%d]" name slot) ()));
    (fun ~name ~slot ->
      Ab.instance (Ab.create ~name:(Printf.sprintf "%s.bakery[%d]" name slot) ~n:1 ()));
    (fun ~name ~slot -> Cc.instance (Cc.create ~name:(Printf.sprintf "%s.cas[%d]" name slot) ()));
  ]

let build cfg ~replica =
  let svc = S.create ~name:"bench.svc" ~n:1 ~shards:cfg.shards ~buckets:cfg.buckets
      ~capacity:cfg.capacity () in
  (* The replica is the same computation as the 1-shard service's UC
     (the sharded-kv-s1 / uc-kv identity), fed the same requests. *)
  let rep =
    if replica then
      Some
        (Uc.phandle
           (Uc.create ~name:"bench.rep" ~n:1 ~max_requests:cfg.capacity ~stages:replica_stages ())
           ~pid:0)
    else None
  in
  {
    svc;
    h = S.handle svc ~pid:0;
    mig = S.Migration.create ~name:"bench.mig" svc;
    used = Array.make cfg.shards 0;
    owner = Array.init cfg.buckets (fun b -> b mod cfg.shards);
    model = Array.make cfg.keys 0;
    rep;
    rep_ctr = 0;
  }

let create cfg ~seed ~traced =
  {
    cfg;
    mix = Mix.make ~read_ratio:cfg.read_ratio ~keys:cfg.keys ~skew:cfg.skew;
    rng = Rng.create seed;
    key_bucket = Array.init cfg.keys (Kv.bucket_of_key ~buckets:cfg.buckets);
    ops = 0;
    next = None;
    op_t0 = -1;
    mig_rr = 0;
    mig_done_for = -1;
    failed = 0;
    lat = Samples.create ();
    epochs = [];
    tr = (if traced then Some (new_layers ()) else None);
  }

exception Epoch_full

(* Slot accounting: client ops and the migration's Freeze/Install each
   take one slot of their shard. An op that would not fit ends the
   epoch before it reaches the service, so no shard ever runs out. *)
let take_slot st a s = if a.used.(s) >= st.cfg.capacity then raise Epoch_full

let migrate st a =
  let cfg = st.cfg in
  let b = st.mig_rr mod cfg.buckets in
  let src = a.owner.(b) in
  let dst = (src + 1) mod cfg.shards in
  (* the migration commits Freeze on [src] and Install on [dst] *)
  take_slot st a src;
  take_slot st a dst;
  let t0 = match st.tr with Some _ -> now_ns () | None -> 0 in
  S.Migration.migrate a.mig ~h:a.h ~bucket:b ~dst;
  (match st.tr with
  | Some l ->
      l.migrate_ns <- l.migrate_ns + (now_ns () - t0);
      l.migrations <- l.migrations + 1;
      Array.iteri
        (fun k v -> if v <> 0 && st.key_bucket.(k) = b then l.sealed <- l.sealed + 1)
        a.model
  | None -> ());
  a.used.(src) <- a.used.(src) + 1;
  a.used.(dst) <- a.used.(dst) + 1;
  a.owner.(b) <- dst;
  st.mig_rr <- st.mig_rr + 1

(* Check one answer against the model; a wrong answer or a give-up is a
   failed op. *)
let check st a ~read ~key ~value (o : S.outcome) =
  match o with
  | S.Done (Kv.Value v) when read -> if v <> a.model.(key) then st.failed <- st.failed + 1
  | S.Done Kv.Ack when not read -> a.model.(key) <- value
  | S.Done _ | S.Gave_up -> st.failed <- st.failed + 1

let apply_traced st a l payload =
  let rt = S.router a.svc in
  let key = Option.get (Kv.key_of_req payload) in
  let t0 = now_ns () in
  let r = S.R.route rt ~key in
  l.route_ns <- l.route_ns + (now_ns () - t0);
  if r.S.R.owner <> a.owner.(st.key_bucket.(key)) then st.failed <- st.failed + 1;
  let w0 = alloc_words () in
  let t0 = now_ns () in
  let o = S.apply a.h payload in
  l.apply_ns <- l.apply_ns + (now_ns () - t0);
  l.apply_words <- l.apply_words + (alloc_words () - w0);
  (match a.rep with
  | None -> ()
  | Some ph -> (
    (* Typed.apply = invoke, then beta_at over the committed history;
       split here so each layer is timed on its own *)
    a.rep_ctr <- a.rep_ctr + 1;
    let req = Request.make a.rep_ctr payload in
    let w0 = alloc_words () in
    let t0 = now_ns () in
    let hist = Uc.invoke ph req in
    l.invoke_ns <- l.invoke_ns + (now_ns () - t0);
    l.invoke_words <- l.invoke_words + (alloc_words () - w0);
    l.hist_len <- l.hist_len + List.length hist;
    let w0 = alloc_words () in
    let t0 = now_ns () in
    let resp = History.beta_at (spec_of st.cfg) hist (Request.id req) in
    l.beta_ns <- l.beta_ns + (now_ns () - t0);
    l.beta_words <- l.beta_words + (alloc_words () - w0);
    match (o, resp) with
    | S.Done r1, Some r2 when r1 = r2 -> ()
    | _ -> st.failed <- st.failed + 1));
  o

(* Run one epoch: build a fresh arena, then apply ops until the next one
   (or the migration due before it) would not fit in its shard's slots.
   That op stays pending and opens the next epoch, so its latency covers
   the rebuild it waited for. *)
let run_epoch st =
  let cfg = st.cfg in
  (* a pending op's timer keeps running across the epoch boundary: keep
     the probe out of its latency *)
  let d = Probe.maybe () in
  if st.op_t0 >= 0 then st.op_t0 <- st.op_t0 + d;
  let e0 = now_ns () in
  if st.op_t0 < 0 then st.op_t0 <- e0;
  let a = build cfg ~replica:(cfg.replica && st.tr <> None) in
  (match st.tr with
  | Some l ->
      l.build_ns <- l.build_ns + (now_ns () - e0);
      l.builds <- l.builds + 1
  | None -> ());
  let ops0 = st.ops in
  (try
     while true do
       if st.op_t0 < 0 then st.op_t0 <- now_ns ();
       let i = st.ops in
       if cfg.migrate_every > 0 && i > 0 && i mod cfg.migrate_every = 0 && st.mig_done_for <> i
       then begin
         migrate st a;
         st.mig_done_for <- i
       end;
       let read, key =
         match st.next with
         | Some op -> op
         | None ->
             let read = Mix.is_read st.mix st.rng in
             let key = Mix.sample_key st.mix st.rng in
             st.next <- Some (read, key);
             (read, key)
       in
       let s = a.owner.(st.key_bucket.(key)) in
       take_slot st a s;
       let value = i + 1 in
       let payload = if read then Kv.Get key else Kv.Put (key, value) in
       let o =
         match st.tr with Some l -> apply_traced st a l payload | None -> S.apply a.h payload
       in
       a.used.(s) <- a.used.(s) + 1;
       check st a ~read ~key ~value o;
       Samples.add st.lat (now_ns () - st.op_t0);
       st.op_t0 <- -1;
       st.next <- None;
       st.ops <- i + 1
     done
   with Epoch_full -> ());
  st.epochs <- (st.ops - ops0, e0, now_ns ()) :: st.epochs

(* ---- the benchmark's entry points ------------------------------------- *)

(* One set-up: the first arena build plus a fixed, untimed warm-up of
   [warmup_epochs] epochs. The warm-up's inputs do not depend on the
   seed, so every set-up does the same work. *)
let warmup_seed = 0x5e7

let setup cfg () =
  let st = create cfg ~seed:warmup_seed ~traced:false in
  for _ = 1 to cfg.warmup_epochs do
    run_epoch st
  done;
  st.failed

let e2e cfg ~seed ~seconds ~setups ~setup_failed ~setup_rss_mb =
  let measure_start = now_ns () in
  let st = create cfg ~seed ~traced:false in
  let budget = int_of_float (seconds *. 1e9) in
  while now_ns () - measure_start < budget || Samples.count st.lat < 1000 do
    run_epoch st
  done;
  let n = Samples.count st.lat in
  let failed = st.failed + setup_failed in
  let fail_frac = float_of_int st.failed /. float_of_int n in
  let metrics, notes =
    end_to_end ~spans:st.epochs ~lat:st.lat ~scale_p99:true ~setups ~rss_mb:setup_rss_mb ~fail_frac
  in
  {
    correct = failed = 0;
    attempted = n;
    failed;
    metrics;
    notes =
      Printf.sprintf "epochs=%d; fail_frac=%.6f (%d of %d ops failed)" (List.length st.epochs)
        fail_frac st.failed n
      :: notes;
  }

(* A pass of fixed work: [epochs] whole epochs from [seed]. *)
let pass cfg ~seed ~epochs ~traced =
  let st = create cfg ~seed ~traced in
  let g0 = major_collections () in
  let t0 = now_ns () and spent0 = !Probe.spent in
  for _ = 1 to epochs do
    run_epoch st
  done;
  let wall = Probe.elapsed_since ~t0 ~spent0 in
  (st, wall, major_collections () - g0)

let traced cfg ~seed ~seconds =
  let epochs = max 1 (int_of_float (Float.round (cfg.trace_epochs_per_s *. seconds))) in
  let u, u_wall, _ = pass cfg ~seed ~epochs ~traced:false in
  let a, a_wall, a_majors = pass cfg ~seed ~epochs ~traced:true in
  let b, _, _ = pass cfg ~seed ~epochs ~traced:true in
  let la = Option.get a.tr and lb = Option.get b.tr in
  let counts (st : state) (l : layers) =
    [
      ("ops", st.ops);
      ("failed", st.failed);
      ("arena.recycles", l.builds);
      ("migration.count", l.migrations);
      ("migration.sealed_pairs", l.sealed);
      ("uc.history_len", l.hist_len);
      ("service.alloc_words", l.apply_words);
      ("uc.alloc_words", l.invoke_words);
      ("spec.alloc_words", l.beta_words);
    ]
  in
  let ca = counts a la and cb = counts b lb in
  let repeat = ca = cb in
  let ops = float_of_int a.ops in
  let per_op x = float_of_int x /. ops in
  let per_mig x = if la.migrations = 0 then 0.0 else float_of_int x /. float_of_int la.migrations in
  let rate st wall = float_of_int st.ops /. secs_of_ns wall in
  let failed = u.failed + a.failed + b.failed in
  {
    correct = repeat && failed = 0;
    attempted = u.ops + a.ops + b.ops;
    failed;
    metrics =
      [
        m "router.route_ns" "ns" (per_op la.route_ns);
        m "service.apply_ns" "ns" (per_op la.apply_ns);
        m "service.alloc_words_per_op" "words" (per_op la.apply_words);
        m "uc.invoke_ns" "ns" (per_op la.invoke_ns);
        m "spec.beta_at_ns" "ns" (per_op la.beta_ns);
        m "uc.alloc_words_per_op" "words" (per_op la.invoke_words);
        m "spec.alloc_words_per_op" "words" (per_op la.beta_words);
        m "uc.history_len" "count" (per_op la.hist_len);
        m "arena.build_ms" "ms" (float_of_int la.build_ns /. 1e6 /. float_of_int la.builds);
        m "arena.recycles" "count" (float_of_int la.builds);
        m "arena.share" "frac" (float_of_int la.build_ns /. float_of_int a_wall);
        m "gc.major_per_kop" "count" (float_of_int a_majors /. (ops /. 1000.0));
        m "migration.migrate_us" "us" (per_mig la.migrate_ns /. 1e3);
        m "migration.count" "count" (float_of_int la.migrations);
        m "migration.sealed_pairs" "count" (per_mig la.sealed);
        m "trace.overhead_frac" "frac" (1.0 -. (rate a a_wall /. rate u u_wall));
      ];
    notes =
      [
        Printf.sprintf "fixed work: %d epochs, %d client ops per pass" epochs a.ops;
        counts_note ca cb;
      ];
  }
