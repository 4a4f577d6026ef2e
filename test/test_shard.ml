(* The sharded universal-construction service (lib/shard): routing
   totality and stability across migration epochs, migration safety and
   recovery, the 1-shard differential identity against the bare
   universal construction, and the partitioned-vs-monolithic checker
   agreement on migration-spanning fuzzed histories. All deterministic
   tests run on the native backend single-threaded (no concurrency, so
   outcomes are reproducible); the schedule-sensitive ones go through
   the simulator fuzz harness. *)

open Scs_spec
module Kv = Scs_shard.Kv
module P = Scs_prims.Native_prims
module S = Scs_shard.Service.Make (P)

(* distinct object names per service instance: qcheck creates many *)
let fresh_name =
  let c = ref 0 in
  fun () ->
    incr c;
    Printf.sprintf "tsvc%d" !c

let mk_svc ?(n = 2) ?(shards = 2) ?(buckets = 4) () =
  S.create ~name:(fresh_name ()) ~n ~shards ~buckets ~capacity:128 ()

(* ---- routing: totality and stability --------------------------------- *)

let prop_bucket_total =
  QCheck.Test.make ~count:500 ~name:"bucket_of_key total, deterministic, in range"
    QCheck.(pair int (int_range 1 64))
    (fun (key, buckets) ->
      let b = Kv.bucket_of_key ~buckets key in
      b = Kv.bucket_of_key ~buckets key && 0 <= b && b < buckets)

(* Every key routes to exactly one shard before, during and after a
   random sequence of freeze/assign table transitions, and each
   transition strictly bumps the bucket's epoch (the stale-router retry
   signal can never be missed). *)
let prop_routing_stable =
  QCheck.Test.make ~count:60 ~name:"routing total across migration epochs"
    QCheck.(small_list (pair (int_range 0 3) (int_range 0 1)))
    (fun transitions ->
      let svc = mk_svc () in
      let rt = S.router svc in
      let check_total () =
        List.for_all
          (fun key ->
            let r = S.R.route rt ~key in
            0 <= r.S.R.owner && r.S.R.owner < 2)
          (List.init 32 (fun k -> k))
      in
      check_total ()
      && List.for_all
           (fun (bucket, dst) ->
             let before = S.R.route_bucket rt ~bucket in
             let frozen = S.R.freeze rt ~bucket in
             let ok_frozen =
               frozen.S.R.frozen && frozen.S.R.epoch > before.S.R.epoch && check_total ()
             in
             let after = S.R.assign rt ~bucket ~shard:dst in
             ok_frozen
             && (not after.S.R.frozen)
             && after.S.R.owner = dst
             && after.S.R.epoch > frozen.S.R.epoch
             && check_total ())
           transitions)

(* ---- frozen buckets: bounded retries, never silent drops ------------- *)

let test_frozen_gives_up () =
  let svc = mk_svc () in
  let h = S.handle svc ~pid:0 in
  (match S.apply h (Kv.Put (0, 7)) with
  | S.Done Kv.Ack -> ()
  | _ -> Alcotest.fail "put should commit");
  let b = Kv.bucket_of_key ~buckets:(S.buckets svc) 0 in
  let owner = (S.R.route_bucket (S.router svc) ~bucket:b).S.R.owner in
  ignore (S.R.freeze (S.router svc) ~bucket:b);
  (* single-threaded: nobody will ever unfreeze, so the bounded retry
     loop must surface Gave_up — the op is reported, not dropped *)
  (match S.apply ~retries:5 h (Kv.Get 0) with
  | S.Gave_up -> ()
  | S.Done r -> Alcotest.failf "frozen bucket answered %s" (Kv.show_resp r));
  (* unfreeze in place: the same client op now commits, exactly once *)
  ignore (S.R.assign (S.router svc) ~bucket:b ~shard:owner);
  match S.apply h (Kv.Get 0) with
  | S.Done (Kv.Value 7) -> ()
  | _ -> Alcotest.fail "value lost across freeze/unfreeze"

(* ---- migration: end-to-end, state transfer, idempotent recovery ------ *)

let test_migration_moves_bucket () =
  let svc = mk_svc ~shards:2 ~buckets:4 () in
  let h = S.handle svc ~pid:0 in
  let mig = S.Migration.create ~name:(fresh_name ()) svc in
  List.iter
    (fun (k, v) ->
      match S.apply h (Kv.Put (k, v)) with
      | S.Done Kv.Ack -> ()
      | _ -> Alcotest.fail "seed put failed")
    [ (0, 10); (4, 14); (1, 11) ];
  let b = Kv.bucket_of_key ~buckets:4 0 in
  let src = (S.R.route_bucket (S.router svc) ~bucket:b).S.R.owner in
  let dst = (src + 1) mod 2 in
  S.Migration.migrate mig ~h ~bucket:b ~dst;
  let r = S.R.route_bucket (S.router svc) ~bucket:b in
  Alcotest.(check int) "bucket re-routed to dst" dst r.S.R.owner;
  Alcotest.(check bool) "bucket unfrozen" false r.S.R.frozen;
  (match S.Migration.phase mig with
  | S.Migration.Idle -> ()
  | _ -> Alcotest.fail "migration did not settle to Idle");
  (* the sealed state moved: reads through the router see every write,
     and a fresh write lands on the new owner *)
  List.iter
    (fun (k, v) ->
      match S.apply h (Kv.Get k) with
      | S.Done (Kv.Value got) when got = v -> ()
      | S.Done r -> Alcotest.failf "key %d: got %s, want %d" k (Kv.show_resp r) v
      | S.Gave_up -> Alcotest.failf "key %d: gave up" k)
    [ (0, 10); (4, 14); (1, 11) ];
  (match S.apply h (Kv.Put (0, 99)) with
  | S.Done Kv.Ack -> ()
  | _ -> Alcotest.fail "post-migration put failed");
  (match S.apply h (Kv.Get 0) with
  | S.Done (Kv.Value 99) -> ()
  | _ -> Alcotest.fail "post-migration value wrong");
  (* recovery on an Idle migration is a no-op *)
  S.Migration.recover mig ~h;
  match S.apply h (Kv.Get 0) with
  | S.Done (Kv.Value 99) -> ()
  | _ -> Alcotest.fail "idle recover disturbed state"

let test_migration_in_place () =
  (* migrating a bucket onto its current owner: freeze, reinstall,
     unfreeze — state intact *)
  let svc = mk_svc ~shards:2 ~buckets:4 () in
  let h = S.handle svc ~pid:0 in
  let mig = S.Migration.create ~name:(fresh_name ()) svc in
  ignore (S.apply h (Kv.Put (2, 22)));
  let b = Kv.bucket_of_key ~buckets:4 2 in
  let owner = (S.R.route_bucket (S.router svc) ~bucket:b).S.R.owner in
  S.Migration.migrate mig ~h ~bucket:b ~dst:owner;
  match S.apply h (Kv.Get 2) with
  | S.Done (Kv.Value 22) -> ()
  | _ -> Alcotest.fail "in-place migration lost the bucket"

(* ---- 1-shard differential identity ----------------------------------- *)

(* The same deterministic op sequence through (a) the 1-shard service
   and (b) the bare universal-construction keyspace object must yield
   identical responses op for op: the router/migration layer degenerates
   to the identity when there is nothing to route. *)
let script n =
  List.concat_map
    (fun pid ->
      List.map
        (fun req -> (pid, req))
        [
          Kv.Put (pid mod 4, (10 * pid) + 1);
          Kv.Get (pid mod 4);
          Kv.Put ((pid + 1) mod 4, (10 * pid) + 2);
          Kv.Get ((pid + 1) mod 4);
          Kv.Get ((pid + 2) mod 4);
        ])
    (List.init n (fun p -> p))

let test_s1_identity () =
  let n = 3 in
  let svc = mk_svc ~n ~shards:1 ~buckets:1 () in
  let sh = Array.init n (fun pid -> S.handle svc ~pid) in
  let svc_resps =
    List.map
      (fun (pid, req) ->
        match S.apply sh.(pid) req with
        | S.Done r -> r
        | S.Gave_up -> Alcotest.fail "1-shard service gave up uncontended")
      (script n)
  in
  let obj =
    S.Uc.Typed.create (Kv.spec ~buckets:1)
      (S.Uc.create ~name:(fresh_name ()) ~n ~max_requests:128
         ~stages:(S.Uc.split_bakery_cas ~n) ())
  in
  let uh = Array.init n (fun pid -> S.Uc.Typed.handle obj ~pid) in
  let gen = Request.Gen.create () in
  let uc_resps =
    List.map (fun (pid, req) -> S.Uc.Typed.apply uh.(pid) (Request.Gen.fresh gen req)) (script n)
  in
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "op %d: service %s <> uc %s" i (Kv.show_resp a) (Kv.show_resp b))
    (List.combine svc_resps uc_resps)

(* ---- fuzzed migration-spanning histories ------------------------------ *)

(* Random schedules over the migrating 2-shard workload, including
   crash and crash-recover faults fired mid-migration. The workload's
   check runs the per-key partitioned linearizability verdict AND the
   monolithic cross-check on every small history — so each clean run is
   one verified instance of the compositionality agreement. *)
let fuzz_specs ~crash ~recover =
  [ { Scs_sim.Fuzz.kind = Scs_sim.Fuzz.Uniform; crash_faults = crash; crash_recover = recover } ]

let mini_fuzz name w ~crash ~recover =
  let report =
    Scs_workload.Fuzz_run.fuzz ~policies:(fuzz_specs ~crash ~recover) ~runs:120
      ~max_violations:1 ~seed:91 w ~n:w.Scs_workload.Fuzz_run.default_n
  in
  match report.Scs_sim.Fuzz.r_violations with
  | [] -> ()
  | v :: _ -> Alcotest.failf "%s: %s" name v.Scs_sim.Fuzz.v_error

let test_fuzz_migrate () =
  mini_fuzz "sharded-kv-migrate" Scs_workload.Shard_run.sharded_kv_migrate ~crash:false
    ~recover:false

let test_fuzz_migrate_crash () =
  mini_fuzz "sharded-kv-migrate+crash" Scs_workload.Shard_run.sharded_kv_migrate ~crash:true
    ~recover:false

let test_fuzz_migrate_recover () =
  mini_fuzz "sharded-kv-migrate+crash-recover" Scs_workload.Shard_run.sharded_kv_migrate
    ~crash:true ~recover:true

let test_fuzz_s1_vs_uc () =
  (* the differential pair both fuzz clean on the same seeds *)
  mini_fuzz "sharded-kv-s1" Scs_workload.Shard_run.sharded_kv_s1 ~crash:false ~recover:false;
  mini_fuzz "uc-kv" Scs_workload.Shard_run.uc_kv ~crash:false ~recover:false

let props =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest ~rand:(Test_seed.rand ()) t)
    [ prop_bucket_total; prop_routing_stable ]

let tests =
  props
  @ [
      Alcotest.test_case "frozen bucket: bounded Gave_up, then exactly-once" `Quick
        test_frozen_gives_up;
      Alcotest.test_case "migration moves a bucket with its state" `Quick
        test_migration_moves_bucket;
      Alcotest.test_case "in-place migration preserves state" `Quick test_migration_in_place;
      Alcotest.test_case "1-shard service ≡ bare UC (response identity)" `Quick
        test_s1_identity;
      Alcotest.test_case "fuzz: migrating service (uniform)" `Slow test_fuzz_migrate;
      Alcotest.test_case "fuzz: migrating service (crash)" `Slow test_fuzz_migrate_crash;
      Alcotest.test_case "fuzz: migrating service (crash-recover)" `Slow
        test_fuzz_migrate_recover;
      Alcotest.test_case "fuzz: differential pair both clean" `Slow test_fuzz_s1_vs_uc;
    ]
