(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads (each one client in a closed loop, on one domain):
   - kv-long-history     1 shard of 512 slots, YCSB-A, 16 zipfian keys
   - kv-sharded-migrate  8 shards of 64 slots, 64 buckets, YCSB-B, 1024
                         uniform keys, a bucket migration every 50 ops
   - fuzz-sharded        Fuzz.run on sharded-kv-migrate, n=3, under the
                         crash-recover portfolio; one op = one checked run

   With --trace 0 it sets up several times (the median is setup_s), then
   measures whole epochs (or fuzz blocks) for at least S seconds and at
   least 1000 ops, and prints the end-to-end metrics, each measurement
   scaled by the host's speed as [Common.Probe] measured it around that
   measurement (see [Common.end_to_end]). With --trace 1 it
   runs a fixed amount of work three times from the same seed -- once
   untraced, twice traced -- prints the per-layer metrics, and requires
   every count of the two traced passes to repeat exactly. The last line
   of standard output is the JSON result. *)

open Common

let end_to_end = [ "ops_per_s"; "p50_us"; "p99_us"; "setup_s"; "peak_rss_mb"; "ok_frac" ]

let per_layer =
  [
    ("router.route_ns", "ns");
    ("service.apply_ns", "ns");
    ("service.alloc_words_per_op", "words");
    ("uc.invoke_ns", "ns");
    ("spec.beta_at_ns", "ns");
    ("uc.alloc_words_per_op", "words");
    ("spec.alloc_words_per_op", "words");
    ("uc.history_len", "count");
    ("arena.build_ms", "ms");
    ("arena.recycles", "count");
    ("arena.share", "frac");
    ("gc.major_per_kop", "count");
    ("migration.migrate_us", "us");
    ("migration.count", "count");
    ("migration.sealed_pairs", "count");
    ("workload.setup_us", "us");
    ("sim.drive_us", "us");
    ("history.check_us", "us");
    ("sim.steps", "count");
    ("sim.rmws", "count");
    ("steps.snapshot", "count");
    ("steps.split", "count");
    ("steps.bakery", "count");
    ("steps.cas", "count");
    ("steps.uc_flags", "count");
    ("steps.router", "count");
    ("steps.migration", "count");
    ("steps.pause", "count");
    ("consensus.aborts", "count");
    ("consensus.handoffs", "count");
    ("sim.crashes", "count");
    ("sim.recoveries", "count");
    ("fuzz.skipped", "count");
    ("trace.overhead_frac", "frac");
  ]

type workload = {
  name : string;
  setup : unit -> int;  (** failed ops of one set-up *)
  e2e :
    seed:int ->
    seconds:float ->
    setups:(float * int * int) list ->
    setup_failed:int ->
    setup_rss_mb:float ->
    result;
  traced : seed:int -> seconds:float -> result;
}

let kv name cfg =
  {
    name;
    setup = Kv_bench.setup cfg;
    e2e = Kv_bench.e2e cfg;
    traced = Kv_bench.traced cfg;
  }

let workloads =
  [
    kv "kv-long-history" Kv_bench.long_history;
    kv "kv-sharded-migrate" Kv_bench.sharded_migrate;
    {
      name = "fuzz-sharded";
      setup = Fuzz_bench.setup;
      e2e = Fuzz_bench.e2e;
      traced = Fuzz_bench.traced;
    };
  ]

(* setup_s is the median of this many set-ups; the first is timed from
   process start. *)
let setup_reps = 5

let usage () =
  prerr_endline
    ("usage: bench.exe --workload {"
    ^ String.concat "|" (List.map (fun w -> w.name) workloads)
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.find_opt (fun w -> w.name = !workload) workloads, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0.0 -> (w, seed, seconds, trace)
  | _ -> usage ()

let json_metric (x : metric) =
  if not (Float.is_finite x.value) then failwith ("metric " ^ x.name ^ " is not finite");
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit

let () =
  let w, seed, seconds, trace = parse_args () in
  Printf.printf
    "{\"host\": {\"nproc\": %S, \"recommended_domain_count\": %d, \"ocaml\": %S, \"commit\": %S}, \
     \"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b}\n%!"
    (nproc ()) (Domain.recommended_domain_count ()) Sys.ocaml_version (git_commit ()) w.name seed
    seconds trace;
  let r =
    if trace then begin
      let setup_failed = w.setup () in
      let r = w.traced ~seed ~seconds in
      {
        r with
        correct = r.correct && setup_failed = 0;
        failed = r.failed + setup_failed;
        metrics = fill_absent ~names:per_layer r.metrics;
      }
    end
    else begin
      let setups =
        List.init setup_reps (fun rep ->
            let t0 = if rep = 0 then process_start_ns else now_ns () in
            let spent0 = !Probe.spent in
            let failed = w.setup () in
            let secs = secs_of_ns (Probe.elapsed_since ~t0 ~spent0) in
            ((secs, t0, now_ns ()), failed))
      in
      (* peak_rss_mb is read once the set-ups are done: the program's own
         footprint on this workload, before the benchmark's latency buffer
         grows with the number of ops a run happens to complete *)
      let r =
        w.e2e ~seed ~seconds ~setups:(List.map fst setups)
          ~setup_failed:(List.fold_left (fun a (_, f) -> a + f) 0 setups)
          ~setup_rss_mb:(peak_rss_mb ())
      in
      assert (List.map (fun (x : metric) -> x.name) r.metrics = end_to_end);
      r
    end
  in
  List.iter print_endline r.notes;
  List.iter (fun (x : metric) -> Printf.printf "%-28s %.6g %s\n" x.name x.value x.unit) r.metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map json_metric r.metrics))
