(* Cross-validation of the exploration engine itself (lib/sim/explore):
   - the single-replay DFS enumerates exactly the same maximal schedules
     as a naive replay-at-every-node reference enumerator;
   - sleep-set POR visits a subset of schedules but preserves every
     reachable outcome profile (it prunes only commuting reorderings);
   - multicore fan-out (domains > 1) covers the same schedule count;
   - depth-truncated runs are counted separately and never checked;
   - nondeterministic setups are rejected with [Replay_drift], and
     mid-run allocation is rejected under POR;
   - exploring a fuzz-registry workload ([Fuzz_run.explore]) reproduces
     the one-shot TAS exploration counts, on one domain or two. *)

open Scs_sim

(* ---- a naive reference enumerator: the seed engine's semantics ------- *)

let naive_schedules ?(max_schedules = 1_000_000) ~n ~setup () =
  let acc = ref [] in
  let count = ref 0 in
  let replay prefix =
    let sim = Sim.create ~n () in
    setup sim;
    List.iter (fun p -> if Sim.is_runnable sim p then Sim.step sim p) (List.rev prefix);
    sim
  in
  let rec dfs prefix =
    if !count < max_schedules then begin
      let sim = replay prefix in
      match Sim.runnable sim with
      | [] ->
          incr count;
          acc := List.rev prefix :: !acc
      | rs -> List.iter (fun p -> dfs (p :: prefix)) rs
    end
  in
  dfs [];
  List.sort compare !acc

let engine_schedules ?max_schedules ?(por = false) ?(domains = 1) ~n ~setup () =
  let acc = ref [] in
  let m = Mutex.create () in
  let check _sim sched =
    Mutex.lock m;
    acc := sched :: !acc;
    Mutex.unlock m
  in
  let outcome = Explore.exhaustive ?max_schedules ~por ~domains ~n ~setup ~check () in
  (outcome, List.sort compare !acc)

(* ---- workloads -------------------------------------------------------- *)

(* Two registers, partly disjoint accesses: enough commuting structure for
   POR to bite, small enough to enumerate by hand-countable means. *)
let regs_setup ~n ~writes_per_proc sim =
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let r = Array.init n (fun i -> P.reg ~name:(Printf.sprintf "r%d" i) 0) in
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () ->
        for k = 1 to writes_per_proc do
          P.write r.(pid) k;
          (* one shared-register read creates real conflicts *)
          ignore (P.read r.(0))
        done)
  done

(* The classic lost-update race: read-modify-write on one register without
   atomicity. [obs] records the value each process read. *)
let lost_update_setup obs sim =
  let n = Array.length obs in
  Array.fill obs 0 n (-1);
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let c = P.reg ~name:"c" 0 in
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () ->
        let v = P.read c in
        obs.(pid) <- v;
        P.write c (v + 1))
  done

(* ---- DFS vs the naive reference -------------------------------------- *)

let test_same_schedules_as_naive () =
  List.iter
    (fun (n, writes_per_proc) ->
      let setup = regs_setup ~n ~writes_per_proc in
      let reference = naive_schedules ~n ~setup () in
      let outcome, got = engine_schedules ~n ~setup () in
      Alcotest.(check bool) "untruncated" false outcome.Explore.truncated;
      Alcotest.(check int)
        (Printf.sprintf "schedule count n=%d w=%d" n writes_per_proc)
        (List.length reference) (List.length got);
      Alcotest.(check bool)
        (Printf.sprintf "identical schedule sets n=%d w=%d" n writes_per_proc)
        true
        (reference = got))
    [ (2, 2); (3, 1) ]

let test_outcome_field_consistency () =
  let setup = regs_setup ~n:2 ~writes_per_proc:2 in
  let outcome, scheds = engine_schedules ~n:2 ~setup () in
  Alcotest.(check int) "schedules = checks run" outcome.Explore.schedules
    (List.length scheds);
  Alcotest.(check int) "plain DFS prunes nothing" 0 outcome.Explore.pruned;
  Alcotest.(check int) "no truncated runs" 0 outcome.Explore.truncated_runs;
  Alcotest.(check bool) "wall time measured" true (outcome.Explore.wall_s >= 0.0)

(* ---- POR: subset of schedules, same reachable outcomes ---------------- *)

let test_por_preserves_outcome_profiles () =
  let n = 3 in
  let obs = Array.make n (-1) in
  let profiles por =
    let seen = Hashtbl.create 16 in
    let check _sim _sched = Hashtbl.replace seen (Array.to_list obs) () in
    let outcome =
      Explore.exhaustive ~por ~n ~setup:(lost_update_setup obs) ~check ()
    in
    Alcotest.(check bool) "untruncated" false outcome.Explore.truncated;
    let ps = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
    (outcome, List.sort compare ps)
  in
  let full, full_profiles = profiles false in
  let por, por_profiles = profiles true in
  Alcotest.(check bool) "POR visits fewer schedules" true
    (por.Explore.schedules < full.Explore.schedules);
  Alcotest.(check bool) "POR pruned something" true (por.Explore.pruned > 0);
  (* every observation profile — including the lost-update races where
     two processes read the same value — survives the reduction *)
  Alcotest.(check (list (list int))) "same reachable profiles" full_profiles por_profiles;
  (* the race is genuinely present in the reduced exploration *)
  Alcotest.(check bool) "lost update reachable" true
    (List.exists
       (fun p -> List.length (List.sort_uniq compare p) < n)
       por_profiles)

let test_por_schedules_are_a_subset () =
  let setup = regs_setup ~n:2 ~writes_per_proc:2 in
  let _, full = engine_schedules ~n:2 ~setup () in
  let outcome, reduced = engine_schedules ~por:true ~n:2 ~setup () in
  Alcotest.(check bool) "pruned" true (outcome.Explore.pruned > 0);
  Alcotest.(check bool) "subset of the full schedule set" true
    (List.for_all (fun s -> List.mem s full) reduced)

(* ---- multicore fan-out ------------------------------------------------ *)

let test_domains_cover_same_space () =
  let setup = regs_setup ~n:3 ~writes_per_proc:1 in
  let seq, seq_scheds = engine_schedules ~n:3 ~setup () in
  let par, par_scheds = engine_schedules ~domains:2 ~n:3 ~setup () in
  Alcotest.(check int) "same schedule count" seq.Explore.schedules par.Explore.schedules;
  Alcotest.(check bool) "identical schedule sets" true (seq_scheds = par_scheds);
  let seq_por, _ = engine_schedules ~por:true ~n:3 ~setup () in
  let par_por, _ = engine_schedules ~por:true ~domains:2 ~n:3 ~setup () in
  Alcotest.(check int) "same POR schedule count" seq_por.Explore.schedules
    par_por.Explore.schedules

(* ---- truncation accounting -------------------------------------------- *)

let test_depth_truncated_runs_not_checked () =
  let setup = regs_setup ~n:2 ~writes_per_proc:4 in
  let checked = ref 0 in
  let check _ _ = incr checked in
  let outcome = Explore.exhaustive ~max_depth:6 ~n:2 ~setup ~check () in
  Alcotest.(check bool) "truncated flagged" true outcome.Explore.truncated;
  Alcotest.(check bool) "some runs hit the depth bound" true
    (outcome.Explore.truncated_runs > 0);
  (* maximal schedules only: every check saw a completed run *)
  Alcotest.(check int) "checks = maximal schedules" outcome.Explore.schedules !checked;
  Alcotest.(check int) "nothing completes within 6 turns" 0 outcome.Explore.schedules

let test_budget_truncation () =
  let setup = regs_setup ~n:3 ~writes_per_proc:2 in
  let outcome = Explore.exhaustive ~max_schedules:50 ~n:3 ~setup ~check:(fun _ _ -> ()) () in
  Alcotest.(check bool) "truncated" true outcome.Explore.truncated;
  Alcotest.(check int) "stopped at the budget" 50 outcome.Explore.schedules

(* ---- misuse is reported, not silently absorbed ------------------------ *)

let test_nondeterministic_setup_raises () =
  (* the second replay builds a different workload: the engine must notice
     the drift instead of silently exploring garbage *)
  let calls = ref 0 in
  let setup sim =
    incr calls;
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let r = P.reg ~name:"r" 0 in
    let work = if !calls = 1 then 3 else 1 in
    for pid = 0 to 1 do
      Sim.spawn sim pid (fun () ->
          for k = 1 to work do
            P.write r k
          done)
    done
  in
  let drifted = ref false in
  (try ignore (Explore.exhaustive ~n:2 ~setup ~check:(fun _ _ -> ()) ())
   with Explore.Replay_drift _ -> drifted := true);
  Alcotest.(check bool) "replay drift detected" true !drifted

let test_por_rejects_midrun_allocation () =
  let setup sim =
    let module P = (val Scs_prims.Sim_prims.make sim) in
    let r = P.reg ~name:"r" 0 in
    for pid = 0 to 1 do
      Sim.spawn sim pid (fun () ->
          P.write r 1;
          (* allocating inside the run invalidates footprint-based
             independence: object ids are no longer schedule-invariant *)
          let extra = P.reg ~name:"extra" 0 in
          P.write extra pid)
    done
  in
  let rejected = ref false in
  (try ignore (Explore.exhaustive ~por:true ~n:2 ~setup ~check:(fun _ _ -> ()) ())
   with Invalid_argument _ -> rejected := true);
  Alcotest.(check bool) "mid-run allocation rejected under POR" true !rejected;
  (* without POR the same workload is fine *)
  let outcome = Explore.exhaustive ~n:2 ~setup ~check:(fun _ _ -> ()) () in
  Alcotest.(check bool) "plain engine accepts it" false outcome.Explore.truncated

(* POR exploration of the registered one-shot TAS workloads at n = 3:
   complete, with the schedule, pruning and violation counts the
   hand-written one-shot explorer reported before it was folded into the
   registry. f1 keeps finding F-1's two non-linearizable schedules; two
   worker domains (one workload instance each) count the same. *)
let test_registry_explore_counts () =
  List.iter
    (fun (name, schedules, pruned, violations) ->
      let w = Option.get (Scs_workload.Fuzz_run.find name) in
      List.iter
        (fun domains ->
          let o, bad, skipped = Scs_workload.Fuzz_run.explore ~por:true ~domains w ~n:3 in
          let what s = Printf.sprintf "%s (%d domains) %s" name domains s in
          Alcotest.(check bool) (what "complete") false o.Explore.truncated;
          Alcotest.(check int) (what "schedules") schedules o.Explore.schedules;
          Alcotest.(check int) (what "pruned") pruned o.Explore.pruned;
          Alcotest.(check int) (what "violations") violations bad;
          Alcotest.(check int) (what "skipped") 0 skipped)
        [ 1; 2 ])
    [
      ("f1", 1956, 21806, 2);
      ("tas-strict", 8709, 77324, 0);
      ("tas-solo-fast", 1800, 19815, 0);
      ("tas-hardware", 6, 23, 0);
    ]

let tests =
  [
    Alcotest.test_case "matches naive enumerator" `Quick test_same_schedules_as_naive;
    Alcotest.test_case "outcome fields consistent" `Quick test_outcome_field_consistency;
    Alcotest.test_case "POR preserves outcome profiles" `Quick
      test_por_preserves_outcome_profiles;
    Alcotest.test_case "POR schedules form a subset" `Quick test_por_schedules_are_a_subset;
    Alcotest.test_case "domains cover same space" `Quick test_domains_cover_same_space;
    Alcotest.test_case "depth-truncated runs not checked" `Quick
      test_depth_truncated_runs_not_checked;
    Alcotest.test_case "budget truncation exact" `Quick test_budget_truncation;
    Alcotest.test_case "nondeterministic setup raises" `Quick
      test_nondeterministic_setup_raises;
    Alcotest.test_case "POR rejects mid-run allocation" `Quick
      test_por_rejects_midrun_allocation;
    Alcotest.test_case "registry workloads: one-shot TAS counts" `Quick
      test_registry_explore_counts;
  ]
