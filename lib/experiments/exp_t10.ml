(** T10 (infrastructure) — Schedule-exploration throughput.

    Every mechanically checked safety claim in this repo (splitter mutual
    exclusion, Lemmas 4–7, Theorem 2, abortable-consensus agreement) rests
    on [Explore.exhaustive]. This experiment benchmarks the exploration
    engine itself on the two workloads the tests lean on hardest:

    - the splitter with n = 3 (full space: 236,880 maximal schedules), and
    - the composed speculative TAS (A1 ∘ A2) with n = 2.

    Three engines are compared: the seed implementation (replay the whole
    prefix at {e every} DFS node), the single-replay DFS (replay only on
    backtrack), and single-replay + sleep-set partial-order reduction,
    optionally fanned out over OCaml domains. "Covered" schedules counts
    the maximal schedules certified — for POR runs every pruned schedule is
    covered by the commuting representative that was checked, so the
    steps-per-covered-schedule column is the cost of certifying the same
    space, which is the quantity the test budgets buy. *)

open Scs_util
open Scs_sim
open Scs_workload

(* ---- workloads -------------------------------------------------------- *)

let splitter_setup ~n sim =
  let module P = (val Scs_prims.Sim_prims.make sim) in
  let module Sp = Scs_consensus.Splitter.Make (P) in
  let s = Sp.create ~name:"s" () in
  for pid = 0 to n - 1 do
    Sim.spawn sim pid (fun () -> ignore (Sp.split s ~pid))
  done

(* ---- the seed engine, kept verbatim as the baseline ------------------- *)

let seed_exhaustive ?(max_schedules = 200_000) ?(max_depth = 10_000) ~n ~setup ~check () =
  let count = ref 0 in
  let steps = ref 0 in
  let truncated = ref false in
  let t0 = Unix.gettimeofday () in
  let replay prefix =
    let sim = Sim.create ~n () in
    setup sim;
    List.iter
      (fun p ->
        if Sim.is_runnable sim p then begin
          Sim.step sim p;
          incr steps
        end)
      (List.rev prefix);
    sim
  in
  let rec dfs prefix depth =
    if !count >= max_schedules then truncated := true
    else begin
      let sim = replay prefix in
      match Sim.runnable sim with
      | [] ->
          incr count;
          check sim (List.rev prefix)
      | rs ->
          if depth >= max_depth then begin
            incr count;
            truncated := true;
            check sim (List.rev prefix)
          end
          else List.iter (fun p -> dfs (p :: prefix) (depth + 1)) rs
    end
  in
  dfs [] 0;
  (!count, !steps, Unix.gettimeofday () -. t0, !truncated)

(* ---- table helpers ---------------------------------------------------- *)

let rate schedules wall = if wall <= 0.0 then 0.0 else float_of_int schedules /. wall

let row ~name ~visited ~covered ~pruned ~steps ~wall ~truncated =
  [
    name;
    Printf.sprintf "%d%s" visited (if truncated then "*" else "");
    string_of_int covered;
    string_of_int pruned;
    string_of_int steps;
    Exp_common.f2 (float_of_int steps /. float_of_int (max 1 covered));
    Printf.sprintf "%.0f" (rate visited wall);
    Exp_common.f2 wall;
  ]

let header =
  [ "engine"; "visited"; "covered"; "pruned"; "steps"; "steps/cov"; "visited/s"; "wall s" ]

(* ---- the experiment --------------------------------------------------- *)

let splitter_table ~n ~seed_budget =
  let setup = splitter_setup ~n in
  let nocheck _ _ = () in
  let seed_n, seed_steps, seed_wall, seed_trunc =
    seed_exhaustive ~max_schedules:seed_budget ~n ~setup ~check:nocheck ()
  in
  let full = Explore.exhaustive ~max_schedules:5_000_000 ~n ~setup ~check:nocheck () in
  let covered = full.Explore.schedules in
  (* fan the full-space enumeration out over 2 domains: coverage must be
     identical; whether wall time drops depends on the host (on small
     containers inter-domain GC coordination can outweigh the split) *)
  let par =
    Explore.exhaustive ~max_schedules:5_000_000 ~domains:2 ~n ~setup ~check:nocheck ()
  in
  let por =
    Explore.exhaustive ~max_schedules:5_000_000 ~por:true ~n ~setup ~check:nocheck ()
  in
  let seed_per = float_of_int seed_steps /. float_of_int (max 1 seed_n) in
  let por_per = float_of_int por.Explore.steps_replayed /. float_of_int (max 1 covered) in
  Table.print
    ~title:(Printf.sprintf "Splitter n=%d: schedule exploration engines" n)
    ~header
    [
      row
        ~name:(Printf.sprintf "seed replay-per-node (budget %d)" seed_budget)
        ~visited:seed_n ~covered:seed_n ~pruned:0 ~steps:seed_steps ~wall:seed_wall
        ~truncated:seed_trunc;
      row ~name:"single-replay DFS" ~visited:full.Explore.schedules ~covered ~pruned:0
        ~steps:full.Explore.steps_replayed ~wall:full.Explore.wall_s
        ~truncated:full.Explore.truncated;
      row ~name:"single-replay DFS, 2 domains" ~visited:par.Explore.schedules ~covered
        ~pruned:par.Explore.pruned ~steps:par.Explore.steps_replayed
        ~wall:par.Explore.wall_s ~truncated:par.Explore.truncated;
      row ~name:"single-replay + POR" ~visited:por.Explore.schedules ~covered
        ~pruned:por.Explore.pruned ~steps:por.Explore.steps_replayed
        ~wall:por.Explore.wall_s ~truncated:por.Explore.truncated;
    ];
  Exp_common.note
    (Printf.sprintf
       "steps per covered schedule: seed %.1f vs POR %.2f — a %.0fx reduction in \
        simulator work to certify the same %d-schedule space (* = budget-truncated \
        sample). The 2-domain row must visit the same %d schedules; its wall-clock \
        benefit is hardware-dependent."
       seed_per por_per (seed_per /. por_per) covered covered)

let composed_table ~n ~budget =
  let run ~por = Fuzz_run.explore ~max_schedules:budget ~por Fuzz_run.f1 ~n in
  let plain, bad_plain, _ = run ~por:false in
  let por, bad_por, _ = run ~por:true in
  let covered = plain.Explore.schedules in
  Table.print
    ~title:
      (Printf.sprintf "Composed TAS (A1∘A2) n=%d: full linearizability check per schedule"
         n)
    ~header
    [
      row ~name:"single-replay DFS" ~visited:plain.Explore.schedules ~covered
        ~pruned:0 ~steps:plain.Explore.steps_replayed ~wall:plain.Explore.wall_s
        ~truncated:plain.Explore.truncated;
      row ~name:"single-replay + POR" ~visited:por.Explore.schedules
        ~covered:(if por.Explore.truncated then por.Explore.schedules else covered)
        ~pruned:por.Explore.pruned ~steps:por.Explore.steps_replayed
        ~wall:por.Explore.wall_s ~truncated:por.Explore.truncated;
    ];
  Exp_common.note
    (Printf.sprintf
       "violations: %d (plain) vs %d (POR) — identical verdicts; POR visits %.1f%% of \
        the schedules."
       bad_plain bad_por
       (100.0
       *. float_of_int por.Explore.schedules
       /. float_of_int (max 1 plain.Explore.schedules)))

let run () =
  Exp_common.section "T10"
    "Explorer throughput: single-replay DFS, partial-order reduction, multicore fan-out";
  splitter_table ~n:3 ~seed_budget:200_000;
  print_newline ();
  composed_table ~n:2 ~budget:1_500_000;
  print_newline ()
