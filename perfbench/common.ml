(* Shared pieces of the benchmark: clock, raw latency samples and their
   percentiles, medians, allocation counters, host facts and the metric
   record every workload reports. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns /. 1e9

(* Taken when the program's modules initialise: [setup_s]'s first set-up
   is measured from here, i.e. from process start. *)
let process_start_ns = now_ns ()

(* ---- raw samples ------------------------------------------------------ *)

(* A growable buffer of integer samples (latencies in ns). Percentiles are
   computed from every raw sample, never from a bucketed histogram. The
   buffer lives outside the OCaml heap, so the major GC never scans it and
   its growth does not slow the program as a run goes on. *)
module Samples = struct
  module A = Bigarray.Array1

  type t = {
    mutable a : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
    mutable n : int;
    mutable marks : int list;  (** when every [window]-th sample was added, newest first *)
  }

  (* Consecutive samples are grouped in windows of this many, each with
     exactly 10 samples beyond its p99. *)
  let window = 1000

  let alloc len = A.create Bigarray.int Bigarray.c_layout len
  let create () = { a = alloc 4096; n = 0; marks = [] }

  let add t x =
    if t.n mod window = 0 then t.marks <- now_ns () :: t.marks;
    if t.n = A.dim t.a then begin
      let b = alloc (2 * t.n) in
      A.blit t.a (A.sub b 0 t.n);
      t.a <- b
    end;
    A.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let count t = t.n

  let sorted t =
    let b = Array.init t.n (A.get t.a) in
    Array.sort compare b;
    b

  (* Every whole window, sorted, with the times its first sample and the
     next window's first sample were added (or now, for the last). *)
  let windows t =
    let marks = Array.of_list (List.rev t.marks) in
    List.init (t.n / window) (fun j ->
        let w = Array.init window (fun i -> A.get t.a ((j * window) + i)) in
        Array.sort compare w;
        let t1 = if j + 1 < Array.length marks then marks.(j + 1) else now_ns () in
        (w, marks.(j), t1))
end

(* Nearest-rank percentile of a sorted array: the value at 1-based rank
   [ceil (q * n)], together with how many samples lie strictly beyond
   that rank. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "percentile: no samples";
  let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
  (sorted.(rank - 1), n - rank)

(* A note line with the latency distribution's shape, in us. *)
let shape_note sorted =
  let us q = float_of_int (fst (percentile sorted q)) /. 1e3 in
  Printf.sprintf "latency us: p10=%.1f p50=%.1f p90=%.1f p95=%.1f p98=%.1f p99=%.1f p99.5=%.1f max=%.1f"
    (us 0.10) (us 0.50) (us 0.90) (us 0.95) (us 0.98) (us 0.99) (us 0.995) (us 1.0)

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "median: empty"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---- allocation and GC ------------------------------------------------ *)

(* Words allocated on this domain's minor heap so far. Exact for
   deterministic single-domain code, which is what the traced run's repeat
   check relies on; the runtime's major-heap word counter is not (it moves
   with promotion timing). The regions measured with it allocate only small
   blocks, which all go to the minor heap. *)
let alloc_words () = int_of_float (Gc.minor_words ())

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* Peak resident set size of this process, from /proc/self/status. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> find ()
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

(* ---- host-speed probe ------------------------------------------------- *)

(* The shared hosts this benchmark runs on change speed in phases that last
   from seconds to minutes, by 20-60%. A register-only loop keeps its speed
   through them; code that calls into the runtime and touches memory slows
   down with the program. So the benchmark samples a fixed probe of that
   kind every [probe_every_ns] between units of work, outside every timed
   interval, and reports its times scaled to a host on which the probe takes
   [nominal_probe_ns]. The probe is the benchmark's own code: it allocates
   nothing, so the program's heap and GC cannot change its speed, and a
   faster or slower program cannot move it. Raw figures are printed too. *)
module Probe = struct
  module A = Bigarray.Array1

  let cells = A.create Bigarray.int Bigarray.c_layout (1 lsl 17)
  let () = A.fill cells 1

  (* Polymorphic and never inlined, so every access goes through the
     runtime's generic bigarray accessors: calls, not a tight load loop. *)
  let[@inline never] rmw_pass a =
    for i = 0 to A.dim a - 1 do
      A.unsafe_set a i (A.unsafe_get a i + i)
    done

  let keys = Array.init 4096 string_of_int
  let table = Hashtbl.create 4096
  let () = Array.iteri (fun i k -> Hashtbl.replace table k i) keys

  let lookups n =
    let s = ref 0 in
    for i = 1 to n do
      s := !s + Hashtbl.find table (Array.unsafe_get keys (i land 4095))
    done;
    ignore (Sys.opaque_identity !s)

  (* The probe's median on a 2-vCPU Xeon (2 MiB L2 per core) at its usual
     speed. *)
  let nominal_probe_ns = 1.5e6
  let probe_every_ns = 250_000_000
  (* (time, probe ns) pairs, newest first *)
  let samples = ref []
  let last = ref (-probe_every_ns)
  let spent = ref 0  (** ns spent probing so far *)

  let sample () =
    let t0 = now_ns () in
    rmw_pass cells;
    let t1 = now_ns () in
    lookups 20_000;
    let t2 = now_ns () in
    samples := (t2, sqrt (float_of_int (t1 - t0) *. float_of_int (t2 - t1))) :: !samples;
    last := t2;
    spent := !spent + (t2 - t0);
    t2 - t0

  (* Sample if the last sample is [probe_every_ns] old; returns the time
     spent, for callers that must keep it out of a running timer. *)
  let maybe () = if now_ns () - !last >= probe_every_ns then sample () else 0

  (* How much slower than nominal the host ran over this process's
     samples: divide times by it, multiply rates by it. *)
  let slowdown () = median (List.map snd !samples) /. nominal_probe_ns

  (* The slowdown over the samples taken from [t0 - margin] to
     [t1 + margin], where [margin] is two probe periods; over all samples
     if there are none. *)
  let slowdown_around ~t0 ~t1 =
    let margin = 2 * probe_every_ns in
    match List.filter (fun (t, _) -> t >= t0 - margin && t <= t1 + margin) !samples with
    | [] -> slowdown ()
    | near -> median (List.map snd near) /. nominal_probe_ns

  let count () = List.length !samples

  (* Wall time since [t0], less the time spent probing since [spent0]. *)
  let elapsed_since ~t0 ~spent0 = now_ns () - t0 - (!spent - spent0)
end

(* ---- host facts ------------------------------------------------------- *)

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
      let line = try String.trim (input_line ic) with End_of_file -> "unknown" in
      (match Unix.close_process_in ic with _ -> ());
      line

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> try Some (String.trim (input_line ic)) with End_of_file -> None)

(* The commit of the checkout, read from [.git] in the working directory
   when there is one; a plain source tree reports "unknown". *)
let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
      let prefix = "ref: " in
      let pl = String.length prefix in
      if String.length head > pl && String.sub head 0 pl = prefix then
        let r = String.sub head pl (String.length head - pl) in
        match read_file (Filename.concat ".git" r) with Some c -> c | None -> "unknown"
      else head

(* ---- metrics ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* The end-to-end metrics every workload reports, from its raw
   measurements: [spans] are the units of work, (ops, start, end); [lat]
   the per-op latencies; [setups] the set-ups, (seconds, start, end).

   The host changes speed in phases of seconds, so each measurement is
   scaled by the probe samples taken around it, not by the run's: a rate
   is multiplied by that slowdown and a time divided by it. ops_per_s is
   the median over spans; setup_s the median over set-ups; p50 and p99 are
   medians, over windows of [Samples.window] consecutive ops, of each
   window's percentile, so a slow phase moves only the windows it covers
   where a run-wide percentile would be taken over by it. With
   [~scale_p99:false], for a workload whose latency tail does not follow
   the probe, p99 is the run-wide p99, not scaled. Returns the metrics and
   note lines. *)
let end_to_end ~spans ~lat ~scale_p99 ~setups ~rss_mb ~fail_frac =
  let spans = List.filter (fun (ops, t0, t1) -> ops > 0 && t1 > t0) spans in
  let scaled_rate (ops, t0, t1) =
    float_of_int ops /. secs_of_ns (t1 - t0) *. Probe.slowdown_around ~t0 ~t1
  in
  let scaled_setup (s, t0, t1) = s /. Probe.slowdown_around ~t0 ~t1 in
  let ws = Samples.windows lat in
  let windowed q =
    median
      (List.map
         (fun (w, t0, t1) -> float_of_int (fst (percentile w q)) /. Probe.slowdown_around ~t0 ~t1)
         ws)
  in
  let sorted = Samples.sorted lat in
  let n = Array.length sorted in
  let raw_p50, _ = percentile sorted 0.50 and raw_p99, beyond = percentile sorted 0.99 in
  let p99_ns = if scale_p99 then windowed 0.99 else float_of_int raw_p99 in
  let raw_rate = median (List.map (fun (ops, t0, t1) -> float_of_int ops /. secs_of_ns (t1 - t0)) spans) in
  let raw_setup = median (List.map (fun (s, _, _) -> s) setups) in
  let per_window = Samples.window - int_of_float (Float.ceil (0.99 *. float_of_int Samples.window)) in
  ( [
      m "ops_per_s" "1/s" (median (List.map scaled_rate spans));
      m "p50_us" "us" (windowed 0.50 /. 1e3);
      m "p99_us" "us" (p99_ns /. 1e3);
      m "setup_s" "s" (median (List.map scaled_setup setups));
      m "peak_rss_mb" "MB" rss_mb;
      m "ok_frac" "frac" (1.0 -. fail_frac);
    ],
    [
      shape_note sorted;
      Printf.sprintf "%d samples in %d windows of %d; p50 the median of the windows' p50s; %s"
        n (List.length ws) Samples.window
        (if scale_p99 then
           Printf.sprintf "p99 the median of the windows' p99s, each with %d samples beyond it"
             per_window
         else Printf.sprintf "p99 over all %d samples, not scaled, %d beyond it" n beyond);
      Printf.sprintf
        "host probe: %d samples, run slowdown %.4f; raw, unscaled: ops_per_s=%.6g \
         p50_us=%.6g p99_us=%.6g setup_s=%.6g fail_frac=%.6g"
        (Probe.count ()) (Probe.slowdown ()) raw_rate
        (float_of_int raw_p50 /. 1e3)
        (float_of_int raw_p99 /. 1e3)
        raw_setup fail_frac;
    ] )

(* A workload's result: the metrics of the requested kind plus the
   correctness verdict and the op accounting of the JSON result line. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

(* The traced run's repeat check, as a note: every count of the two
   traced passes, with both values where they differ. *)
let counts_note ca cb =
  Printf.sprintf "counts %s across two traced passes: %s"
    (if ca = cb then "repeat" else "DIFFER")
    (String.concat " "
       (List.map2
          (fun (k, v) (_, v') ->
            if v = v' then Printf.sprintf "%s=%d" k v else Printf.sprintf "%s=%d/%d" k v v')
          ca cb))

(* Per-layer metrics a workload does not exercise read 0. *)
let fill_absent ~names metrics =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun x -> x.name = name) metrics with
      | Some x -> x
      | None -> m name unit 0.0)
    names
