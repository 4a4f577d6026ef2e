(** Simulated test-and-set workloads: the glue between the algorithms, the
    deterministic scheduler and the checkers. Every experiment and most
    tests funnel through this module. *)

open Scs_spec
open Scs_history
open Scs_composable
open Scs_sim

type algo =
  | Composed  (** the speculative A1 ∘ A2 of Section 6, verbatim *)
  | Strict  (** A1 (strict variant) ∘ A2: strictly linearizable *)
  | Solo_fast  (** the Appendix B variant *)
  | Hardware  (** raw hardware TAS *)
  | Tournament  (** AGTV-style register-only randomized TAS *)

val algo_name : algo -> string

type op_record = {
  pid : int;
  round : int;  (** long-lived round (0 for one-shot runs) *)
  resp : Objects.tas_resp;
  stage : Scs_tas.One_shot.stage option;  (** [None] for baselines *)
  steps : int;
  rmws : int;
  raws : int;  (** RAW fences *)
  invoke_ts : int;
  resp_ts : int;
}

type result = {
  ops : op_record list;
  outer : (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.event array;
      (** client-level trace: invokes and commits only *)
  a1 : (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.event array;
      (** module-level trace of A1 (invoke/commit/abort); empty for
          baselines *)
  a2 : (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.event array;
      (** module-level trace of A2 (init/commit) *)
  mem : Mem_event.t array;  (** low-level memory steps *)
  sim : Sim.t;
  schedule : int array;
      (** the complete executed pid schedule, one entry per scheduler
          turn; replaying it with [Policy.scripted ~strict:true] (under
          the same crash wrapper) reproduces this run exactly *)
  registers : int;  (** base objects allocated *)
  rmw_objects : int;
  round_of_req : (int, int) Hashtbl.t;  (** request id → long-lived round *)
}

(** {1 The one-shot operation}

    Every engine that runs a one-shot test-and-set ({!one_shot}, the
    {!Fuzz_run} TAS workloads and so [scs explore], the {!Obs_run}
    stats targets) builds the operation here, so the A1/A2 split, its
    observability events and the object names are written once. *)

type tas_trace = (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.t

type op = {
  apply :
    pid:int -> Objects.tas_req Request.t -> Objects.tas_resp * Scs_tas.One_shot.stage option;
      (** One test-and-set by [pid]; the stage is [None] for baselines. *)
  rearm : Scs_util.Rng.t -> unit;
      (** Draw [Tournament]'s per-process coin streams from the given rng
          ([n] splits, pid order); a no-op for every other algorithm.
          Until called, process [i] flips coins from [Rng.create (i + 1)]. *)
}

val object_name : algo -> string
(** The object-name prefix {!one_shot} and the stats targets use:
    [tas], [sftas], [hw] or [agtv]. *)

val op :
  ?outer:tas_trace ->
  ?a1:tas_trace ->
  ?a2:tas_trace ->
  (module Scs_prims.Prims_intf.S) ->
  obs:Scs_obs.Obs.t ->
  name:string ->
  n:int ->
  algo ->
  op
(** Allocate the algorithm's objects (named [name.*]) on the primitives
    and return its operation. [outer] records each operation's invoke
    and commit; [a1] records the speculative module's invoke and commit
    or abort, [a2] the fallback module's init and commit (composed
    algorithms only). Each abort into the fallback also reports an
    abort and a switch-value handoff to [obs]; on {!Scs_obs.Obs.null}
    that costs nothing. *)

val one_shot :
  ?seed:int ->
  ?backend:Scs_prims.Backend.t ->
  ?trace_mem:bool ->
  ?crashes:(int * int) list ->
  ?obs:Scs_obs.Obs.t ->
  n:int ->
  algo:algo ->
  policy:(Scs_util.Rng.t -> Policy.t) ->
  unit ->
  result
(** Every process performs exactly one test-and-set. [policy] receives a
    deterministic sub-stream of [seed]. [backend] (default
    {!Scs_prims.Backend.default}) selects the simulator primitive
    backend. [crashes] are [(pid, after_steps)] pairs. [obs] (default
    disabled) receives an operation bracket per test-and-set plus an
    abort + switch-value handoff whenever A1 aborts into A2, so
    per-operation steps and contention can be measured. *)

val long_lived :
  ?seed:int ->
  ?backend:Scs_prims.Backend.t ->
  ?trace_mem:bool ->
  ?crashes:(int * int) list ->
  ?strict:bool ->
  ?obs:Scs_obs.Obs.t ->
  n:int ->
  ops_per_proc:int ->
  policy:(Scs_util.Rng.t -> Policy.t) ->
  unit ->
  result
(** The resettable object of Algorithm 2 (always the Composed algorithm):
    each process runs [ops_per_proc] cycles of test-and-set followed, on a
    win, by reset. [round] in each {!op_record} is the [Count] value the
    operation started from. The outer trace uses the one-shot TAS request
    type per round; use [rounds_of] to regroup it. *)

val rounds_of :
  result -> (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.operation list list
(** Long-lived operations grouped by round, for
    {!Scs_history.Tas_lin.check_long_lived}. *)

(** {1 Derived judgements} *)

val winners : result -> op_record list
val step_contended_ops : result -> (op_record * bool) list
(** Each operation paired with "did it run under step contention"
    (requires [trace_mem:true]). *)
