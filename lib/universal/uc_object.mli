(** Generic objects built from composed universal-construction instances
    (Proposition 1): speculate on cheap abortable stages, fall back to a
    wait-free (CAS-based) stage, transferring the full request history on
    every switch.

    Each process holds a {!phandle} tracking its current stage; on abort
    it opens a handle on the next stage initialised with its abort history
    and re-runs its request there. With a wait-free final stage the
    composition never aborts, and by the Abstract composition theorem
    (Theorem 1) the whole chain is one Abstract — hence linearizable.

    {!Typed} interprets committed histories under a sequential
    specification to produce actual responses — the universal-construction
    TAS/queue/fetch&inc objects used as baselines in experiments T5/T6. *)

open Scs_spec

module Make (P : Scs_prims.Prims_intf.S) : sig
  module U : module type of Universal.Make (P)

  type 'i t

  val create :
    name:string ->
    n:int ->
    max_requests:int ->
    stages:(name:string -> slot:int -> 'i Request.t Scs_consensus.Consensus_intf.t) list ->
    unit ->
    'i t
  (** One universal-construction instance per stage; [stages] gives each
      instance's consensus factory (e.g. SplitConsensus, then Bakery, then
      CAS). *)

  val split_bakery_cas :
    n:int -> (name:string -> slot:int -> 'v Scs_consensus.Consensus_intf.t) list
  (** The paper's composed stage list for [n] processes: SplitConsensus,
      then AbortableBakery, then CAS consensus, each slot's instance named
      [name.split[slot]], [name.bakery[slot]] and [name.cas[slot]]. The
      sharded service, the native load register and the bare UC keyspace
      workload all use it. *)

  type 'i phandle

  val phandle : 'i t -> pid:int -> 'i phandle

  val invoke : 'i phandle -> 'i Request.t -> 'i History.t
  (** Run the request through the chain until some stage commits; returns
      the commit history. Raises [Universal.Capacity_exceeded] when the
      current stage runs out of slots, and [Failure] if even the last
      stage aborts (impossible with a wait-free closing stage). *)

  val stage_of : 'i phandle -> int
  (** Index of the stage the process is currently using (0-based). *)

  val switch_lengths : 'i phandle -> int list
  (** Lengths of the abort histories this process transferred so far —
      the state-transfer cost of composition measured by experiment T5. *)

  module Typed : sig
    type ('q, 'i, 'r) obj

    val create : ('q, 'i, 'r) Spec.t -> 'i t -> ('q, 'i, 'r) obj
    val handle : ('q, 'i, 'r) obj -> pid:int -> ('q, 'i, 'r) obj * 'i phandle

    val apply : ('q, 'i, 'r) obj * 'i phandle -> 'i Request.t -> 'r
    (** Commit the request and evaluate its response, [β(h, m)]. Raises
        [Universal.Capacity_exceeded] like {!invoke}. *)
  end
end
