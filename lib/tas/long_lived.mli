(** The long-lived resettable test-and-set (Algorithm 2).

    An array [TAS[]] of one-shot composed instances and an atomic register
    [Count] select the current round; only the current winner may reset
    (well-formedness, after Afek et al.), which advances [Count] and
    returns the object to the speculative register-only module — the back
    edge of Figure 1.

    The per-process [crtWinner] flag of the paper is process-local state,
    so each process operates through its own {!handle}.

    The round array is pre-allocated: [rounds] bounds the number of resets
    over the object's lifetime (the paper's array is unbounded; a bound
    keeps the simulator's space census meaningful). *)

open Scs_spec

exception Capacity_exceeded
(** Raised by the [test_and_set] family once all [rounds] are used. *)

module Make (P : Scs_prims.Prims_intf.S) : sig
  module Os : module type of One_shot.Make (P)

  type t
  type handle

  val create : ?strict:bool -> name:string -> rounds:int -> unit -> t
  val handle : t -> pid:int -> handle

  val test_and_set : handle -> Objects.tas_resp
  val test_and_set_staged : handle -> Objects.tas_resp * One_shot.stage

  val test_and_set_info : handle -> Objects.tas_resp * One_shot.stage * int
  (** Also reports the round ([Count] value) the operation executed in. *)

  val reset : handle -> unit
  (** No-op unless the calling handle currently holds the win. *)

  val read_round : handle -> int
  (** [Count.read()] as a proper shared-memory step (must run inside a
      process fiber on the simulator backend). *)

  val value_read : handle -> bool
  (** Whether the current round's one-shot instance has visibly been won
      (a [Count] read plus a {!One_shot.value_read}); the load harness's
      YCSB-read analogue. [false] once round capacity is exceeded. *)

  val instance : t -> round:int -> Os.t
  (** The underlying one-shot instance of a given round (for checkers). *)

  val harness_recycle : t -> unit
  (** Reinitialise every used round instance and rewind [Count] to 0.
      {b Not} part of the algorithm — only sound while no operation is in
      flight and no handle holds [crtWinner]; the load harness calls it at
      a quiescent barrier so a closed loop can run indefinitely against a
      bounded round array. *)
end
