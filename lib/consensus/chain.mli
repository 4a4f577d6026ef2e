(** Composition of abortable consensus instances into a single consensus
    whose fast path costs only the cheap stages.

    A naive hand-off (abort stage [k], propose your own value at stage
    [k+1]) is unsafe: a slow process can still commit at stage [k] after
    others have moved on, and disagree with stage [k+1]'s decision. The
    chain therefore applies, per stage, the same flag discipline the
    paper's universal construction applies with its [Aborted] register:

    - a process leaving stage [k] first writes [moved[k] := true], then
      probes stage [k] for its best-known decision, which becomes the
      inherited value it proposes at stage [k+1];
    - a process that commits [d] at stage [k] then reads [moved[k]]: if the
      flag is clear it may return [d] — by the flag principle every later
      prober is guaranteed to observe [d] — and if the flag is set it
      downgrades its commit to a switch, carrying [d] to stage [k+1].

    Agreement: if any process returns a stage-[k] decision [d], every
    process that moves past [k] inherits [d], so stage [k+1] can only
    decide [d]. If the final stage is wait-free (e.g. {!Cas_consensus})
    the chain never aborts; [moved] is never set for the last stage, so
    its commits always stand. *)

module Make (P : Scs_prims.Prims_intf.S) : sig
  val make :
    ?on_handoff:(pid:int -> stage:int -> unit) ->
    name:string ->
    'v Consensus_intf.t list ->
    'v Consensus_intf.t
  (** The stage list must be non-empty. The result's [run]/[propose_raw]
      follow {!Consensus_intf}'s conventions; probing consults stages in
      order. [on_handoff] (default a no-op) is invoked each time a
      process leaves an aborted stage [k] carrying its inherited value to
      stage [k+1] — the composition's switch-value handoff — so harnesses
      can count handoffs without instrumenting the simulator (the native
      load harness's per-domain counters hang off this hook). *)

  val split_bakery_cas :
    ?on_handoff:(pid:int -> stage:int -> unit) ->
    name:string ->
    n:int ->
    unit ->
    'v Consensus_intf.t
  (** The paper's composed chain for [n] processes: SplitConsensus, then
      AbortableBakery, then CAS consensus, named [name ^ ".split"],
      [name ^ ".bakery"] and [name ^ ".cas"]. Every engine that runs the
      chain (simulated consensus runs, fuzzing, native load) builds it
      here. *)
end
