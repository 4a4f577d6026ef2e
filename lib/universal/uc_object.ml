open Scs_spec

module Make (P : Scs_prims.Prims_intf.S) = struct
  module U = Universal.Make (P)

  type 'i t = { ucs : 'i U.t array; n_stages : int }

  let create ~name ~n ~max_requests ~stages () =
    let ucs =
      List.mapi
        (fun i make ->
          let uname = Printf.sprintf "%s.stage%d" name i in
          U.create ~name:uname ~n ~max_requests
            ~make_cons:(fun ~slot -> make ~name:(Printf.sprintf "%s.cons%d" uname slot) ~slot)
            ())
        stages
    in
    match ucs with
    | [] -> invalid_arg "Uc_object.create: no stages"
    | _ -> { ucs = Array.of_list ucs; n_stages = List.length ucs }

  type 'i phandle = {
    t : 'i t;
    pid : int;
    mutable stage : int;
    mutable h : 'i U.handle;
    mutable switches : int list;  (** lengths of transferred histories *)
  }

  let phandle t ~pid = { t; pid; stage = 0; h = U.handle t.ucs.(0) ~pid ~init:[]; switches = [] }

  let rec invoke ph req =
    match U.invoke ph.h req with
    | Universal.Committed hist -> hist
    | Universal.Aborted_with hist ->
        if ph.stage + 1 >= ph.t.n_stages then
          failwith "Uc_object.invoke: final stage aborted"
        else begin
          ph.switches <- List.length hist :: ph.switches;
          ph.stage <- ph.stage + 1;
          ph.h <- U.handle ph.t.ucs.(ph.stage) ~pid:ph.pid ~init:hist;
          invoke ph req
        end

  module Sc = Scs_consensus.Split_consensus.Make (P)
  module Ab = Scs_consensus.Abortable_bakery.Make (P)
  module Cc = Scs_consensus.Cas_consensus.Make (P)

  let split_bakery_cas ~n =
    let spf = Printf.sprintf in
    [
      (fun ~name ~slot -> Sc.instance (Sc.create ~name:(spf "%s.split[%d]" name slot) ()));
      (fun ~name ~slot -> Ab.instance (Ab.create ~name:(spf "%s.bakery[%d]" name slot) ~n ()));
      (fun ~name ~slot -> Cc.instance (Cc.create ~name:(spf "%s.cas[%d]" name slot) ()));
    ]

  let stage_of ph = ph.stage
  let switch_lengths ph = List.rev ph.switches

  module Typed = struct
    type ('q, 'i, 'r) obj = { spec : ('q, 'i, 'r) Spec.t; chain : 'i t }

    let create spec chain = { spec; chain }
    let handle obj ~pid = (obj, phandle obj.chain ~pid)

    let apply (obj, ph) req =
      let hist = invoke ph req in
      match History.beta_at obj.spec hist (Request.id req) with
      | Some r -> r
      | None -> failwith "Uc_object.Typed.apply: committed history misses the request"
  end
end
