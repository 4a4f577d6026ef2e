open Scs_spec

exception Capacity_exceeded

module Make (P : Scs_prims.Prims_intf.S) = struct
  module Os = One_shot.Make (P)

  type t = { count : int P.reg; arr : Os.t array; rounds : int }

  type handle = { t : t; pid : int; mutable crt_winner : bool }

  let create ?strict ~name ~rounds () =
    {
      count = P.reg ~name:(name ^ ".Count") 0;
      arr =
        Array.init rounds (fun i ->
            Os.create ?strict ~name:(Printf.sprintf "%s.TAS[%d]" name i) ());
      rounds;
    }

  let handle t ~pid = { t; pid; crt_winner = false }

  let test_and_set_info h =
    let c = P.read h.t.count in
    if c >= h.t.rounds then raise Capacity_exceeded;
    let resp, stage = Os.test_and_set_staged h.t.arr.(c) ~pid:h.pid in
    if resp = Objects.Winner then h.crt_winner <- true;
    (resp, stage, c)

  let test_and_set_staged h =
    let resp, stage, _ = test_and_set_info h in
    (resp, stage)

  let test_and_set h = fst (test_and_set_staged h)

  let reset h =
    if h.crt_winner then begin
      let c = P.read h.t.count in
      P.write h.t.count (c + 1);
      h.crt_winner <- false
    end

  let read_round h = P.read h.t.count

  let value_read h =
    let c = P.read h.t.count in
    if c >= h.t.rounds then false else Os.value_read h.t.arr.(c)

  let instance t ~round = t.arr.(round)

  let harness_recycle t =
    let c = P.read t.count in
    let hi = if c >= t.rounds then t.rounds - 1 else c in
    for i = 0 to hi do
      Os.harness_reset t.arr.(i)
    done;
    P.write t.count 0
end
