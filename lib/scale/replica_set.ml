module Machine = Newt_hw.Machine
module Trace = Newt_sim.Trace
module Pubsub = Newt_channels.Pubsub
module Component = Newt_stack.Component
module Storage = Newt_reliability.Storage
module Reincarnation = Newt_reliability.Reincarnation

type 'srv t = {
  set_name : string;
  names : string array;
  comps : Component.t array;
  servers : 'srv array;
  mutable rs : Reincarnation.t option;
  mutable load_of : ('srv -> float) option;
}

let create machine ~name ?names ?core ~members ~directory ~trace ~storage ~make
    () =
  if members <= 0 then invalid_arg "Replica_set: members must be positive";
  let name_of =
    match names with
    | Some f -> f
    | None ->
        fun i -> if members = 1 then name else Printf.sprintf "%s%d" name i
  in
  let names = Array.init members name_of in
  let comps =
    Array.map
      (fun n ->
        let core =
          match core with
          | Some c -> c
          | None -> Machine.add_dedicated_core machine
        in
        Component.create machine ~name:n ~core ~directory ~trace ())
      names
  in
  let servers =
    Array.mapi
      (fun i comp ->
        let save, load = Storage.owner_view storage ~owner:names.(i) in
        make i comp ~save ~load)
      comps
  in
  { set_name = name; names; comps; servers; rs = None; load_of = None }

let size t = Array.length t.comps
let name t i = t.names.(i)
let comp t i = t.comps.(i)
let srv t i = t.servers.(i)
let comps t = t.comps
let servers t = t.servers
let owner t i = i mod size t

let supervise t rs ~notify_crash ~notify_restart =
  t.rs <- Some rs;
  Array.iteri
    (fun i comp ->
      Reincarnation.watch rs comp ~notify_crash:(notify_crash i)
        ~notify_restart:(notify_restart i) ())
    t.comps

let kill t i =
  match t.rs with
  | Some rs -> Reincarnation.kill rs t.comps.(i)
  | None -> invalid_arg (t.set_name ^ ": kill on an unsupervised replica set")

let restarts t i =
  match t.rs with Some rs -> Reincarnation.restarts_of rs t.comps.(i) | None -> 0

let set_load t f = t.load_of <- Some f

let loads t =
  match t.load_of with
  | Some f -> Array.map f t.servers
  | None -> Array.map (fun _ -> 0.) t.servers

type plane = {
  plane_name : string;
  members : int;
  member_loads : unit -> float array;
}

let plane t =
  { plane_name = t.set_name; members = size t; member_loads = (fun () -> loads t) }

let plane_imbalance p = Shard_map.imbalance ~loads:(p.member_loads ())

let projected_loads ~shards planes =
  let acc = Array.make (max shards 1) 0. in
  List.iter
    (fun p ->
      let loads = p.member_loads () in
      let m = Array.length loads in
      let total = Array.fold_left ( +. ) 0. loads in
      if m > 0 && total > 0. then
        Array.iteri
          (fun j l ->
            (* How many transport-shard buckets member [j] serves. *)
            let served = if j >= shards then 0 else (shards - j + m - 1) / m in
            if served > 0 then begin
              let per = l /. total /. float_of_int served in
              let i = ref j in
              while !i < shards do
                acc.(!i) <- acc.(!i) +. per;
                i := !i + m
              done
            end)
          loads)
    planes;
  acc
