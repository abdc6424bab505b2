module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Trace = Newt_sim.Trace
module Machine = Newt_hw.Machine
module Cpu = Newt_hw.Cpu
module Registry = Newt_channels.Registry
module Sim_chan = Newt_channels.Sim_chan
module Pubsub = Newt_channels.Pubsub
module Rich_ptr = Newt_channels.Rich_ptr
module Addr = Newt_net.Addr
module Tcp = Newt_net.Tcp
module Link = Newt_nic.Link
module Mq = Newt_nic.Mq_e1000
module Rule = Newt_pf.Rule
module Pf_engine = Newt_pf.Pf_engine
module Conntrack = Newt_pf.Conntrack
module Component = Newt_stack.Component
module Msg = Newt_stack.Msg
module Mq_drv_srv = Newt_stack.Mq_drv_srv
module Ip_srv = Newt_stack.Ip_srv
module Pf_srv = Newt_stack.Pf_srv
module Tcp_srv = Newt_stack.Tcp_srv
module Udp_srv = Newt_stack.Udp_srv
module Syscall_srv = Newt_stack.Syscall_srv
module Sink = Newt_stack.Sink
module Storage = Newt_reliability.Storage
module Reincarnation = Newt_reliability.Reincarnation

type config = {
  seed : int;
  costs : Newt_hw.Costs.t;
  shards : int;
  ip_replicas : int;
  pf_shards : int;
  nics : int;
  coalesce_drivers : bool;
  device : Mq.profile;
  link_gbps : float;
  pf_rules : Rule.t list option;
  tcp_config : Tcp.config option;
  conntrack_total : int;
  nic_reset_time : Time.cycles;
}

let default_config =
  {
    seed = 42;
    costs = Newt_hw.Costs.default;
    shards = 4;
    ip_replicas = 1;
    pf_shards = 1;
    nics = 1;
    coalesce_drivers = false;
    device = Mq.Multi_queue;
    link_gbps = 40.0;
    pf_rules = None;
    tcp_config = None;
    conntrack_total = 65536;
    nic_reset_time = Time.of_seconds 1.2;
  }

(* The canonical flow key of the steering journal — the same
   canonicalization the RSS hash applies, so both directions of a flow
   share one entry. *)
type flow_key = int * int * int * int

let ip_int a = Int32.to_int (Addr.Ipv4.to_int32 a) land 0xFFFFFFFF

let flow_key src sport dst dport : flow_key =
  let a = (ip_int src, sport) and b = (ip_int dst, dport) in
  let (i1, p1), (i2, p2) = if a <= b then (a, b) else (b, a) in
  (i1, p1, i2, p2)

(* ARP learn-broadcast encoding: the binding rides the channel
   directory, the 48-bit MAC packed into the [chan_id] field and the
   protocol address in the key. *)
let mac_to_int m =
  Array.fold_left (fun acc o -> (acc lsl 8) lor o) 0 (Addr.Mac.to_octets m)

let mac_of_int v =
  Addr.Mac.of_octets (Array.init 6 (fun i -> (v lsr ((5 - i) * 8)) land 0xFF))

let arp_key ~iface addr = Printf.sprintf "arp.%d.%s" iface (Addr.Ipv4.to_string addr)

type port = { link : Link.t; nic : Mq.t; sink : Sink.t }

type t = {
  config : config;
  engine : Engine.t;
  machine : Machine.t;
  trace : Trace.t;
  directory : Pubsub.t;
  storage : Storage.t;
  rs : Reincarnation.t;
  sm : Shard_map.t;
  sc_set : Syscall_srv.t Replica_set.t;
  tcp_set : Tcp_srv.t Replica_set.t;
  udp_set : Udp_srv.t Replica_set.t;
  ip_set : Ip_srv.t Replica_set.t;
  pf_set : Pf_srv.t Replica_set.t option;
  drv_set : Mq_drv_srv.t Replica_set.t;
  ports : port array;
  tcp_to_ip : Msg.t Sim_chan.t array;
  ip_to_tcp : Msg.t Sim_chan.t array;
  (* [pf_chans.(k).(j)] is IP replica [k]'s (to_pf, from_pf) pair with
     PF shard [j]. *)
  pf_chans : (Msg.t Sim_chan.t * Msg.t Sim_chan.t) array array;
  (* IP's half of the affinity journal (the NICs keep their own) —
     shared by all replicas: shard affinity implies replica affinity. *)
  ip_violations : int ref;
  mutable next_app_pid : int;
}

let engine t = t.engine
let machine t = t.machine
let config t = t.config
let sc t = Replica_set.srv t.sc_set 0
let tcp_shard t i = Replica_set.srv t.tcp_set i
let udp_srv t = Replica_set.srv t.udp_set 0
let ip_srv t = Replica_set.srv t.ip_set 0
let ip_replica t k = Replica_set.srv t.ip_set k
let port t i = t.ports.(i)
let nic t = t.ports.(0).nic
let link t = t.ports.(0).link
let sink t = t.ports.(0).sink
let shard_map t = t.sm
let directory t = t.directory
let trace t = t.trace
let storage t = t.storage
let rs t = t.rs
let sc_component t = Replica_set.comp t.sc_set 0
let tcp_components t = Replica_set.comps t.tcp_set
let udp_component t = Replica_set.comp t.udp_set 0
let ip_components t = Replica_set.comps t.ip_set
let drv_components t = Replica_set.comps t.drv_set
let pf_components t =
  match t.pf_set with Some s -> Replica_set.comps s | None -> [||]

let pf_shard_count t =
  match t.pf_set with Some s -> Replica_set.size s | None -> 0

let pf_of t =
  match t.pf_set with
  | Some s -> s
  | None -> invalid_arg "Sharded_stack: no packet filter configured"

let pf_shard t j = Replica_set.srv (pf_of t) j
let pf_channels t = t.pf_chans

let components t =
  (sc_component t :: Array.to_list (tcp_components t))
  @ [ udp_component t ]
  @ Array.to_list (ip_components t)
  @ Array.to_list (pf_components t)
  @ Array.to_list (drv_components t)

let tcp_channels t =
  Array.init (Array.length t.tcp_to_ip) (fun i ->
      (t.tcp_to_ip.(i), t.ip_to_tcp.(i)))

let local_addr _t = Addr.Ipv4.v 10 0 0 1
let sink_addr _t = Addr.Ipv4.v 10 0 0 2

let run t ~until = Engine.run ~until t.engine
let at t when_ f = ignore (Engine.schedule_at t.engine when_ f)

(* Every saturating sender gets a core of its own: two senders
   timesharing one core would pay a full context switch per write,
   which is the workload's bottleneck, not the stack's. *)
let app t =
  let core = Machine.add_timeshared_core t.machine in
  let pid = t.next_app_pid in
  t.next_app_pid <- pid + 1;
  { Syscall_srv.app_core = core; app_pid = pid }

let on_reincarnated t f = Reincarnation.set_on_reincarnated t.rs f
let kill t comp = Reincarnation.kill t.rs comp
let restarts_of t comp = Reincarnation.restarts_of t.rs comp
let kill_shard t i = Replica_set.kill t.tcp_set i
let shard_restarts t i = Replica_set.restarts t.tcp_set i
let kill_ip_replica t k = Replica_set.kill t.ip_set k
let ip_replica_restarts t k = Replica_set.restarts t.ip_set k
let kill_pf_shard t j = Replica_set.kill (pf_of t) j
let pf_shard_restarts t j = Replica_set.restarts (pf_of t) j

type shard_stats = {
  shard : int;
  flows : int;
  segs_out : int;
  bytes_out : int;
  queue_depth : int;
  core_util : float;
  restarts : int;
}

let shard_stats t =
  let now = Engine.now t.engine in
  Array.mapi
    (fun i srv ->
      {
        shard = i;
        flows = Tcp.connection_count (Tcp_srv.engine srv);
        (* Lifetime counters: the banked totals survive shard restarts,
           so a reincarnated shard neither double-counts nor resets. *)
        segs_out = Tcp_srv.total_segs_out srv;
        bytes_out = Tcp_srv.total_bytes_out srv;
        queue_depth = Sim_chan.length t.ip_to_tcp.(i);
        core_util = Cpu.utilization (Component.core (Replica_set.comp t.tcp_set i)) ~now;
        restarts = shard_restarts t i;
      })
    (Replica_set.servers t.tcp_set)

type pf_shard_stats = {
  pf_shard : int;
  verdicts : int;
  pf_blocked : int;
  expired : int;
  entries : int;
  half_open : int;
  evicted_half_open : int;
  evicted_established : int;
  pf_restarts : int;
}

let pf_shard_stats t =
  match t.pf_set with
  | None -> [||]
  | Some pfs ->
      Array.mapi
        (fun j srv ->
          {
            pf_shard = j;
            verdicts = Pf_srv.verdicts_issued srv;
            pf_blocked = Pf_srv.blocked srv;
            expired = Pf_srv.conntrack_expired srv;
            entries = Conntrack.size (Pf_engine.conntrack (Pf_srv.engine_of srv));
            half_open =
              Conntrack.half_open_count
                (Pf_engine.conntrack (Pf_srv.engine_of srv));
            evicted_half_open = Pf_srv.evicted_half_open srv;
            evicted_established = Pf_srv.evicted_established srv;
            pf_restarts = Replica_set.restarts pfs j;
          })
        (Replica_set.servers pfs)

(* Every replication plane of the stack, with its load metric — the
   whole-stack view the imbalance/rebalance accounting folds over. *)
let planes t =
  [
    Replica_set.plane t.tcp_set;
    Replica_set.plane t.udp_set;
    Replica_set.plane t.ip_set;
  ]
  @ (match t.pf_set with Some s -> [ Replica_set.plane s ] | None -> [])

let imbalance_ratio t =
  let nics =
    Array.fold_left
      (fun acc p ->
        Float.max acc
          (Shard_map.imbalance
             ~loads:(Array.map float_of_int (Mq.rx_queue_packets p.nic))))
      0.0 t.ports
  in
  List.fold_left
    (fun acc p -> Float.max acc (Replica_set.plane_imbalance p))
    nics (planes t)

let steering_violations t =
  Array.fold_left (fun acc p -> acc + Mq.steering_violations p.nic) 0 t.ports
  + !(t.ip_violations)

let rebalance t =
  (* Project every plane's observed load — not just the TCP shards' —
     onto the RSS buckets, so a hot PF shard or IP replica also pulls
     the indirection table toward balance. *)
  let loads = Replica_set.projected_loads ~shards:t.config.shards (planes t) in
  Shard_map.rebalance t.sm ~loads

(* {2 Construction}

   The creation order is part of the stack's observable behaviour: it
   fixes process ids, pool ids (which the verification sampler hashes)
   and the engine's random stream. Planes are built in the paper's
   Figure 3 order — SYSCALL, TCP, UDP, IP, PF, drivers — after the
   ports, whose peers draw from the engine's random stream before the
   TCP servers do. *)

let create ?(config = default_config) () =
  if config.shards <= 0 then invalid_arg "Sharded_stack: shards must be positive";
  if config.ip_replicas <= 0 || config.ip_replicas > config.shards then
    invalid_arg "Sharded_stack: need 1 <= ip_replicas <= shards";
  if config.pf_shards <= 0 then
    invalid_arg "Sharded_stack: pf_shards must be positive";
  if config.nics <= 0 then invalid_arg "Sharded_stack: nics must be positive";
  let engine = Engine.create ~seed:config.seed () in
  let machine = Machine.create ~costs:config.costs engine in
  let registry = Registry.create () in
  let trace = Trace.create () in
  let directory = Pubsub.create () in
  let storage = Storage.create () in
  let n = config.shards and r = config.ip_replicas and np = config.pf_shards in
  let sm = Shard_map.create ~seed:config.seed ~shards:n () in
  (* Port [i]: a wire, a device on our side steering onto the shards'
     queues, and an ideal peer at 10.0.[i].2 on the other. *)
  let links =
    Array.init config.nics (fun _ ->
        Link.create engine
          ~bandwidth_bps:(int_of_float (config.link_gbps *. 1e9))
          ~queue_frames:(Mq.link_queue_frames config.device)
          ())
  in
  let nics =
    Array.init config.nics (fun i ->
        Mq.create engine ~registry ~link:links.(i) ~side:Link.Left
          ~mac:(Addr.Mac.of_index (100 + i))
          ~rss:(Shard_map.rss sm) ~profile:config.device
          ~reset_time:config.nic_reset_time ())
  in
  let ports =
    Array.init config.nics (fun i ->
        let sink =
          Sink.create engine ~link:links.(i) ~side:Link.Right
            ~addr:(Addr.Ipv4.v 10 0 i 2)
            ~mac:(Addr.Mac.of_index (200 + i))
            ()
        in
        { link = links.(i); nic = nics.(i); sink })
  in
  (* Every component server of the stack is a replica set — in the
     split configuration all of them 1-member sets, which is exactly
     the point: one replication mechanism, configured per plane. Each
     set gives its members a dedicated core and a storage namespace. *)
  let mkset name ?names ?core members make =
    Replica_set.create machine ~name ?names ?core ~members ~directory ~trace
      ~storage ~make ()
  in
  let sc_set =
    mkset "sc" 1 (fun _ comp ~save:_ ~load:_ -> Syscall_srv.create comp ())
  in
  let tcp_set =
    mkset "tcp" n (fun _ comp ~save ~load ->
        Tcp_srv.create comp ~registry
          ~local_addr:(Addr.Ipv4.v 10 0 0 1)
          ?tcp_config:config.tcp_config ~save ~load ())
  in
  let udp_set =
    mkset "udp" 1 (fun _ comp ~save ~load ->
        Udp_srv.create comp ~registry
          ~local_addr:(Addr.Ipv4.v 10 0 0 1)
          ~save ~load ())
  in
  let ip_set =
    mkset "ip" r (fun _ comp ~save ~load ->
        Ip_srv.create comp ~registry ~save ~load ())
  in
  (* The filter plane is steered by the transport map when it has at
     most as many members, reduced to its own size, so every layer
     agrees where a flow lives; a filter with more shards than the
     transport plane (the split stack's sharded filter) gets a map of
     its own. *)
  let pf_hash =
    let map =
      if np <= n then sm else Shard_map.create ~seed:config.seed ~shards:np ()
    in
    fun ~src ~sport ~dst ~dport -> Shard_map.shard_of map ~src ~sport ~dst ~dport
  in
  let pf_set =
    Option.map
      (fun _ ->
        mkset "pf" np (fun j comp ~save ~load ->
            let owns f =
              np <= 1
              || pf_hash ~src:f.Conntrack.local_ip ~sport:f.Conntrack.local_port
                   ~dst:f.Conntrack.remote_ip ~dport:f.Conntrack.remote_port
                 mod np
                 = j
            in
            Pf_srv.create comp ~save ~load
              ~max_entries:(max 1 (config.conntrack_total / np))
              ~owns ()))
      config.pf_rules
  in
  let drv_core =
    if config.coalesce_drivers then Some (Machine.add_dedicated_core machine)
    else None
  in
  let drv_set =
    mkset "drv" ~names:(Printf.sprintf "drv%d") ?core:drv_core config.nics
      (fun i comp ~save:_ ~load:_ -> Mq_drv_srv.create comp ~nic:nics.(i) ())
  in
  let sc_srv = Replica_set.srv sc_set 0 in
  let sc_comp = Replica_set.comp sc_set 0 in
  let udp = Replica_set.srv udp_set 0 in
  let udp_comp = Replica_set.comp udp_set 0 in
  let tcps = Replica_set.servers tcp_set in
  let ips = Replica_set.servers ip_set in
  let drvs = Replica_set.servers drv_set in
  let tcp_comps = Replica_set.comps tcp_set in
  let ip_comps = Replica_set.comps ip_set in
  let drv_comps = Replica_set.comps drv_set in
  let ip_name = Replica_set.name ip_set in
  let tcp_name = Replica_set.name tcp_set in
  let udp_name = Replica_set.name udp_set 0 in
  let udp_ip = ips.(Replica_set.owner ip_set 0) in
  (* Per-plane load metrics, for whole-stack imbalance accounting. *)
  Replica_set.set_load tcp_set (fun srv ->
      float_of_int (Tcp_srv.total_bytes_out srv));
  Replica_set.set_load udp_set (fun srv ->
      float_of_int (Udp_srv.datagrams_out srv));
  Replica_set.set_load ip_set (fun srv ->
      float_of_int (Ip_srv.packets_forwarded srv));
  Option.iter
    (fun pfs ->
      Replica_set.set_load pfs (fun srv ->
          float_of_int (Pf_srv.verdicts_issued srv)))
    pf_set;
  (* Channels (Figure 3, replicated per shard and per IP replica).
     [Component.export] publishes each one under its key in the
     directory and re-publishes it when the consuming component is
     reincarnated — the export belongs to the consumer. Queue slots are
     cheap shared memory; size them so a full multi-flow
     congestion-window burst never overflows a channel — a drop costs
     the flow an RTO. *)
  let chan_ids = ref 0 in
  let chan () =
    incr chan_ids;
    Sim_chan.create ~capacity:8192 ~id:!chan_ids ()
  in
  let export comp key c =
    Component.export comp ~key c;
    c
  in
  (* IP <-> PF: every IP replica keeps a channel pair to every shard
     (the reply comes back to whoever asked), and every shard serves
     every replica. Conntrack recovery reads the union of the
     transports' connection tables, filtered by each shard's ownership
     predicate. *)
  let pf_chans =
    match pf_set with
    | None -> [||]
    | Some pfs ->
        Array.init r (fun k ->
            Array.init np (fun j ->
                let pf_name = Replica_set.name pfs j in
                let to_pf =
                  export (Replica_set.comp pfs j)
                    (Printf.sprintf "%s.to_%s" (ip_name k) pf_name)
                    (chan ())
                and from_pf =
                  export ip_comps.(k)
                    (Printf.sprintf "%s.to_%s" pf_name (ip_name k))
                    (chan ())
                in
                Pf_srv.connect_ip (Replica_set.srv pfs j) ~from_ip:to_pf
                  ~to_ip:from_pf;
                (to_pf, from_pf)))
  in
  if pf_set <> None then
    Array.iteri
      (fun k ip -> Ip_srv.connect_pf_sharded ip ~steer:pf_hash ~pairs:pf_chans.(k))
      ips;
  (* The shared steering function, with IP's half of the affinity
     journal wrapped around it. One shard owns every flow: no steering,
     no journal. *)
  let steer_journal = Hashtbl.create 64 in
  let ip_violations = ref 0 in
  let tcp_steer =
    if n = 1 then fun ~src:_ ~sport:_ ~dst:_ ~dport:_ -> 0
    else fun ~src ~sport ~dst ~dport ->
      let s = Shard_map.shard_of sm ~src ~sport ~dst ~dport in
      let key = flow_key src sport dst dport in
      (match Hashtbl.find_opt steer_journal key with
      | None -> Hashtbl.replace steer_journal key s
      | Some s' when s' = s -> ()
      | Some _ ->
          incr ip_violations;
          Hashtbl.replace steer_journal key s);
      s
  in
  (* IP <-> transports. TCP shard [i]'s requests are served by replica
     [i mod r]; every replica keeps the complete fan-out array so a
     received frame can steer to any shard. The UDP server talks to
     replica 0. *)
  let tcp_to_ip =
    Array.init n (fun i ->
        export ip_comps.(Replica_set.owner ip_set i)
          (Printf.sprintf "%s.to_ip" (tcp_name i)) (chan ()))
  in
  let ip_to_tcp =
    Array.init n (fun i ->
        export tcp_comps.(i) (Printf.sprintf "ip.to_%s" (tcp_name i)) (chan ()))
  in
  Array.iteri
    (fun k ip ->
      Ip_srv.connect_transport_sharded
        ~mine:(fun i -> Replica_set.owner ip_set i = k)
        ip ~proto:`Tcp ~steer:tcp_steer
        ~pairs:(Array.init n (fun i -> (tcp_to_ip.(i), ip_to_tcp.(i)))))
    ips;
  Array.iteri
    (fun i srv -> Tcp_srv.connect_ip srv ~to_ip:tcp_to_ip.(i) ~from_ip:ip_to_tcp.(i))
    tcps;
  let udp_to_ip =
    export ip_comps.(Replica_set.owner ip_set 0)
      (Printf.sprintf "%s.to_ip" udp_name) (chan ())
  and ip_to_udp = export udp_comp (Printf.sprintf "ip.to_%s" udp_name) (chan ()) in
  Array.iteri
    (fun k ip ->
      Ip_srv.connect_transport_sharded
        ~mine:(fun i -> Replica_set.owner ip_set i = k)
        ip ~proto:`Udp
        ~steer:(fun ~src:_ ~sport:_ ~dst:_ ~dport:_ -> 0)
        ~pairs:[| (udp_to_ip, ip_to_udp) |])
    ips;
  Udp_srv.connect_ip udp ~to_ip:udp_to_ip ~from_ip:ip_to_udp;
  (* SYSCALL <-> transports. *)
  let sc_to_tcp =
    Array.init n (fun i ->
        export tcp_comps.(i) (Printf.sprintf "sc.to_%s" (tcp_name i)) (chan ()))
  in
  let tcp_to_sc =
    Array.init n (fun i ->
        export sc_comp (Printf.sprintf "%s.to_sc" (tcp_name i)) (chan ()))
  in
  Syscall_srv.connect_transport_sharded sc_srv ~transport:`Tcp
    ~pairs:(Array.init n (fun i -> (sc_to_tcp.(i), tcp_to_sc.(i))));
  Array.iteri
    (fun i srv -> Tcp_srv.connect_sc srv ~from_sc:sc_to_tcp.(i) ~to_sc:tcp_to_sc.(i))
    tcps;
  let sc_to_udp = export udp_comp (Printf.sprintf "sc.to_%s" udp_name) (chan ())
  and udp_to_sc = export sc_comp (Printf.sprintf "%s.to_sc" udp_name) (chan ()) in
  Syscall_srv.connect_transport sc_srv ~transport:`Udp ~to_transport:sc_to_udp
    ~from_transport:udp_to_sc;
  Udp_srv.connect_sc udp ~from_sc:sc_to_udp ~to_sc:udp_to_sc;
  if n > 1 then begin
    (* New sockets round-robin over the shards; the chosen shard then
       picks a source port that hashes back to itself, so any placement
       preserves flow affinity. *)
    let next_tcp_sock = ref 0 in
    Syscall_srv.set_placement sc_srv (fun ~transport ->
        match transport with
        | `Tcp ->
            let s = !next_tcp_sock mod n in
            incr next_tcp_sock;
            s
        | `Udp -> 0);
    (* Shard affinity for active opens: shard [i] only uses source
       ports that the RSS table maps to queue [i], skipping ports its
       engine already has bound to the same destination; exhaustion of
       the whole range is a hard connect error, not a silent wrong-queue
       open. *)
    Array.iteri
      (fun i srv ->
        Tcp_srv.set_port_select srv (fun ~src ~dst ~dst_port ->
            let in_use port =
              Tcp.port_in_use (Tcp_srv.engine srv) ~local_ip:src ~port
                ~remote_ip:dst ~remote_port:dst_port
            in
            match
              Shard_map.port_for_shard sm ~in_use ~shard:i ~src ~dst ~dst_port ()
            with
            | Ok p -> `Port p
            | Error `Exhausted -> `Exhausted))
      tcps
  end;
  (* The interfaces: port [i]'s driver serves all of its device's
     queues, fanning RX completions out to the replica that owns each
     queue (queue [q] belongs to replica [q mod r]). Every replica
     holds one interface per port, at index [i], so routes and driver
     notifications name ports the same way in every replica. *)
  Array.iter (fun drv -> Mq_drv_srv.set_replicas drv r) drvs;
  Array.iteri
    (fun k ip ->
      Array.iteri
        (fun i drv ->
          let tx_chan =
            export drv_comps.(i)
              (Printf.sprintf "%s.to_%s" (ip_name k) (Replica_set.name drv_set i))
              (chan ())
          and rx_chan =
            export ip_comps.(k)
              (Printf.sprintf "%s.to_%s" (Replica_set.name drv_set i) (ip_name k))
              (chan ())
          in
          let iface =
            Ip_srv.add_iface ip
              {
                Ip_srv.addr = Addr.Ipv4.v 10 0 i 1;
                netmask_bits = 24;
                mac = Mq.mac nics.(i);
              }
              ~drv ~replica:k ~tx_chan ~rx_chan
          in
          Ip_srv.add_route ip ~prefix:(Addr.Ipv4.v 10 0 i 0) ~bits:24 ~iface
            ~gateway:None;
          Ip_srv.add_neighbor ip ~iface (Addr.Ipv4.v 10 0 i 2)
            (Addr.Mac.of_index (200 + i)))
        drvs;
      (* Self-originated frames (ARP, ICMP) go out on one of this
         replica's own queues, so the TX confirm returns here. *)
      Ip_srv.set_local_queue ip k)
    ips;
  if config.nics > 1 then begin
    (* Multihoming: transports pick the source address of the interface
       the route uses. *)
    let src_select ip dst =
      match Ip_srv.src_addr_for ip dst with
      | Some a -> a
      | None -> Addr.Ipv4.v 10 0 0 1
    in
    Array.iteri
      (fun i srv ->
        Tcp_srv.set_src_select srv (src_select ips.(Replica_set.owner ip_set i)))
      tcps;
    Udp_srv.set_src_select udp (src_select udp_ip)
  end;
  (* The filter configuration — one ruleset on every shard. *)
  (match (pf_set, config.pf_rules) with
  | Some pfs, Some rules ->
      Array.iter
        (fun pf ->
          Pf_srv.set_rules pf rules;
          Pf_srv.set_conntrack_sources pf
            ~tcp:(fun () ->
              Array.to_list tcps |> List.concat_map Tcp_srv.conntrack_flows)
            ~udp:(fun () -> Udp_srv.conntrack_flows udp))
        (Replica_set.servers pfs)
  | _ -> ());
  if r > 1 then begin
    (* ARP learn-broadcast: whichever replica's queue a reply or
       request lands on announces the binding in the channel directory;
       every replica — including a later restarted incarnation, via
       replay — folds it into its own cache. Inserting a learned
       binding never re-announces, so there is no loop. *)
    let learn k = function
      | `Published { Pubsub.key; creator = _; chan_id } -> (
          try
            Scanf.sscanf key "arp.%d.%s" (fun ifc ip_s ->
                match Addr.Ipv4.of_string ip_s with
                | Some addr ->
                    Ip_srv.add_neighbor ips.(k) ~iface:ifc addr (mac_of_int chan_id)
                | None -> ())
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> ())
      | `Gone -> ()
    in
    (* The statically configured peers are announced too, so replay
       after a restart re-seeds them without waiting for a
       resolution. *)
    Array.iteri
      (fun i _ ->
        Pubsub.publish directory
          ~key:(arp_key ~iface:i (Addr.Ipv4.v 10 0 i 2))
          ~creator:(-1)
          ~chan_id:(mac_to_int (Addr.Mac.of_index (200 + i))))
      ports;
    Array.iteri
      (fun k ip ->
        Ip_srv.set_arp_announce ip (fun ~iface addr mac ->
            Pubsub.publish directory ~key:(arp_key ~iface addr) ~creator:k
              ~chan_id:(mac_to_int mac));
        Pubsub.subscribe_prefix directory ~prefix:"arp." (learn k);
        (* A reincarnated replica comes up with a flushed cache; the
           directory still holds everything the group has learned. *)
        Component.on_restart ip_comps.(k) ~step:"replay-arp" (fun ~fresh:_ ->
            Pubsub.replay_prefix directory ~prefix:"arp." (learn k)))
      ips;
    (* A transport shard frees its receive buffers to the fixed replica
       that serves its requests, but the frame arrived via whichever
       replica owns the flow's queue — hand such buffers back to the
       pool's owner. *)
    let return_buf buf =
      let pool = buf.Rich_ptr.pool in
      Array.iter
        (fun ip -> if Ip_srv.rx_pool_id ip = pool then Ip_srv.release_held ip buf)
        ips
    in
    Array.iter (fun ip -> Ip_srv.set_buf_return ip return_buf) ips
  end;
  (* Supervision: every plane's members recover independently. A
     transport shard crash reclaims only that shard's receive buffers
     (held by the replica that owns its queue for TCP, by any replica
     for UDP); an IP replica crash aborts only the in-flight requests
     of the shards it serves; a PF shard crash holds only its own
     flows' packets; a driver crash stalls only its own port — the
     other members' traffic never stops. *)
  let rs = Reincarnation.create machine () in
  let served_by i = Replica_set.owner ip_set i in
  Replica_set.supervise tcp_set rs
    ~notify_crash:(fun i ->
      [ (fun () -> Ip_srv.on_transport_shard_crash ips.(served_by i) ~proto:`Tcp ~shard:i) ])
    ~notify_restart:(fun i ->
      [ (fun () -> Syscall_srv.on_transport_restart ~shard:i sc_srv ~transport:`Tcp) ]);
  Replica_set.supervise udp_set rs
    ~notify_crash:(fun i ->
      Array.to_list
        (Array.map
           (fun ip () -> Ip_srv.on_transport_shard_crash ip ~proto:`Udp ~shard:i)
           ips))
    ~notify_restart:(fun i ->
      [ (fun () -> Syscall_srv.on_transport_restart ~shard:i sc_srv ~transport:`Udp) ]);
  Replica_set.supervise ip_set rs
    ~notify_crash:(fun k ->
      (* Only the transports this replica serves lose their channel. *)
      let my_tcps = List.filteri (fun i _ -> served_by i = k) (Array.to_list tcps) in
      List.map (fun srv () -> Tcp_srv.on_ip_crash srv) my_tcps
      @ if served_by 0 = k then [ (fun () -> Udp_srv.on_ip_crash udp) ] else [])
    ~notify_restart:(fun k ->
      let my_tcps = List.filteri (fun i _ -> served_by i = k) (Array.to_list tcps) in
      List.map (fun srv () -> Tcp_srv.on_ip_restart srv) my_tcps
      @ if served_by 0 = k then [ (fun () -> Udp_srv.on_ip_restart udp) ] else []);
  Option.iter
    (fun pfs ->
      Replica_set.supervise pfs rs
        ~notify_crash:(fun j ->
          Array.to_list
            (Array.map (fun ip () -> Ip_srv.on_pf_crash ~shard:j ip) ips))
        ~notify_restart:(fun j ->
          Array.to_list
            (Array.map (fun ip () -> Ip_srv.on_pf_restart ~shard:j ip) ips)))
    pf_set;
  Replica_set.supervise drv_set rs
    ~notify_crash:(fun i ->
      Array.to_list (Array.map (fun ip () -> Ip_srv.on_drv_crash ip ~iface:i) ips))
    ~notify_restart:(fun i ->
      Array.to_list (Array.map (fun ip () -> Ip_srv.on_drv_restart ip ~iface:i) ips));
  Reincarnation.start rs;
  {
    config;
    engine;
    machine;
    trace;
    directory;
    storage;
    rs;
    sm;
    sc_set;
    tcp_set;
    udp_set;
    ip_set;
    pf_set;
    drv_set;
    ports;
    tcp_to_ip;
    ip_to_tcp;
    pf_chans;
    ip_violations;
    next_app_pid = 10_000;
  }
