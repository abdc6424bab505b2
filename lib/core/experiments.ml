module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Series = Newt_sim.Series
module Rng = Newt_sim.Rng
module Costs = Newt_hw.Costs
module Tcp = Newt_net.Tcp
module Pf_engine = Newt_pf.Pf_engine
module Sink = Newt_stack.Sink
module Capacity = Newt_stack.Capacity
module Fault_inject = Newt_reliability.Fault_inject
module Apps = Newt_sockets.Apps
module Static = Newt_verify.Static
module Checker = Newt_verify.Checker
module Continuous = Newt_verify.Continuous
module Sanitizer = Newt_verify.Sanitizer
module Protocol = Newt_verify.Protocol
module Mcheck = Newt_verify.Mcheck
module Component = Newt_stack.Component
module Reincarnation = Newt_reliability.Reincarnation

(* {1 Table II} *)

type table2_row = {
  label : string;
  paper_gbps : string;
  measured_gbps : float;
  bottleneck : string;
}

let paper_value = function
  | Capacity.Minix_sync -> "0.12"
  | Capacity.Split_dedicated -> "3.2"
  | Capacity.Split_dedicated_sc -> "3.6"
  | Capacity.Single_server_sc -> "3.9"
  | Capacity.Single_server_sc_tso -> "5+"
  | Capacity.Split_dedicated_sc_tso -> "5+"
  | Capacity.Linux_10gbe -> "8.4"

let table_ii ?costs () =
  List.map
    (fun config ->
      let r = Capacity.evaluate ?costs config in
      {
        label = Capacity.name config;
        paper_gbps = paper_value config;
        measured_gbps = r.Capacity.goodput_gbps;
        bottleneck = r.Capacity.bottleneck;
      })
    Capacity.all

(* {1 Event-simulation cross-validation} *)

type event_peak = {
  goodput_gbps : float;
  capacity_prediction_gbps : float;
  per_link_mbps : float list;
  tcp_util : float;
  ip_util : float;
  pf_util : float;
  drv_util : float;
}

let split_peak_event_sim ?(nics = 5) ?(duration = 1.0) ?(coalesce_drivers = false) () =
  let config =
    { Host.default_config with Host.nics; app_cores = nics; coalesce_drivers }
  in
  let h = Host.create ~config () in
  let totals = Array.make nics 0 in
  for i = 0 to nics - 1 do
    let peer = Host.sink h i in
    Sink.sink_tcp peer ~port:5001 ~on_bytes:(fun ~at:_ n ->
        totals.(i) <- totals.(i) + n)
  done;
  let _ =
    List.init nics (fun i ->
        Apps.Iperf.start (Host.machine h) ~sc:(Host.sc h) ~app:(Host.app h)
          ~dst:(Host.sink_addr h i) ~port:5001 ~until:(Time.of_seconds duration) ())
  in
  Host.run h ~until:(Time.of_seconds duration);
  let now = Engine.now (Host.engine h) in
  let util comp =
    Newt_hw.Cpu.utilization (Newt_stack.Proc.core (Host.proc_of h comp)) ~now
  in
  let drv_util =
    List.fold_left max 0.0 (List.init nics (fun i -> util (Host.C_drv i)))
  in
  let total = Array.fold_left ( + ) 0 totals in
  {
    goodput_gbps = float_of_int total *. 8.0 /. duration /. 1e9;
    capacity_prediction_gbps =
      (Capacity.evaluate ~nics Capacity.Split_dedicated_sc).Capacity.goodput_gbps;
    per_link_mbps =
      Array.to_list
        (Array.map (fun t -> float_of_int t *. 8.0 /. duration /. 1e6) totals);
    tcp_util = util Host.C_tcp;
    ip_util = util Host.C_ip;
    pf_util = util Host.C_pf;
    drv_util;
  }

(* The single-server topology (Table II line 4), packet level: the same
   protocol code as the split stack, deployed as one merged server. *)
let single_server_event_sim ?(nics = 5) ?(duration = 1.0) () =
  let module Machine = Newt_hw.Machine in
  let module Registry = Newt_channels.Registry in
  let module Sim_chan = Newt_channels.Sim_chan in
  let module Link = Newt_nic.Link in
  let module Mq = Newt_nic.Mq_e1000 in
  let module Addr = Newt_net.Addr in
  let module Proc = Newt_stack.Proc in
  let module Mq_drv_srv = Newt_stack.Mq_drv_srv in
  let module Single = Newt_stack.Single_srv in
  let module Sc = Newt_stack.Syscall_srv in
  let engine = Engine.create () in
  let machine = Machine.create engine in
  let registry = Registry.create () in
  let sc_core = Machine.add_dedicated_core machine in
  let stk_core = Machine.add_dedicated_core machine in
  let drv_cores = Array.init nics (fun _ -> Machine.add_dedicated_core machine) in
  let app_cores = Array.init nics (fun _ -> Machine.add_timeshared_core machine) in
  let sc_comp = Component.create machine ~name:"sc" ~core:sc_core () in
  let stk_proc = Proc.create machine ~name:"stack" ~core:stk_core () in
  let sc = Sc.create sc_comp () in
  let stk =
    Single.create machine ~proc:stk_proc ~registry ~local_addr:(Addr.Ipv4.v 10 0 0 1) ()
  in
  let chan_id = ref 5000 in
  let chan () =
    incr chan_id;
    Sim_chan.create ~capacity:8192 ~id:!chan_id ()
  in
  let ch_sc_to_stk = chan () and ch_stk_to_sc = chan () in
  Sc.connect_transport sc ~transport:`Tcp ~to_transport:ch_sc_to_stk
    ~from_transport:ch_stk_to_sc;
  Single.connect_sc stk ~from_sc:ch_sc_to_stk ~to_sc:ch_stk_to_sc;
  let totals = Array.make nics 0 in
  let sinks =
    Array.init nics (fun i ->
        let link = Link.create engine () in
        let nic =
          Mq.create engine ~registry ~link ~side:Link.Left
            ~mac:(Addr.Mac.of_index (100 + i))
            ~rss:(Newt_nic.Rss.create ~queues:1 ())
            ~profile:Mq.E1000 ()
        in
        let drv_comp =
          Component.create machine ~name:(Printf.sprintf "drv%d" i)
            ~core:drv_cores.(i) ()
        in
        let drv = Mq_drv_srv.create drv_comp ~nic () in
        let tx_chan = chan () and rx_chan = chan () in
        let iface =
          Single.add_iface stk ~addr:(Addr.Ipv4.v 10 0 i 1)
            ~mac:(Mq.mac nic) ~drv ~tx_chan ~rx_chan
        in
        Single.add_route stk ~prefix:(Addr.Ipv4.v 10 0 i 0) ~bits:24 ~iface
          ~gateway:None;
        Single.add_neighbor stk ~iface (Addr.Ipv4.v 10 0 i 2)
          (Addr.Mac.of_index (200 + i));
        let sink =
          Sink.create engine ~link ~side:Link.Right ~addr:(Addr.Ipv4.v 10 0 i 2)
            ~mac:(Addr.Mac.of_index (200 + i))
            ()
        in
        Sink.sink_tcp sink ~port:5001 ~on_bytes:(fun ~at:_ n ->
            totals.(i) <- totals.(i) + n);
        sink)
  in
  ignore sinks;
  let next_app = ref 0 in
  let app () =
    let core = app_cores.(!next_app mod nics) in
    incr next_app;
    { Sc.app_core = core; app_pid = 20_000 + !next_app }
  in
  let _ =
    List.init nics (fun i ->
        Apps.Iperf.start machine ~sc ~app:(app ()) ~dst:(Addr.Ipv4.v 10 0 i 2)
          ~port:5001 ~until:(Time.of_seconds duration) ())
  in
  Engine.run ~until:(Time.of_seconds duration) engine;
  let total = Array.fold_left ( + ) 0 totals in
  let util =
    Newt_hw.Cpu.utilization stk_core ~now:(Engine.now engine)
  in
  (float_of_int total *. 8.0 /. duration /. 1e9, util)

type minix_result = {
  minix_mbps : float;
  minix_core_util : float;
  sync_ipcs_per_sec : float;
  minix_lossless : bool;
}

let minix_event_sim ?(duration = 2.0) () =
  let module Machine = Newt_hw.Machine in
  let module Link = Newt_nic.Link in
  let module Addr = Newt_net.Addr in
  let module Minix = Newt_stack.Minix_stack in
  let engine = Engine.create () in
  let machine = Machine.create engine in
  let link = Link.create engine () in
  let sink =
    Sink.create engine ~link ~side:Link.Right ~addr:(Addr.Ipv4.v 10 0 0 2)
      ~mac:(Addr.Mac.of_index 200) ()
  in
  let received = ref 0 in
  Sink.sink_tcp sink ~port:5001 ~on_bytes:(fun ~at:_ n -> received := !received + n);
  let mx =
    Minix.create machine ~link ~addr:(Addr.Ipv4.v 10 0 0 1)
      ~peer_mac:(Addr.Mac.of_index 200) ()
  in
  Minix.start_iperf mx ~dst:(Addr.Ipv4.v 10 0 0 2) ~port:5001
    ~until:(Time.of_seconds duration);
  Engine.run ~until:(Time.of_seconds (duration +. 0.5)) engine;
  {
    minix_mbps = float_of_int !received *. 8.0 /. duration /. 1e6;
    minix_core_util = Minix.core_utilization mx;
    sync_ipcs_per_sec = float_of_int (Minix.sync_ipc_count mx) /. duration;
    minix_lossless =
      Minix.bytes_sent mx = !received && Sink.checksum_failures sink = 0;
  }

(* {1 Continuous verification}

   When an experiment is handed a [Continuous.t], the static
   channel-graph checker re-runs against the LIVE topology after every
   reincarnation — re-derived from the Pubsub directory and each
   component's republished exports, so a recovery that comes up on the
   wrong core or loses a republish is caught the moment it happens, not
   at wiring time. *)

let sharded_spec s =
  let module S = Newt_scale.Sharded_stack in
  let module Sim_chan = Newt_channels.Sim_chan in
  let cfg = S.config s in
  let chans = S.tcp_channels s in
  {
    Newt_verify.Static.shards = cfg.S.shards;
    replicas = cfg.S.ip_replicas;
    rss_table = Newt_nic.Rss.table (Newt_scale.Shard_map.rss (S.shard_map s));
    shard_to_ip = Array.map (fun (c, _) -> Sim_chan.id c) chans;
    ip_to_shard = Array.map (fun (_, c) -> Sim_chan.id c) chans;
    replica_names = Array.map Component.name (S.ip_components s);
    shard_names = Array.map Component.name (S.tcp_components s);
    pf_shards = S.pf_shard_count s;
    pf_names = Array.map Component.name (S.pf_components s);
    ip_to_pf =
      Array.map (Array.map (fun (c, _) -> Sim_chan.id c)) (S.pf_channels s);
    pf_to_ip =
      Array.map (Array.map (fun (_, c) -> Sim_chan.id c)) (S.pf_channels s);
  }

let recheck_after_restarts ?(sharded = false) v s ~title =
  let module S = Newt_scale.Sharded_stack in
  S.on_reincarnated s (fun comp ->
      Continuous.recheck v (fun () ->
          Static.check ~directory:(S.directory s)
            ?sharding:(if sharded then Some (sharded_spec s) else None)
            ~title:
              (Printf.sprintf "%s: after %s restart %d" title (Component.name comp)
                 (Component.incarnation comp))
            (S.components s)))

(* {1 Recovery sabotage}

   The {!Host.sabotage} defects, installed on member 0 of the victim's
   plane (port [i]'s driver for [C_drv i]) of any stack configuration:
   the negative controls of the continuous re-checks and of the model
   checker. *)

let sabotage s comp kind =
  let module S = Newt_scale.Sharded_stack in
  let victim = Host.member s comp in
  match kind with
  | Host.Wrong_core ->
      (* Recovery brings the server up on a core that already runs a
         component it shares a channel with — the core-affinity
         re-check must flag it. Land on IP's core (every server has a
         channel with IP), or on TCP's when the victim is IP itself. *)
      let occupied =
        Component.core (Host.member s (if comp = Host.C_ip then Host.C_tcp else Host.C_ip))
      in
      Component.on_restarted victim (fun () -> Component.migrate victim occupied)
  | Host.Skip_republish ->
      (* Recovery loses the republish: overwrite the first export with
         a dangling chan_id, so directory lookups no longer match the
         wired channel. A pure metadata lie — peers keep their attached
         endpoints, so only the republish re-check can catch it. *)
      Component.on_restarted victim (fun () ->
          match Component.exports victim with
          | (key, _) :: _ ->
              Newt_channels.Pubsub.publish (S.directory s) ~key
                ~creator:(Component.pid victim) ~chan_id:(-1)
          | [] -> ())

(* {1 Figures 4 and 5} *)

type crash_trace = {
  points : (float * float) array;
  duplicate_segments : int;
  sender_retransmits : int;
  lost_segments : int;
  component_restarts : int;
}

let crash_run ?nic_reset ?verify ~seed ~rules ~protect_port ~crashes ~component
    ~duration () =
  let rule_list =
    if rules <= 2 then [ Newt_pf.Rule.pass_all ]
    else Pf_engine.generate_ruleset (Rng.create (seed + 1)) ~n:rules ~protect_port
  in
  let config = { Host.default_config with Host.seed; pf_rules = rule_list } in
  let config =
    match nic_reset with
    | Some r -> { config with Host.nic_reset_time = r }
    | None -> config
  in
  let h = Host.create ~config () in
  Option.iter (fun v -> recheck_after_restarts v (Host.stack h) ~title:"crash run") verify;
  let sink = Host.sink h 0 in
  let series = Series.create ~bin_width:(Time.of_seconds 0.1) in
  Sink.sink_tcp sink ~port:protect_port ~on_bytes:(fun ~at n -> Series.add series at n);
  let iperf =
    Apps.Iperf.start (Host.machine h) ~sc:(Host.sc h) ~app:(Host.app h)
      ~dst:(Host.sink_addr h 0) ~port:protect_port
      ~until:(Time.of_seconds (duration -. 1.0))
      ()
  in
  List.iter
    (fun at -> Host.at h (Time.of_seconds at) (fun () -> Host.kill_component h component))
    crashes;
  (* Run past the end so in-flight data drains and losses would show;
     with the verifier attached, half a second further still so the
     leak check reads a quiesced stack. *)
  Host.run h ~until:(Time.of_seconds (duration +. 1.0));
  Option.iter
    (fun v ->
      Host.run h ~until:(Time.of_seconds (duration +. 1.5));
      Continuous.end_run ~check_leaks:true v)
    verify;
  let received = Sink.tcp_bytes_received sink in
  let sent = Apps.Iperf.bytes_sent iperf in
  let sink_stats = Tcp.stats (Sink.tcp sink) in
  let sender_stats = Tcp.stats (Newt_stack.Tcp_srv.engine (Host.tcp_srv h)) in
  {
    points = Series.mbps series ~upto:(Time.of_seconds duration) ();
    duplicate_segments = sink_stats.Tcp.dup_segs_in;
    sender_retransmits = sender_stats.Tcp.retransmits;
    lost_segments = (max 0 (sent - received) + 1459) / 1460;
    component_restarts = Host.restarts_of h component;
  }

let figure_ip_crash ?(seed = 42) ?(crash_at = 4.0) ?(duration = 10.0) ?nic_reset
    ?verify () =
  crash_run ?nic_reset ?verify ~seed ~rules:0 ~protect_port:5001
    ~crashes:[ crash_at ] ~component:Host.C_ip ~duration ()

(* How long the Figure 4 outage lasts, from the crash until the bitrate
   is back above the threshold. *)
let recovery_gap ?(threshold_mbps = 800.0) ~crash_at (t : crash_trace) =
  (* First bin after the crash where the bitrate is back. *)
  let recovered = ref None in
  Array.iter
    (fun (time, mbps) ->
      if !recovered = None && time > crash_at && mbps >= threshold_mbps then
        recovered := Some time)
    t.points;
  match !recovered with Some time -> time -. crash_at | None -> infinity

type reset_sweep_point = {
  reset_time_s : float;
  outage_s : float;
  duplicates : int;
}

let nic_reset_sweep ?(seed = 42) () =
  (* "We believe that restart-aware hardware would allow less
     disruptive recovery" (Section V-D): sweep the device reset time
     and measure the Figure 4 outage. *)
  List.map
    (fun reset_s ->
      let t =
        figure_ip_crash ~seed ~nic_reset:(Time.of_seconds reset_s) ~duration:8.0
          ~crash_at:2.0 ()
      in
      {
        reset_time_s = reset_s;
        outage_s = recovery_gap ~crash_at:2.0 t;
        duplicates = t.duplicate_segments;
      })
    [ 1.2; 0.3; 0.05 ]

let figure_pf_crash ?(seed = 42) ?(rules = 1024) ?(crash_at = [ 6.0; 12.0 ])
    ?(duration = 18.0) ?verify () =
  crash_run ?verify ~seed ~rules ~protect_port:5001 ~crashes:crash_at
    ~component:Host.C_pf ~duration ()

(* {1 The fault-injection campaign} *)

type run_outcome = {
  injected : Fault_inject.injection;
  ssh_survived : bool;
  reachable_auto : bool;
  reachable_after_manual : bool;
  udp_transparent : bool;
  needed_reboot : bool;
  fully_transparent : bool;
}

type pf_shard_totals = {
  pf_shard : int;
  verdicts : int;
  blocked_packets : int;
  conntrack_expired : int;
}

type campaign = {
  runs : run_outcome list;
  pf_counters : pf_shard_totals array;
  crashes_tcp : int;
  crashes_udp : int;
  crashes_ip : int;
  crashes_pf : int;
  crashes_drv : int;
  fully_transparent : int;
  reachable : int;
  manually_fixed : int;
  broke_tcp : int;
  transparent_udp : int;
  reboots : int;
}

let campaign_run ?verify ?break_recovery ?(pf_shards = 1) ~seed
    (inj : Fault_inject.injection) =
  let rules =
    Pf_engine.generate_ruleset (Rng.create (seed + 1)) ~n:64 ~protect_port:22
  in
  let config =
    { Host.default_config with Host.seed; pf_rules = rules; pf_shards }
  in
  let h = Host.create ~config () in
  Option.iter
    (fun v -> recheck_after_restarts v (Host.stack h) ~title:"campaign run")
    verify;
  Option.iter (fun (comp, kind) -> sabotage (Host.stack h) comp kind) break_recovery;
  let sink = Host.sink h 0 in
  Sink.serve_tcp_echo sink ~port:22;
  Sink.serve_dns sink ~zone:(fun _ -> Some (Host.sink_addr h 0)) ();
  Sink.sink_tcp sink ~port:5001 ~on_bytes:(fun ~at:_ _ -> ());
  (* The stress workload of Section VI-B: a TCP connection and periodic
     DNS queries; plus the inbound SSH-like listener on the host. *)
  Apps.Echo_listener.start (Host.sc h) ~app:(Host.app h) ~port:22;
  let ssh =
    Apps.Ssh_session.start (Host.machine h) ~sc:(Host.sc h) ~app:(Host.app h)
      ~dst:(Host.sink_addr h 0) ~port:22 ()
  in
  let dns =
    Apps.Dns_client.start (Host.machine h) ~sc:(Host.sc h) ~app:(Host.app h)
      ~dst:(Host.sink_addr h 0) ~timeout:(Time.of_seconds 0.5) ()
  in
  let _iperf =
    Apps.Iperf.start (Host.machine h) ~sc:(Host.sc h) ~app:(Host.app h)
      ~dst:(Host.sink_addr h 0) ~port:5001 ~pace:(Time.of_seconds 0.02)
      ~until:(Time.of_seconds 9.5) ()
  in
  Host.at h (Time.of_seconds 2.0) (fun () -> Host.inject h inj);
  (* Probe inbound reachability after recovery settles. *)
  let reachable_auto = ref false in
  Host.at h (Time.of_seconds 5.5) (fun () ->
      Host.probe_reachable h ~port:22 ~timeout:(Time.of_seconds 1.4) (fun ok ->
          reachable_auto := ok));
  (* Administrator intervention for the stubborn cases, then re-probe. *)
  let reachable_manual = ref false in
  let manual_done = ref false in
  Host.at h (Time.of_seconds 7.2) (fun () ->
      if (not !reachable_auto) && not (Host.frozen h) then begin
        manual_done := true;
        Host.manual_restart h (Host.component_of_injection inj)
      end);
  Host.at h (Time.of_seconds 8.6) (fun () ->
      if !manual_done then
        Host.probe_reachable h ~port:22 ~timeout:(Time.of_seconds 1.2) (fun ok ->
            reachable_manual := ok));
  let ssh_ok_at_8s = ref 0 in
  Host.at h (Time.of_seconds 8.0) (fun () -> ssh_ok_at_8s := Apps.Ssh_session.exchanges_ok ssh);
  Host.run h ~until:(Time.of_seconds 10.0);
  (* With the verifier attached, let the run's tail drain (iperf ends
     at 9.5 s) so the end-of-run leak accounting reads a quiesced
     stack; a frozen world never drains, so skip its leak check. *)
  Option.iter
    (fun v ->
      Host.run h ~until:(Time.of_seconds 11.0);
      Continuous.end_run ~check_leaks:(not (Host.frozen h)) v)
    verify;
  let frozen = Host.frozen h in
  let ssh_survived =
    (not (Apps.Ssh_session.broken ssh))
    && Apps.Ssh_session.exchanges_ok ssh > !ssh_ok_at_8s
  in
  (* Transparent to UDP: the resolver rode out the fault on the same
     socket — at most a short outage (a NIC reset takes ~1.4 s, i.e. 2-3
     failed cycles), never reopening. *)
  let udp_transparent =
    (not frozen)
    && Apps.Dns_client.max_consecutive_failures dns <= 4
    && Apps.Dns_client.socket_reopens dns = 0
    && Apps.Dns_client.answered dns > 0
  in
  let reachable_auto = !reachable_auto && not frozen in
  let counters =
    Array.init (Host.pf_shard_count h) (fun j ->
        let pf = Host.pf_shard_srv h j in
        {
          pf_shard = j;
          verdicts = Newt_stack.Pf_srv.verdicts_issued pf;
          blocked_packets = Newt_stack.Pf_srv.blocked pf;
          conntrack_expired = Newt_stack.Pf_srv.conntrack_expired pf;
        })
  in
  ( {
      injected = inj;
      ssh_survived;
      reachable_auto;
      reachable_after_manual = !reachable_manual;
      udp_transparent;
      needed_reboot = frozen;
      fully_transparent =
        ssh_survived && reachable_auto && udp_transparent && not frozen;
    },
    counters )

(* The default seed gives a representative sample (the campaign is
   stochastic, as the paper's was — "the tool injects faults randomly so
   the faults are unpredictable"); other seeds vary by a few counts. *)
let fault_campaign ?(runs = 100) ?(seed = 2) ?verify ?break_recovery
    ?pf_shards () =
  let rng = Rng.create seed in
  let injections = Fault_inject.draw_many rng ~ndrv:1 ~runs in
  let results =
    List.mapi
      (fun i inj ->
        campaign_run ?verify ?break_recovery ?pf_shards
          ~seed:(seed + (1000 * (i + 1))) inj)
      injections
  in
  let outcomes = List.map fst results in
  (* Per-PF-shard counters, summed over the campaign's runs: under the
     random kill load every shard must keep issuing verdicts — a silent
     shard is a partition that never saw traffic. *)
  let np =
    match results with (_, c) :: _ -> Array.length c | [] -> 0
  in
  let pf_counters =
    Array.init np (fun j ->
        List.fold_left
          (fun acc (_, cs) ->
            {
              acc with
              verdicts = acc.verdicts + cs.(j).verdicts;
              blocked_packets = acc.blocked_packets + cs.(j).blocked_packets;
              conntrack_expired =
                acc.conntrack_expired + cs.(j).conntrack_expired;
            })
          {
            pf_shard = j;
            verdicts = 0;
            blocked_packets = 0;
            conntrack_expired = 0;
          }
          results)
  in
  let count p = List.length (List.filter p outcomes) in
  let target_is target o =
    match (o.injected.Fault_inject.target, target) with
    | Fault_inject.T_tcp, `Tcp
    | Fault_inject.T_udp, `Udp
    | Fault_inject.T_ip, `Ip
    | Fault_inject.T_pf, `Pf
    | Fault_inject.T_drv _, `Drv ->
        true
    | _ -> false
  in
  {
    runs = outcomes;
    pf_counters;
    crashes_tcp = count (target_is `Tcp);
    crashes_udp = count (target_is `Udp);
    crashes_ip = count (target_is `Ip);
    crashes_pf = count (target_is `Pf);
    crashes_drv = count (target_is `Drv);
    fully_transparent = count (fun o -> o.fully_transparent);
    reachable = count (fun o -> o.reachable_auto);
    manually_fixed = count (fun o -> (not o.reachable_auto) && o.reachable_after_manual);
    broke_tcp = count (fun o -> not o.ssh_survived);
    transparent_udp = count (fun o -> o.udp_transparent);
    reboots = count (fun o -> o.needed_reboot);
  }

(* {1 MWAIT latency ablation} *)

type latency_point = {
  poll_window_us : float;
  mean_rtt_us : float;
  pings : int;
  awake_fraction : float;
}

let mwait_latency_ablation ?(seed = 42) () =
  let measure poll_window =
    let costs = { Costs.default with Costs.poll_window } in
    let config = { Host.default_config with Host.seed; costs } in
    let h = Host.create ~config () in
    let sink = Host.sink h 0 in
    let rtts = ref [] in
    (* Space the pings out so every server goes idle in between. *)
    for i = 1 to 50 do
      Host.at h (Time.of_seconds (0.5 +. (0.005 *. float_of_int i))) (fun () ->
          Sink.ping sink ~dst:(Host.local_addr h 0) (fun ~rtt ->
              rtts := rtt :: !rtts))
    done;
    Host.run h ~until:(Time.of_seconds 1.2);
    let n = List.length !rtts in
    let mean =
      if n = 0 then 0.0
      else
        float_of_int (List.fold_left ( + ) 0 !rtts)
        /. float_of_int n
        /. (float_of_int Time.cycles_per_second /. 1e6)
    in
    let now = Engine.now (Host.engine h) in
    let os_cores =
      List.map
        (fun comp -> Newt_stack.Proc.core (Host.proc_of h comp))
        [ Host.C_tcp; Host.C_udp; Host.C_ip; Host.C_pf; Host.C_drv 0 ]
    in
    let awake =
      List.fold_left
        (fun acc core ->
          acc + Newt_hw.Cpu.busy_cycles core + Newt_hw.Cpu.polling_cycles core)
        0 os_cores
    in
    {
      poll_window_us =
        float_of_int poll_window /. (float_of_int Time.cycles_per_second /. 1e6);
      mean_rtt_us = mean;
      pings = n;
      awake_fraction =
        float_of_int awake /. float_of_int (now * List.length os_cores);
    }
  in
  List.map measure [ 0; Costs.default.Costs.poll_window; Time.of_micros 10_000.0 ]

(* {1 Driver coalescing} *)

type coalescing_result = {
  drivers : int;
  nics_served : int;
  driver_core_utilization : float;
  sustainable : bool;
}

let driver_coalescing ?(costs = Costs.default) () =
  (* At the full 5-NIC TSO rate (Table II line 6), compute the load on a
     driver core serving k NICs. *)
  let r = Capacity.evaluate ~costs Capacity.Split_dedicated_sc_tso in
  let total_gbps = r.Capacity.goodput_gbps in
  let segments_per_sec = total_gbps *. 1e9 /. (1460.0 *. 8.0) in
  let cycles_per_seg =
    match
      List.find_opt
        (fun s -> s.Capacity.label = "driver server")
        r.Capacity.stages
    with
    | Some s -> s.Capacity.cycles_per_segment
    | None -> 0.0
  in
  List.map
    (fun drivers ->
      let nics = 5 in
      let share = float_of_int nics /. float_of_int drivers in
      let load =
        segments_per_sec /. float_of_int nics *. share *. cycles_per_seg
        /. float_of_int Time.cycles_per_second
      in
      {
        drivers;
        nics_served = (nics + drivers - 1) / drivers;
        driver_core_utilization = load;
        sustainable = load < 1.0;
      })
    [ 5; 1 ]

(* {1 Scaling curve — N transport shards behind a multi-queue NIC} *)

type scaling_point = {
  shards : int;
  ip_replicas : int;
  pf_shards : int;  (* 0 = no filter in the path *)
  goodput_gbps : float;
  per_shard : Newt_scale.Sharded_stack.shard_stats array;
  per_pf_shard : Newt_scale.Sharded_stack.pf_shard_stats array;
  imbalance : float;
  violations : int;
}

type scaling_result = {
  points : scaling_point list;
  single_instance_gbps : float;
}

let scaling_curve ?(shard_counts = [ 1; 2; 4; 8 ]) ?(ip_replicas = 1)
    ?(pf_shards = 0) ?(flows = 8) ?(duration = 0.5) ?(link_gbps = 40.0) ?verify
    () =
  let module S = Newt_scale.Sharded_stack in
  let run_point n =
    (* A point can't use more IP replicas (or PF shards) than it has
       transport shards. [pf_shards = 0] keeps the filter out of the
       path (the historical no-PF curve). *)
    let r = min ip_replicas n in
    let np = min pf_shards n in
    let config =
      {
        S.default_config with
        S.shards = n;
        ip_replicas = r;
        link_gbps;
        pf_shards = max 1 np;
        pf_rules = (if np = 0 then None else Some [ Newt_pf.Rule.pass_all ]);
      }
    in
    let s = S.create ~config () in
    Option.iter
      (fun v ->
        recheck_after_restarts ~sharded:true v s
          ~title:(Printf.sprintf "scaling N=%d r=%d" n r))
      verify;
    let total = ref 0 in
    for i = 0 to flows - 1 do
      Sink.sink_tcp (S.sink s) ~port:(5001 + i) ~on_bytes:(fun ~at:_ b ->
          total := !total + b)
    done;
    let _ =
      List.init flows (fun i ->
          Apps.Iperf.start (S.machine s) ~sc:(S.sc s) ~app:(S.app s)
            ~dst:(S.sink_addr s) ~port:(5001 + i)
            ~until:(Time.of_seconds duration) ())
    in
    S.run s ~until:(Time.of_seconds duration);
    Option.iter
      (fun v ->
        S.run s ~until:(Time.of_seconds (duration +. 0.25));
        Continuous.end_run ~check_leaks:false v)
      verify;
    {
      shards = n;
      ip_replicas = r;
      pf_shards = np;
      goodput_gbps = float_of_int !total *. 8.0 /. duration /. 1e9;
      per_shard = S.shard_stats s;
      per_pf_shard = S.pf_shard_stats s;
      imbalance = S.imbalance_ratio s;
      violations = S.steering_violations s;
    }
  in
  {
    points = List.map run_point shard_counts;
    single_instance_gbps =
      (Capacity.evaluate Capacity.Split_dedicated_sc).Capacity.goodput_gbps;
  }

(* {1 Stack verifier — static channel-graph checks over every shipped
   configuration} *)

let verify_configs ?(max_shards = 8) () =
  let module S = Newt_scale.Sharded_stack in
  let split =
    let h = Host.create () in
    Newt_verify.Static.check
      ~directory:(Host.directory h)
      ~title:"split stack" (Host.components h)
  in
  let sharded =
    List.concat_map
      (fun n ->
        List.filter_map
          (fun (r, pf) ->
            if r > n || pf > n then None
            else
              let config =
                {
                  S.default_config with
                  S.shards = n;
                  ip_replicas = r;
                  pf_shards = pf;
                  pf_rules = Some [ Newt_pf.Rule.pass_all ];
                }
              in
              let s = S.create ~config () in
              Some
                (Newt_verify.Static.check
                   ~directory:(S.directory s)
                   ~sharding:(sharded_spec s)
                   ~title:(Printf.sprintf "sharded N=%d r=%d pf=%d" n r pf)
                   (S.components s)))
          [ (1, 1); (2, 1); (1, 2); (2, 2) ])
      (List.init max_shards (fun i -> i + 1))
  in
  split :: sharded

let verify_all ?max_shards () =
  Newt_verify.Report.merge ~title:"all stack configurations"
    (verify_configs ?max_shards ())

(* {1 Sanitized fault run — the ownership sanitizer across a crash} *)

let sanitized_ip_crash ?seed ?crash_at ?duration () =
  let trace =
    Checker.with_checkers [ (module Sanitizer) ] (fun () ->
        figure_ip_crash ?seed ?crash_at ?duration ())
  in
  (Sanitizer.report ~title:"sanitized IP-crash run" (), trace)

(* {1 Protocol-checked fault runs — the dynamic request/confirm
   contract across crashes} *)

let protocol_crash_run ~title run =
  let trace = Checker.with_checkers [ (module Protocol) ] run in
  (* Both figure runs stop their traffic a second before the end and
     run past it, so the tail is drained: still-open obligations are
     genuine violations, not in-flight work. *)
  (Protocol.report ~drained:true ~title (), trace)

let protocol_ip_crash ?seed ?crash_at ?duration () =
  protocol_crash_run ~title:"protocol-checked IP-crash run" (fun () ->
      figure_ip_crash ?seed ?crash_at ?duration ())

let protocol_pf_crash ?seed ?rules ?crash_at ?duration () =
  protocol_crash_run ~title:"protocol-checked PF-crash run" (fun () ->
      figure_pf_crash ?seed ?rules ?crash_at ?duration ())

(* {1 Recovery model checking — exhaustive crash-point search}

   For every (component × labeled recovery step) of a configuration,
   boot a fresh world under load, crash the component, and arm the
   one-shot injector so it dies again right after that step of its own
   recovery.  The verdict for each crash point folds together the
   reincarnation server's liveness view, the continuous verifier
   (static re-checks after every restart, sanitizer, leak accounting)
   and the protocol checker; the protocol event ring is the
   counterexample trace. *)

let violation ~check ~(case : Mcheck.case) detail =
  {
    Newt_verify.Report.check;
    subject = Printf.sprintf "%s crashed after step %S" case.Mcheck.component case.Mcheck.step;
    culprit = case.Mcheck.component;
    detail;
  }

(* Shared verdict logic: read the world's health, close the verifier
   run, and attach the protocol trace as the counterexample. *)
let judge ~(case : Mcheck.case) ~alive ~armed_left ~check_leaks v =
  let trace = Protocol.trace () in
  Continuous.end_run ~check_leaks v;
  let extra =
    (if alive then []
     else
       [
         violation ~check:"no-convergence" ~case
           "component not back to responsive after the mid-recovery crash";
       ])
    @
    match armed_left with
    | None -> []
    | Some step ->
        [
          violation ~check:"crash-point-not-reached" ~case
            (Printf.sprintf
               "armed injector for step %S never fired during recovery" step);
        ]
  in
  let viols =
    extra @ (Continuous.report ~title:"mcheck case" v).Newt_verify.Report.violations
  in
  let converged = viols = [] in
  {
    Mcheck.case;
    converged;
    violations = (if converged then [] else viols);
    trace = (if converged then [] else trace);
  }

type mcheck_config = Split | Sharded

(* A configuration's world and load. The split stack runs one flow that
   ends well before the run does, with a short device reset so each
   case stays cheap while still exercising the driver-reset step; its
   tail drains, so leaks and open obligations count. The sharded stack
   (N=2 shards x r=2 IP replicas x pf=2 PF shards) runs four flows in a
   short window that is not guaranteed to drain, and is re-checked with
   its sharding spec (RSS affinity, the PF partition). *)
type mcheck_world = {
  stack : Newt_scale.Sharded_stack.config;
  sharded : bool;
  flows : int;
  traffic_until : float;
  kill_at : float;
  run_until : float;
  drained : bool;
}

let mcheck_world ~seed = function
  | Split ->
      {
        stack =
          Host.stack_config
            { Host.default_config with Host.seed; nic_reset_time = Time.of_seconds 0.2 };
        sharded = false;
        flows = 1;
        traffic_until = 2.2;
        kill_at = 0.6;
        run_until = 3.4;
        drained = true;
      }
  | Sharded ->
      let module S = Newt_scale.Sharded_stack in
      {
        stack =
          {
            S.default_config with
            S.seed;
            shards = 2;
            ip_replicas = 2;
            pf_shards = 2;
            pf_rules = Some [ Newt_pf.Rule.pass_all ];
          };
        sharded = true;
        flows = 4;
        traffic_until = 0.8;
        kill_at = 0.3;
        run_until = 1.5;
        drained = false;
      }

(* Every supervised member with its labeled recovery steps (the
   SYSCALL server is not part of the restart story, Section V-D). *)
let crash_points ?(seed = 42) config =
  let module S = Newt_scale.Sharded_stack in
  let s = S.create ~config:(mcheck_world ~seed config).stack () in
  List.filter_map
    (fun c ->
      if c == S.sc_component s then None
      else Some (Component.name c, Component.recovery_steps c))
    (S.components s)

let mcheck ?budget ?(seed = 42) ?break_recovery config =
  let module S = Newt_scale.Sharded_stack in
  let w = mcheck_world ~seed config in
  let cases = Mcheck.enumerate (crash_points ~seed config) in
  Checker.with_checkers [ (module Protocol); (module Sanitizer) ] (fun () ->
      let run (case : Mcheck.case) =
        let s = S.create ~config:w.stack () in
        let v = Continuous.create () in
        recheck_after_restarts ~sharded:w.sharded v s ~title:"mcheck";
        Option.iter (fun (c, k) -> sabotage s c k) break_recovery;
        for i = 0 to w.flows - 1 do
          Sink.sink_tcp (S.sink s) ~port:(5001 + i) ~on_bytes:(fun ~at:_ _ -> ())
        done;
        for i = 0 to w.flows - 1 do
          ignore
            (Apps.Iperf.start (S.machine s) ~sc:(S.sc s) ~app:(S.app s)
               ~dst:(S.sink_addr s) ~port:(5001 + i)
               ~until:(Time.of_seconds w.traffic_until) ())
        done;
        let comp =
          List.find (fun c -> Component.name c = case.Mcheck.component) (S.components s)
        in
        Component.arm_crash_after comp ~step:case.Mcheck.step;
        S.at s (Time.of_seconds w.kill_at) (fun () -> S.kill s comp);
        S.run s ~until:(Time.of_seconds w.run_until);
        let alive = Reincarnation.alive_check (S.rs s) in
        judge ~case ~alive ~armed_left:(Component.armed_crash comp)
          ~check_leaks:(w.drained && alive) v
      in
      Mcheck.search ?budget ~cases ~run ())
