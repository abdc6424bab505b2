module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Machine = Newt_hw.Machine
module Addr = Newt_net.Addr
module Tcp = Newt_net.Tcp
module Mq = Newt_nic.Mq_e1000
module Rule = Newt_pf.Rule
module Proc = Newt_stack.Proc
module Component = Newt_stack.Component
module Ip_srv = Newt_stack.Ip_srv
module Pf_srv = Newt_stack.Pf_srv
module Tcp_srv = Newt_stack.Tcp_srv
module Udp_srv = Newt_stack.Udp_srv
module Syscall_srv = Newt_stack.Syscall_srv
module Sink = Newt_stack.Sink
module Storage = Newt_reliability.Storage
module Reincarnation = Newt_reliability.Reincarnation
module Fault_inject = Newt_reliability.Fault_inject
module S = Newt_scale.Sharded_stack

type component = C_tcp | C_udp | C_ip | C_pf | C_drv of int

let component_name = function
  | C_tcp -> "tcp"
  | C_udp -> "udp"
  | C_ip -> "ip"
  | C_pf -> "pf"
  | C_drv i -> Printf.sprintf "drv%d" i

type config = {
  seed : int;
  costs : Newt_hw.Costs.t;
  nics : int;
  pf_rules : Rule.t list;
  pf_shards : int;
  nic_reset_time : Time.cycles;
  app_cores : int;
  coalesce_drivers : bool;
}

let default_config =
  {
    seed = 42;
    costs = Newt_hw.Costs.default;
    nics = 1;
    pf_rules = [ Rule.pass_all ];
    pf_shards = 1;
    nic_reset_time = Time.of_seconds 1.2;
    app_cores = 2;
    coalesce_drivers = false;
  }

let stack_config (c : config) =
  {
    S.seed = c.seed;
    costs = c.costs;
    shards = 1;
    ip_replicas = 1;
    pf_shards = c.pf_shards;
    nics = c.nics;
    coalesce_drivers = c.coalesce_drivers;
    device = Mq.E1000;
    link_gbps = 1.0;
    pf_rules = Some c.pf_rules;
    tcp_config = None;
    conntrack_total = 65536;
    nic_reset_time = c.nic_reset_time;
  }

type t = {
  stack : S.t;
  app_cores : Newt_hw.Cpu.t array;
  mutable next_app : int;
  mutable next_app_pid : int;
  mutable frozen : bool;
  (* Components whose next automatic restart must come up broken
     (Section VI-B's manual-intervention cases). *)
  mutable broken_next_restart : component list;
}

let stack t = t.stack
let engine t = S.engine t.stack
let machine t = S.machine t.stack
let sc t = S.sc t.stack
let tcp_srv t = S.tcp_shard t.stack 0
let udp_srv t = S.udp_srv t.stack
let ip_srv t = S.ip_srv t.stack
let pf_srv t = S.pf_shard t.stack 0
let pf_shard_srv t j = S.pf_shard t.stack j
let pf_shard_count t = S.pf_shard_count t.stack
let rs t = S.rs t.stack
let storage t = S.storage t.stack
let nic t i = (S.port t.stack i).S.nic
let link t i = (S.port t.stack i).S.link
let sink t i = (S.port t.stack i).S.sink
let frozen t = t.frozen
let directory t = S.directory t.stack
let trace t = S.trace t.stack
let components t = S.components t.stack

let member s = function
  | C_tcp -> (S.tcp_components s).(0)
  | C_udp -> S.udp_component s
  | C_ip -> (S.ip_components s).(0)
  | C_pf -> (S.pf_components s).(0)
  | C_drv i -> (S.drv_components s).(i)

let comp_of t comp = member t.stack comp
let proc_of t comp = Component.proc (comp_of t comp)

let local_addr _t i = Addr.Ipv4.v 10 0 i 1
let sink_addr _t i = Addr.Ipv4.v 10 0 i 2

let app t =
  let core = t.app_cores.(t.next_app mod Array.length t.app_cores) in
  t.next_app <- t.next_app + 1;
  let pid = t.next_app_pid in
  t.next_app_pid <- pid + 1;
  { Syscall_srv.app_core = core; app_pid = pid }

let run t ~until = S.run t.stack ~until
let at t when_ f = S.at t.stack when_ f

let create ?(config = default_config) () =
  if config.app_cores <= 0 then invalid_arg "Host.create: app_cores must be positive";
  let stack = S.create ~config:(stack_config config) () in
  let t =
    {
      stack;
      app_cores =
        Array.init config.app_cores (fun _ ->
            Machine.add_timeshared_core (S.machine stack));
      next_app = 0;
      next_app_pid = 10_000;
      frozen = false;
      broken_next_restart = [];
    }
  in
  let broken comp =
    if List.mem comp t.broken_next_restart then begin
      t.broken_next_restart <-
        List.filter (fun c -> c <> comp) t.broken_next_restart;
      true
    end
    else false
  in
  (* The broken-recovery hooks run after the server's own recovery (the
     component comes up, but its restored state is bad — Section VI-B's
     manual-restart cases). Hook registration order guarantees this:
     the servers registered their recovery when the stack was built. *)
  Component.on_restart (comp_of t C_tcp) (fun ~fresh:_ ->
      if broken C_tcp then begin
        let eng = Tcp_srv.engine (tcp_srv t) in
        List.iter (fun port -> Tcp.unlisten eng ~port) (Tcp.listening_ports eng)
      end);
  Component.on_restart (comp_of t C_ip) (fun ~fresh:_ ->
      if broken C_ip then Ip_srv.clear_routes (ip_srv t));
  for i = 0 to config.nics - 1 do
    Component.on_restart (comp_of t (C_drv i)) (fun ~fresh:_ ->
        if broken (C_drv i) then Mq.misconfigure (nic t i))
  done;
  t

(* {2 Continuous verification} *)

let on_reincarnated t f = S.on_reincarnated t.stack f

type sabotage = Wrong_core | Skip_republish

(* {2 Faults} *)

let kill_component t comp = S.kill t.stack (comp_of t comp)
let hang_component t comp = Component.hang (comp_of t comp)

let component_of_target = function
  | Fault_inject.T_tcp -> C_tcp
  | Fault_inject.T_udp -> C_udp
  | Fault_inject.T_ip -> C_ip
  | Fault_inject.T_pf -> C_pf
  | Fault_inject.T_drv i -> C_drv i

let component_of_injection (inj : Fault_inject.injection) =
  component_of_target inj.Fault_inject.target

let live_update t comp =
  (* Graceful replacement (Section V): quiesce, swap, resume. The
     component's continuously-persisted state carries over; channels
     stay established; messages queue during the swap. *)
  let p = proc_of t comp in
  Proc.begin_update p;
  ignore
    (Engine.schedule (engine t) (Time.of_seconds 0.05) (fun () ->
         Proc.finish_update p))

let crash_storage t =
  Storage.crash (storage t);
  (* The restarted storage server announces itself; every component
     persists its state anew. *)
  Ip_srv.repersist (ip_srv t);
  for j = 0 to pf_shard_count t - 1 do
    Pf_srv.repersist (pf_shard_srv t j)
  done;
  Tcp_srv.repersist (tcp_srv t);
  Udp_srv.repersist (udp_srv t)

(* Restarting a driver resets its device, which also clears a
   misconfiguration (Section VI-B); every other component's restart is
   its recovery procedure. *)
let manual_restart t comp = kill_component t comp

let inject t (inj : Fault_inject.injection) =
  let comp = component_of_target inj.Fault_inject.target in
  match inj.Fault_inject.effect with
  | Fault_inject.Crash -> kill_component t comp
  | Fault_inject.Hang -> hang_component t comp
  | Fault_inject.Misconfigure_device -> (
      match comp with
      | C_drv i -> Mq.misconfigure (nic t i)
      | C_tcp | C_udp | C_ip | C_pf -> kill_component t comp)
  | Fault_inject.Broken_recovery ->
      t.broken_next_restart <- comp :: t.broken_next_restart;
      kill_component t comp
  | Fault_inject.Sync_hang ->
      (* The fault propagated into the unconverted synchronous part of
         the system (the select/file-descriptor merge): everything
         stalls; only a reboot helps (3 runs in Section VI-B). *)
      t.frozen <- true;
      Proc.hang (Syscall_srv.proc (sc t))

let restarts_of t comp = S.restarts_of t.stack (comp_of t comp)

(* {2 Probes} *)

let probe_reachable t ?(via = 0) ~port ~timeout k =
  let sink = sink t via in
  let pcb = Sink.connect sink ~dst:(local_addr t via) ~dst_port:port in
  let answered = ref false in
  Tcp.set_handler pcb (fun ev ->
      match ev with
      | Tcp.Connected ->
          if not !answered then begin
            answered := true;
            Tcp.abort pcb;
            k true
          end
      | Tcp.Reset ->
          if not !answered then begin
            answered := true;
            k false
          end
      | Tcp.Accepted | Tcp.Readable | Tcp.Writable | Tcp.Closed_normally -> ());
  ignore
    (Engine.schedule (engine t) timeout (fun () ->
         if not !answered then begin
           answered := true;
           Tcp.abort pcb;
           k false
         end))
