(** A complete NewtOS host under test, wired to ideal remote peers.

    This is the library's top-level entry point in the paper's
    vocabulary. The machine (one dedicated core per OS component), the
    full split networking stack of Figure 3 (SYSCALL, TCP, UDP, IP, PF,
    one driver per NIC), the e1000 devices and gigabit links, an ideal
    remote host on the far side of every link, the storage server, and
    the reincarnation server supervising every stack component are the
    1×1×1 configuration of {!Newt_scale.Sharded_stack} ({!stack_config}
    is the translation). The host adds what the paper's evaluation
    speaks about: the components by name ({!component}), timeshared
    application cores, and the fault classes of the injection campaign.

    Fault injection enters through {!inject} (or the lower-level
    {!kill_component}); recovery then unfolds through the reincarnation
    machinery exactly as Section V-D describes, and its consequences are
    observable through the application layer ({!app}, {!sc}) and the
    remote peers ({!sink}). *)

type component = C_tcp | C_udp | C_ip | C_pf | C_drv of int

val component_name : component -> string

type config = {
  seed : int;
  costs : Newt_hw.Costs.t;  (** The machine's cycle-cost model. *)
  nics : int;  (** Gigabit ports, each with its own driver and peer. *)
  pf_rules : Newt_pf.Rule.t list;
  pf_shards : int;
      (** Packet-filter instances (>= 1, default 1): they share the one
          ruleset and partition the conntrack table by a symmetric flow
          hash (each with an LRU cap of [65536/pf_shards] and its own
          TTL sweep); the IP server steers each packet — both
          directions — to the owning shard from its IP header. 1
          reproduces the singleton filter exactly (name ["pf"], keys
          ["ip.to_pf"]/["pf.to_ip"]). *)
  nic_reset_time : Newt_sim.Time.cycles;
      (** Link retraining time after a device reset (the Figure 4
          gap). *)
  app_cores : int;  (** Timeshared application cores (>= 1). *)
  coalesce_drivers : bool;
      (** Run all drivers on one dedicated core (Section VI-A: "to
          evaluate scalability ... we also used one driver for all
          interfaces"); each NIC keeps its own driver server, but they
          share the core "as the containers in which the drivers can
          block". *)
}

val default_config : config
(** Seed 42, 1 NIC, pass-all filter, 1.2 s NIC reset, 2 app cores.
    Heartbeats and restart delays are the paper's
    ({!Newt_stack.Component.Defaults}). *)

val stack_config : config -> Newt_scale.Sharded_stack.config
(** The builder configuration of a host: every plane at size 1 (the
    filter at [pf_shards]), [nics] ports with the e1000 device profile
    on 1 Gbps links. *)

type t

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] when [nics] or [app_cores] is not
    positive. *)

val stack : t -> Newt_scale.Sharded_stack.t
(** The stack the host runs on. *)

val member : Newt_scale.Sharded_stack.t -> component -> Newt_stack.Component.t
(** The plane member a paper component names, on any stack: member 0
    of the TCP, UDP, IP or PF plane, or port [i]'s driver. *)

(** {1 Access} *)

val engine : t -> Newt_sim.Engine.t
val machine : t -> Newt_hw.Machine.t
val sc : t -> Newt_stack.Syscall_srv.t
val tcp_srv : t -> Newt_stack.Tcp_srv.t
val udp_srv : t -> Newt_stack.Udp_srv.t
val ip_srv : t -> Newt_stack.Ip_srv.t
val pf_srv : t -> Newt_stack.Pf_srv.t
(** PF shard 0 (the only one by default). *)

val pf_shard_srv : t -> int -> Newt_stack.Pf_srv.t
val pf_shard_count : t -> int

val rs : t -> Newt_reliability.Reincarnation.t
val storage : t -> Newt_reliability.Storage.t
val nic : t -> int -> Newt_nic.Mq_e1000.t
val link : t -> int -> Newt_nic.Link.t
val sink : t -> int -> Newt_stack.Sink.t

val comp_of : t -> component -> Newt_stack.Component.t
(** The generic component-server core behind a stack component. *)

val proc_of : t -> component -> Newt_stack.Proc.t

val components : t -> Newt_stack.Component.t list
(** Every component server of the host, for the stack verifier. *)

val directory : t -> Newt_channels.Pubsub.t
(** The publish/subscribe channel directory (Section IV-C): every
    fast-path channel is published under a meaningful key
    (["tcp.to_ip"], ["drv0.to_ip"], ...) at boot, and re-published by
    the reincarnation machinery when its consumer restarts — late
    subscribers see current publications. *)

val trace : t -> Newt_sim.Trace.t
(** The bounded event log: crash / hang / restart records from every
    server. *)

val local_addr : t -> int -> Newt_net.Addr.Ipv4.t
(** The host's address on interface [i] (10.0.[i].1). *)

val sink_addr : t -> int -> Newt_net.Addr.Ipv4.t
(** The peer's address on link [i] (10.0.[i].2). *)

val app : t -> Newt_stack.Syscall_srv.app
(** An application context on a timeshared core (round-robins over the
    configured app cores). *)

val run : t -> until:Newt_sim.Time.cycles -> unit
(** Advance the world. *)

val at : t -> Newt_sim.Time.cycles -> (unit -> unit) -> unit
(** Schedule an action at an absolute simulated time. *)

(** {1 Continuous verification} *)

val on_reincarnated : t -> (Newt_stack.Component.t -> unit) -> unit
(** Install the post-recovery callback on the host's reincarnation
    server ({!Newt_reliability.Reincarnation.set_on_reincarnated}):
    fires after every supervised component finishes a full recovery,
    with exports republished and neighbours notified — the point where
    the continuous verifier re-checks the live topology. *)

type sabotage = Wrong_core | Skip_republish
(** Deliberate recovery defects for verifier regression tests
    ({!Experiments.sabotage} installs them): [Wrong_core] makes every
    future restart bring the server up on another component's core
    (trips the core-affinity re-check); [Skip_republish] makes it lose
    the directory republish of its first export (trips the republish
    re-check). Both are metadata-level breaks the traffic-level
    campaign outcomes cannot see — only the continuous checker can. *)

(** {1 Faults} *)

val kill_component : t -> component -> unit
(** Crash it; the reincarnation server recovers it. *)

val component_of_injection : Newt_reliability.Fault_inject.injection -> component
(** Which component a drawn fault lands in. *)

val inject : t -> Newt_reliability.Fault_inject.injection -> unit
(** Apply a drawn fault, including the degraded classes:
    device misconfiguration, broken recovery, and the synchronous-path
    hang that freezes the system (reboot necessary). *)

val live_update : t -> component -> unit
(** Replace the component by a new version on the fly: "since the
    restarted component can easily be a newer or patched version of the
    original code, the same mechanism allows us to update on the fly
    many core OS components" (Section I). The component shuts down
    (its continuously-persisted state is current), and the new
    incarnation inherits the channels; other traffic is unaffected —
    the UDP-update-under-TCP-traffic scenario of Section V. *)

val crash_storage : t -> unit
(** Crash the storage server: its contents vanish and "every other
    server has to store its state again" (Section V-D) — which they do,
    immediately, so later component crashes still recover. *)

val manual_restart : t -> component -> unit
(** The administrator's intervention for the broken-recovery and
    misconfigured-device cases (Section VI-B). *)

val frozen : t -> bool
(** The synchronous select path hung: only a reboot helps. *)

val restarts_of : t -> component -> int

(** {1 Probes} *)

val probe_reachable :
  t -> ?via:int -> port:int -> timeout:Newt_sim.Time.cycles -> (bool -> unit) -> unit
(** From the peer on link [via] (default 0), try to open a TCP
    connection to the host — the paper's "reachable from outside"
    criterion. The callback fires with the outcome after at most
    [timeout]. *)
