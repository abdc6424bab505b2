(** A NewtOS host whose every layer is a {!Replica_set}.

    The single-instance {!Newt_core.Host} tops out at one TCP server's
    worth of cycles per segment (Table II). This composition implements
    the scaling design the paper's discussion points at: a multi-queue
    NIC ({!Newt_nic.Mq_e1000}) steers each flow's frames onto one of N
    RX queues; the IP server fans segments up to N [tcp_srv] replicas on
    dedicated cores (each with its own channels, pools and request
    database); the SYSCALL server routes each socket's calls down to its
    shard. One {!Shard_map} drives all layers, so {e every segment of a
    flow traverses exactly one shard} — the affinity invariant
    {!steering_violations} counts violations of.

    Every component server is a member of a {!Replica_set} — most of
    them 1-member sets — so transport shards, IP replicas and PF shards
    are three configurations of one replication mechanism, not three
    mechanisms. Each member is supervised by the reincarnation server
    independently: killing one TCP shard ({!kill_shard}) loses only that
    shard's connections; the other shards' flows keep running without
    losing a segment.

    The IP server can be replicated ([ip_replicas]): each of the [r]
    instances owns the NIC queues [q] with [q mod r = k] and serves the
    transport shards [i] with [i mod r = k]. ARP bindings learned from
    the wire are broadcast through the channel directory so all caches
    converge; killing one replica ({!kill_ip_replica}) fences off only
    its own queues.

    The packet filter can be sharded too ([pf_shards]): [np] PF
    instances partition the conntrack table by the same flow hash
    (shard [j] owns the flows with [shard_of mod np = j], with an LRU
    cap of [total/np] each and its own TTL sweep). Every IP replica
    holds a channel pair to every PF shard and steers each packet —
    both directions — from its IP header, so a flow's packets always
    meet the same conntrack partition. Rules are one shared
    configuration, broadcast to all shards through the channel
    directory and replayed on restart. Killing one shard
    ({!kill_pf_shard}) holds only its own flows' packets while the
    reincarnation server brings it back; recovery re-tracks {e only}
    that shard's slice of the transports' connection tables — the
    sibling shards lose zero entries. *)

(** A NewtOS host whose every layer is a {!Replica_set}: the one
    builder that wires a stack.

    The paper's Figure 3 split stack is the 1×1×1 configuration
    ({!Newt_core.Host} translates its vocabulary into exactly that):
    one TCP, UDP, IP and PF server each, on dedicated cores, behind one
    gigabit e1000 per port. Scaling the same builder out implements the
    design the paper's discussion points at: a multi-queue NIC
    ({!Newt_nic.Mq_e1000}) steers each flow's frames onto one of N RX
    queues; the IP server fans segments up to N [tcp_srv] replicas on
    dedicated cores (each with its own channels, pools and request
    database); the SYSCALL server routes each socket's calls down to its
    shard. One {!Shard_map} drives all layers, so {e every segment of a
    flow traverses exactly one shard} — the affinity invariant
    {!steering_violations} counts violations of.

    Every component server is a member of a {!Replica_set} — most of
    them 1-member sets — so transport shards, IP replicas, PF shards
    and per-port drivers are configurations of one replication
    mechanism, not several. Each member is supervised by the
    reincarnation server independently: killing one TCP shard
    ({!kill_shard}) loses only that shard's connections; the other
    shards' flows keep running without losing a segment.

    The IP server can be replicated ([ip_replicas]): each of the [r]
    instances owns the NIC queues [q] with [q mod r = k] and serves the
    transport shards [i] with [i mod r = k]. ARP bindings learned from
    the wire are broadcast through the channel directory so all caches
    converge; killing one replica ({!kill_ip_replica}) fences off only
    its own queues. With a single IP instance a crash resets the whole
    device, as the real adapter requires (Section V-D, the Figure 4
    gap).

    The packet filter can be sharded too ([pf_shards]): [np] PF
    instances partition the conntrack table by the same flow hash
    (shard [j] owns the flows with [shard_of mod np = j], with an LRU
    cap of [total/np] each and its own TTL sweep). Every IP replica
    holds a channel pair to every PF shard and steers each packet —
    both directions — from its IP header, so a flow's packets always
    meet the same conntrack partition. Every shard holds the one
    ruleset, persisted in its own storage namespace. Killing one shard
    ({!kill_pf_shard}) holds only its own flows' packets while the
    reincarnation server brings it back; recovery re-tracks {e only}
    that shard's slice of the transports' connection tables — the
    sibling shards lose zero entries.

    Names follow the planes: a 1-member plane publishes the bare name
    (["sc"], ["tcp"], ["udp"], ["ip"], ["pf"]), a larger one indexes
    its members (["tcp0"], ["ip1"], ...), and the drivers are always
    ["drv<i>"] by port. Channel keys are ["<producer>.to_<consumer>"]
    ("ip.to_pf", "drv0.to_ip", "tcp3.to_sc", ...). *)

type config = {
  seed : int;
  costs : Newt_hw.Costs.t;
  shards : int;  (** TCP server replicas. *)
  ip_replicas : int;
      (** IP server instances; must satisfy [1 <= ip_replicas <= shards].
          1 keeps the whole-device reset on an IP crash. *)
  pf_shards : int;
      (** Packet-filter instances (>= 1). 1 is the singleton filter
          (name ["pf"], keys ["ip.to_pf"]/["pf.to_ip"]). Ignored when
          [pf_rules = None]. *)
  nics : int;
      (** Ports (>= 1). Port [i] is a link, a device, an ideal peer at
          10.0.[i].2 and a driver member ["drv<i>"]; the host is
          10.0.[i].1 on it. *)
  coalesce_drivers : bool;
      (** Run every port's driver on one shared dedicated core (Section
          VI-A: "to evaluate scalability ... we also used one driver for
          all interfaces"). *)
  device : Newt_nic.Mq_e1000.profile;
      (** The device profile of every port: the paper's gigabit
          [E1000] or the [Multi_queue] scaling port. *)
  link_gbps : float;
      (** The wire must outrun N shards — default 40 (a 40GbE port). *)
  pf_rules : Newt_pf.Rule.t list option;
      (** [None] removes the filter from the path (the paper's
          no-PF column); [Some rules] wires [pf_shards] PF servers
          sharing this one ruleset. *)
  tcp_config : Newt_net.Tcp.config option;
  conntrack_total : int;
      (** Whole-stack conntrack budget (default 65536): each of the
          [pf_shards] filter instances caps its partition at
          [conntrack_total / pf_shards], so N shards hold the same
          total state as one. The adversarial churn scenarios shrink
          it to force eviction within a short run. *)
  nic_reset_time : Newt_sim.Time.cycles;
      (** Link retraining time after a device reset (the Figure 4
          gap). *)
}

val default_config : config
(** 4 TCP shards, 1 IP instance, 1 PF shard, one 40 Gbps multi-queue
    port, no filter, seed 42, 1.2 s device reset. Heartbeats and
    restart delays are the paper's ({!Newt_stack.Component.Defaults}). *)

type t

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] for an impossible configuration: no
    shards, no ports, no PF shards, or IP replicas outside
    [1..shards]. *)

val engine : t -> Newt_sim.Engine.t
val machine : t -> Newt_hw.Machine.t
val config : t -> config
val sc : t -> Newt_stack.Syscall_srv.t
val tcp_shard : t -> int -> Newt_stack.Tcp_srv.t
val udp_srv : t -> Newt_stack.Udp_srv.t
val ip_srv : t -> Newt_stack.Ip_srv.t
(** Replica 0 (the only one when [ip_replicas = 1]). *)

val ip_replica : t -> int -> Newt_stack.Ip_srv.t

val pf_shard : t -> int -> Newt_stack.Pf_srv.t
(** PF shard [j]. Raises when the stack runs without a filter. *)

val pf_shard_count : t -> int
(** 0 when the stack runs without a filter. *)

val directory : t -> Newt_channels.Pubsub.t
(** The channel directory, which also carries the ARP learn-broadcast
    publications (keys under ["arp."]). *)

val trace : t -> Newt_sim.Trace.t
(** The bounded event log: crash / hang / restart records from every
    server. *)

val storage : t -> Newt_reliability.Storage.t
val rs : t -> Newt_reliability.Reincarnation.t

type port = {
  link : Newt_nic.Link.t;
  nic : Newt_nic.Mq_e1000.t;
  sink : Newt_stack.Sink.t;  (** The ideal peer at 10.0.[i].2. *)
}

val port : t -> int -> port

val nic : t -> Newt_nic.Mq_e1000.t
(** Port 0's device. *)

val link : t -> Newt_nic.Link.t
val sink : t -> Newt_stack.Sink.t
val shard_map : t -> Shard_map.t

(** {1 Topology introspection (for the stack verifier)} *)

val components : t -> Newt_stack.Component.t list
(** Every component server of the host, in construction order:
    SYSCALL, TCP shards, UDP, IP replicas, filter shards (if any),
    drivers. *)

val sc_component : t -> Newt_stack.Component.t
val tcp_components : t -> Newt_stack.Component.t array
val udp_component : t -> Newt_stack.Component.t
val ip_components : t -> Newt_stack.Component.t array

val drv_components : t -> Newt_stack.Component.t array
(** Port [i]'s driver at index [i]. *)

val pf_components : t -> Newt_stack.Component.t array
(** Empty when the stack runs without a filter. *)

val tcp_channels :
  t -> (Newt_stack.Msg.t Newt_channels.Sim_chan.t * Newt_stack.Msg.t Newt_channels.Sim_chan.t) array
(** Per TCP shard [i], its [(to_ip, from_ip)] channel pair — the
    request channel its replica consumes and the delivery channel it
    consumes. *)

val pf_channels :
  t ->
  (Newt_stack.Msg.t Newt_channels.Sim_chan.t * Newt_stack.Msg.t Newt_channels.Sim_chan.t)
  array
  array
(** [pf_channels t .(k).(j)] is IP replica [k]'s [(to_pf, from_pf)]
    channel pair with PF shard [j] (empty without a filter). *)

val local_addr : t -> Newt_net.Addr.Ipv4.t
(** The host's address on port 0. *)

val sink_addr : t -> Newt_net.Addr.Ipv4.t
(** Port 0's peer. *)

val app : t -> Newt_stack.Syscall_srv.app
(** A fresh application on its {e own} timeshared core: saturating
    senders must not pay context switches to each other. *)

val run : t -> until:Newt_sim.Time.cycles -> unit
val at : t -> Newt_sim.Time.cycles -> (unit -> unit) -> unit

(** {1 Faults} *)

val on_reincarnated : t -> (Newt_stack.Component.t -> unit) -> unit
(** Post-recovery callback on the stack's reincarnation server
    ({!Newt_reliability.Reincarnation.set_on_reincarnated}) — fires
    once a crashed member is fully back (restarted, republished,
    neighbours notified), where the continuous verifier re-checks the
    live topology. *)

val kill : t -> Newt_stack.Component.t -> unit
(** Crash any supervised member; the reincarnation server recovers
    it. *)

val restarts_of : t -> Newt_stack.Component.t -> int

val kill_shard : t -> int -> unit
(** Crash TCP shard [i]; the reincarnation server recovers it. *)

val shard_restarts : t -> int -> int

val kill_ip_replica : t -> int -> unit
(** Crash IP replica [k]. Its queues are fenced off (their in-flight
    datagrams are the only losses), its shards' requests abort, and the
    reincarnation server brings it back — reprogramming only its own
    queues, without a link bounce. *)

val ip_replica_restarts : t -> int -> int

val kill_pf_shard : t -> int -> unit
(** Crash PF shard [j]. Only its own flows' packets are held (and
    resubmitted when it returns — no loss); its recovery re-tracks only
    the conntrack slice it owns. *)

val pf_shard_restarts : t -> int -> int

(** {1 Instrumentation} *)

type shard_stats = {
  shard : int;
  flows : int;  (** Live TCP connections on this shard. *)
  segs_out : int;
  bytes_out : int;
  queue_depth : int;  (** IP→shard channel backlog, in messages. *)
  core_util : float;  (** Busy fraction of the shard's dedicated core. *)
  restarts : int;
}

val shard_stats : t -> shard_stats array

type pf_shard_stats = {
  pf_shard : int;
  verdicts : int;
  pf_blocked : int;
  expired : int;  (** Conntrack entries swept by this shard's TTL sweep. *)
  entries : int;  (** Live conntrack entries in this shard's partition. *)
  half_open : int;  (** Of [entries], how many are still unconfirmed. *)
  evicted_half_open : int;
      (** Capacity evictions that took a half-open entry. *)
  evicted_established : int;
      (** Capacity evictions forced onto an established entry. *)
  pf_restarts : int;
}

val pf_shard_stats : t -> pf_shard_stats array
(** Empty when the stack runs without a filter. *)

val planes : t -> Replica_set.plane list
(** Every replication plane (TCP, UDP, IP, PF when present) with its
    load metric. *)

val imbalance_ratio : t -> float
(** The worst imbalance anywhere in the stack: max over the NIC's
    per-queue received frames and every replication plane's member
    loads (1.0 = perfectly even). *)

val steering_violations : t -> int
(** Flows observed on two different shards, summed over the NIC's
    journal and the IP fan-out's journal. 0 = the affinity invariant
    held. *)

val rebalance : t -> int
(** Reprogram the indirection table from {e every} plane's observed
    load (projected onto the RSS buckets), not just the TCP shards';
    returns the number of buckets moved. *)
