(** The IP server (with ICMP and ARP, as in the paper's Figure 2).

    IP sits at the T junction of Figure 3: every packet goes IP → PF →
    IP → driver, so IP "must hand off each packet to another component
    three times". It owns two pools: the receive pool the drivers' DMA
    writes into, and a header pool where it builds the combined
    Ethernet+IP(+partial-checksum L4) header chunk for each outgoing
    packet (pools are immutable, so the transport's header chunk is
    copied, not patched — Section V-C).

    Recovery (Table I, Section V-D): the routing configuration and
    interface addresses are saved to the storage server and restored on
    restart; ARP and ICMP are stateless. Requests pending at the packet
    filter are resubmitted on a PF crash (no packet loss — Figure 5);
    packets unconfirmed by a crashed driver are resubmitted when it
    returns (duplicates preferred over losses). A crash of IP itself
    frees the receive pool under the devices, forcing NIC resets.

    Pools, the request database, channel teardown/revival and the
    route-table reload are all expressed through the {!Component}
    lifecycle, so several IP server instances (replicas) are just
    several components running this module's handler. The replication
    extras — {!set_local_queue}, {!set_arp_announce}, {!set_buf_return}
    and the [?mine] filter of {!connect_transport_sharded} — let a
    supervisor run N replicas behind one multi-queue NIC, each owning a
    slice of the queues. *)

type t

type iface_config = {
  addr : Newt_net.Addr.Ipv4.t;
  netmask_bits : int;
  mac : Newt_net.Addr.Mac.t;
}

val create :
  Component.t ->
  registry:Newt_channels.Registry.t ->
  save:(string -> string -> unit) ->
  load:(string -> string option) ->
  unit ->
  t

val comp : t -> Component.t
val proc : t -> Proc.t

(** {1 Wiring} *)

val add_iface :
  t ->
  iface_config ->
  drv:Mq_drv_srv.t ->
  replica:int ->
  tx_chan:Msg.t Newt_channels.Sim_chan.t ->
  rx_chan:Msg.t Newt_channels.Sim_chan.t ->
  int
(** Register interface [i] served by [drv], attached as the driver's IP
    replica [replica] (0 when IP is not replicated); returns the
    interface index. [tx_chan] carries IP→driver messages, [rx_chan]
    driver→IP. Grants the driver the receive-pool capability. *)

(** What IP needs from a driver, abstracted so a driver other than
    {!Mq_drv_srv} (the native runtime's) can serve an interface. *)
type driver_hooks = {
  drv_connect :
    rx_from_ip:Msg.t Newt_channels.Sim_chan.t ->
    tx_to_ip:Msg.t Newt_channels.Sim_chan.t ->
    unit;
  drv_grant_rx_pool :
    alloc:(unit -> Newt_channels.Rich_ptr.t option) ->
    write:(Newt_channels.Rich_ptr.t -> Bytes.t -> unit) ->
    unit;
  drv_on_ip_crash : unit -> unit;
  drv_on_ip_restart : unit -> unit;
}

val add_iface_custom :
  t ->
  iface_config ->
  hooks:driver_hooks ->
  tx_chan:Msg.t Newt_channels.Sim_chan.t ->
  rx_chan:Msg.t Newt_channels.Sim_chan.t ->
  int

val connect_pf :
  t ->
  to_pf:Msg.t Newt_channels.Sim_chan.t ->
  from_pf:Msg.t Newt_channels.Sim_chan.t ->
  unit
(** One filter instance (the 1-shard special case of
    {!connect_pf_sharded}). *)

val connect_pf_sharded :
  t ->
  steer:
    (src:Newt_net.Addr.Ipv4.t ->
    sport:int ->
    dst:Newt_net.Addr.Ipv4.t ->
    dport:int ->
    int) ->
  pairs:(Msg.t Newt_channels.Sim_chan.t * Msg.t Newt_channels.Sim_chan.t) array ->
  unit
(** Wire [N] packet-filter shards: [pairs.(j)] is shard [j]'s
    [(to_pf, from_pf)] channel pair. Every packet — both directions —
    is submitted to the shard [steer] picks from the packet's own IP
    header, so the two directions of a flow always meet the same
    conntrack partition; [steer] must be symmetric in the two
    endpoints and must agree with the PF shards' own ownership
    predicate. Replaces any previous filter wiring. *)

val connect_transport :
  t ->
  proto:[ `Tcp | `Udp ] ->
  from_transport:Msg.t Newt_channels.Sim_chan.t ->
  to_transport:Msg.t Newt_channels.Sim_chan.t ->
  unit

val connect_transport_sharded :
  ?mine:(int -> bool) ->
  t ->
  proto:[ `Tcp | `Udp ] ->
  steer:
    (src:Newt_net.Addr.Ipv4.t ->
    sport:int ->
    dst:Newt_net.Addr.Ipv4.t ->
    dport:int ->
    int) ->
  pairs:(Msg.t Newt_channels.Sim_chan.t * Msg.t Newt_channels.Sim_chan.t) array ->
  unit
(** Wire [N] transport shards: [pairs.(i)] is shard [i]'s
    (from_transport, to_transport) channel pair. Received segments are
    fanned out to shard [steer ~src ~sport ~dst ~dport]; [steer] must
    agree with the NIC's RSS steering for the flow→shard affinity
    invariant to hold. Replaces any previous wiring for [proto]
    ({!connect_transport} is the 1-shard special case).

    [?mine] (default: everything) restricts which shards' request
    channels this instance consumes — an IP replica serves only its own
    shards' transmit requests, while the fan-out array stays complete
    so received frames can steer to any shard. *)

val add_route :
  t ->
  prefix:Newt_net.Addr.Ipv4.t ->
  bits:int ->
  iface:int ->
  gateway:Newt_net.Addr.Ipv4.t option ->
  unit
(** Also persists the routing table to the storage server. *)

val add_neighbor : t -> iface:int -> Newt_net.Addr.Ipv4.t -> Newt_net.Addr.Mac.t -> unit
(** Pre-seed an ARP entry (static configuration, or a mapping learned
    from a sibling replica's broadcast — this never re-announces). *)

val arp_lookup : t -> iface:int -> Newt_net.Addr.Ipv4.t -> Newt_net.Addr.Mac.t option
(** Peek at the interface's ARP cache (tests, introspection). *)

(** {1 Replication support} *)

val set_local_queue : t -> int -> unit
(** TX queue for frames this server originates itself (ARP, ICMP
    echo). Default 0; a replica sets one of its own queues so the TX
    confirm comes back to it and not to a sibling. *)

val set_arp_announce :
  t -> (iface:int -> Newt_net.Addr.Ipv4.t -> Newt_net.Addr.Mac.t -> unit) -> unit
(** Fired whenever an ARP mapping is learned from the network — the
    learn-broadcast hook. The supervisor publishes it (e.g. via
    {!Newt_channels.Pubsub}) so sibling replicas' caches converge
    without extra ARP traffic. *)

val set_buf_return : t -> (Newt_channels.Rich_ptr.t -> unit) -> unit
(** Where to hand an [Rx_done] buffer that belongs to another replica's
    receive pool (a transport shard frees to its fixed replica, but the
    frame arrived via whichever replica owns the flow's queue). Without
    it such buffers are dropped on the floor of a stale-pointer free. *)

(** {1 Recovery notifications (called by the reincarnation layer)} *)

val on_pf_crash : ?shard:int -> t -> unit
(** Abort the pending filter requests of PF shard [shard] (default:
    every shard); they are resubmitted when the filter returns. With a
    sharded filter the other shards' traffic keeps flowing — only the
    dead shard's packets are held. *)

val on_pf_restart : ?shard:int -> t -> unit

val on_drv_crash : t -> iface:int -> unit
val on_drv_restart : t -> iface:int -> unit

val on_transport_shard_crash : t -> proto:[ `Tcp | `Udp ] -> shard:int -> unit
(** Reclaim the receive buffers transport shard [shard] still held:
    only that shard's, the other shards' flows are untouched. *)

val release_held : t -> Newt_channels.Rich_ptr.t -> unit
(** Free the receive-pool frame backing [buf] (the target of a
    {!set_buf_return} hand-off on the owning replica). *)

val repersist : t -> unit
(** Save all recoverable state again — required after a crash of the
    storage server itself (Section V-D). *)

(** {1 Introspection} *)

val routes : t -> Newt_net.Ipv4.Route.entry list

val src_addr_for : t -> Newt_net.Addr.Ipv4.t -> Newt_net.Addr.Ipv4.t option
(** Source-address selection for a multihomed host: the address of the
    interface the route to the destination uses. *)

val clear_routes : t -> unit
(** Drop the routing table without touching the persisted copy — used
    by the fault injector to model a restart whose state recovery went
    wrong (the "manually restarting ... solved the problem" cases of
    Section VI-B). *)

val rx_pool_id : t -> int
(** Identifier of this instance's receive pool — lets a multi-replica
    supervisor dispatch a returned buffer to the replica that owns it. *)

val rx_pool_in_use : t -> int
val packets_forwarded : t -> int
val icmp_echoes_answered : t -> int
