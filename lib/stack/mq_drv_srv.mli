(** The network driver server.

    One per NIC port (or several sharing one core — the
    driver-coalescing configuration of Section VI-A). The driver's work
    is deliberately tiny: "filling descriptors and updating tail
    pointers of the rings on the device, polling the device". It is
    stateless from the recovery point of view (Table I: "No state,
    simple restart"): its whole lifecycle is the generic {!Component}
    one, plus a device reset on restart.

    Interrupts reach the driver as kernel messages (Section V-B); here
    the device's irq handler schedules costed work on the driver's
    core. One driver serves every queue of its {!Newt_nic.Mq_e1000}
    device — the paper keeps a single driver even when the protocol
    servers are replicated, because one core drives the wire:

    - it honours the [queue] field of {!Msg.Drv_tx}, posting each frame
      on the TX ring the sending shard's flows hash to, and replenishes
      every RX ring;
    - it confirms TX completions as the device profile says: one
      {!Msg.Drv_tx_confirm} per descriptor for the e1000, or
      {!Msg.Drv_tx_confirm_batch} messages of up to
      {!Newt_hw.Costs.t.confirm_batch} ids for the multi-queue port,
      amortizing the per-message channel cost IP pays;
    - it fans RX completions out to the IP replicas: queue [q] belongs
      to replica [q mod n], and each replica grants its own RX pool for
      its queues.

    The receive pools belong to the IP servers. When the only IP
    instance crashes, its pool dies with it and the driver must reset
    the whole device before going on (Section V-D — "a crash of IP
    means de facto restart of the network drivers too"). With several
    replicas a crash fences off only that replica's queues
    ({!Newt_nic.Mq_e1000.mark_queue_unsafe}) and restart reprograms
    only them, so the other shards never notice. *)

type t

val create : Component.t -> nic:Newt_nic.Mq_e1000.t -> unit -> t

val comp : t -> Component.t
val proc : t -> Proc.t
val nic : t -> Newt_nic.Mq_e1000.t

(** {1 IP attachment}

    Queue [q] of the device is owned by IP replica [q mod n] where [n]
    is the highest replica index attached plus one; connect replicas
    densely from index 0. Call {!set_replicas} {e before} the first
    pool grant: the queue→owner map depends on [n], and a grant made
    while the map is smaller fills foreign queues' rings from the wrong
    pool. *)

val set_replicas : t -> int -> unit
(** Declare how many IP replicas will attach (default 1). *)

val connect_ip :
  t ->
  replica:int ->
  rx_from_ip:Msg.t Newt_channels.Sim_chan.t ->
  tx_to_ip:Msg.t Newt_channels.Sim_chan.t ->
  unit
(** Wire the channel pair to IP replica [replica] and start consuming. *)

val grant_rx_pool :
  t ->
  replica:int ->
  alloc:(unit -> Newt_channels.Rich_ptr.t option) ->
  write:(Newt_channels.Rich_ptr.t -> Bytes.t -> unit) ->
  unit
(** The replica exported its receive pool: [alloc] yields empty buffers
    (None when exhausted), [write] is the DMA-write capability. The
    driver fills the replica's RX rings. *)

val on_ip_crash : t -> replica:int -> unit
(** Neighbour-crash procedure: forget the dead pool and mark the device
    unsafe — the whole device when it has one IP replica, otherwise
    just the replica's queues. *)

val on_ip_restart : t -> replica:int -> unit
(** The replica is back: reset the whole device (link bounce) when it
    is the only one, otherwise reprogram just its queues; RX re-arms
    when the pool is re-granted. *)
