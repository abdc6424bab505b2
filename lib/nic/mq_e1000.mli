(** The Ethernet device model: an Intel PRO/1000-style adapter with N
    TX/RX descriptor-ring pairs and an {!Rss} engine. The paper's
    gigabit e1000 is the one-queue configuration under the {!E1000}
    profile.

    The device owns its descriptor rings, performs scatter-gather DMA
    through the machine's pool {!Newt_channels.Registry}, applies
    checksum offload and TSO on transmit, serializes frames onto a
    {!Link}, fills posted RX buffers on receive, and raises moderated
    interrupts.

    Recovery-relevant behaviour from the paper (Section V-D): the
    adapter keeps shadow copies of the ring descriptors, so after the
    owner of the rings crashes the device {b must be reset} before new
    rings can be armed ({!mark_unsafe} / {!reset}); resetting takes the
    link down until auto-negotiation completes — the visible gap in
    Figure 4. A multi-queue device can also fence and reprogram a single
    queue ({!mark_queue_unsafe} / {!reset_queue}) without touching the
    link.

    With more than one queue, received frames are classified
    (Ethernet/IPv4/L4 ports), hashed
    through the RSS indirection table and completed on the selected RX
    queue; non-IP and non-TCP/UDP traffic lands on queue 0. Each queue
    raises its own interrupt reason, so a driver can fan completions out
    to per-shard protocol servers without touching the others' cache
    lines. TX descriptors are posted per queue; all queues serialize
    onto the same wire (the link models the shared PHY).

    The device keeps a flow→queue journal and counts {e steering
    violations} — a flow observed on two different queues — which is the
    NIC half of the flow→shard affinity invariant the scale layer
    asserts. *)

type t

(** {1 Device profiles}

    The single-port e1000 of the paper and the multi-queue port of the
    scaling configurations run the same device model. They differ in
    three constants, all fixed by the profile:

    - the link's transmit queue: 256 frames ([E1000]) or 1024;
    - the TX retry interval when the link refuses a frame: 12 us, about
      one frame time at 1 Gbps ([E1000]), or 2 us;
    - how the driver confirms TX completions: one [Drv_tx_confirm] per
      descriptor, sent inside that descriptor's work ([E1000]), or
      [Costs.confirm_batch] ids per [Drv_tx_confirm_batch]
      ([Multi_queue]) — see {!Newt_stack.Mq_drv_srv}. *)

type profile = E1000 | Multi_queue

val link_queue_frames : profile -> int
(** The transmit-queue depth, in frames, of a link this device drives. *)

type tx_desc = {
  chain : Newt_channels.Rich_ptr.chain;
  csum_offload : bool;
  tso : bool;
  tso_mss : int;
  tx_cookie : int;
}

type rx_desc = { buf : Newt_channels.Rich_ptr.t; rx_cookie : int }
type rx_completion = { rx_buf : Newt_channels.Rich_ptr.t; len : int; cookie : int }

type irq_reason =
  | Rx_done of int  (** Queue index. *)
  | Tx_done of int  (** Queue index. *)
  | Link_change

val create :
  Newt_sim.Engine.t ->
  registry:Newt_channels.Registry.t ->
  link:Link.t ->
  side:Link.side ->
  mac:Newt_net.Addr.Mac.t ->
  rss:Rss.t ->
  ?profile:profile ->
  ?ring_size:int ->
  ?irq_delay:Newt_sim.Time.cycles ->
  ?reset_time:Newt_sim.Time.cycles ->
  unit ->
  t
(** The queue count is [Rss.queues rss]. Defaults: [Multi_queue]
    profile, 256-descriptor rings per queue, 10 us interrupt
    moderation, 1.2 s reset (link retraining) time. The device attaches
    itself to [side] of [link]. With one queue every frame lands on
    queue 0 unclassified. *)

val mac : t -> Newt_net.Addr.Mac.t
val profile : t -> profile
val queues : t -> int
val rss : t -> Rss.t

val set_irq_handler : t -> (irq_reason -> unit) -> unit
(** The wire to the kernel, which converts interrupts into messages for
    the driver (Section V-B). *)

val set_rx_writer : t -> (Newt_channels.Rich_ptr.t -> Bytes.t -> unit) -> unit
(** Install the DMA-write capability for RX buffers. *)

(** {1 Driver-facing register interface} *)

val post_tx : t -> queue:int -> tx_desc -> bool
(** Write a TX descriptor; [false] when the ring is full. *)

val doorbell_tx : t -> queue:int -> unit
(** Advance the TX tail: the queue starts (or continues) processing. *)

val post_rx : t -> queue:int -> rx_desc -> bool
val reap_tx : t -> queue:int -> tx_desc option
val reap_rx : t -> queue:int -> rx_completion option
val rx_ring_free : t -> queue:int -> int

(** {1 Faults and reset} *)

val mark_unsafe : t -> unit
(** The ring owner crashed: the device's shadow descriptor state is
    unreliable. Processing stops until {!reset}. *)

val is_unsafe : t -> bool

val misconfigure : t -> unit
(** A buggy driver programmed the device wrongly: it silently stops
    receiving (the fault-injection campaign's "significant slowdown but
    no crash" failure mode, Section VI-B). Cleared by {!reset}. *)

val reset : t -> unit
(** Full device reset: drops every ring's contents, takes the link
    down, and brings it back after the reset time, raising a
    [Link_change] interrupt. *)

val mark_queue_unsafe : t -> queue:int -> unit
(** Fence DMA off for one queue only (the owner of that slice of the
    device crashed); the other queues keep forwarding. *)

val reset_queue : t -> queue:int -> unit
(** Reprogram one queue's rings and lift its fence. Unlike [reset]
    this keeps the link up: per-queue recovery needs no renegotiation,
    which is what makes replica restart invisible to other shards. *)

val link_up : t -> bool

val tx_packets : t -> int
val rx_packets : t -> int
val rx_no_buffer : t -> int
(** Frames dropped because no RX descriptor was posted. *)

val rx_queue_packets : t -> int array
(** Per-queue received-frame counters (the imbalance picture). *)

val steering_violations : t -> int
(** Flows seen on more than one RX queue since the last reset — 0 on a
    correctly programmed device. *)
