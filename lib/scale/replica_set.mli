(** The uniform replication plane.

    Every replicated layer of the sharded stack — transport shards, IP
    replicas, PF shards — is the same mechanism wearing different
    partition functions: N instances of one {!Newt_stack.Component}
    server, each on a dedicated core with its own storage namespace,
    supervised independently by the reincarnation server, and reporting
    a per-member load so imbalance is observable (and rebalanceable)
    for {e every} plane, not just the transport one.

    A [Replica_set] owns exactly that machinery once. The server module
    stays ordinary ({!Newt_stack.Tcp_srv}, {!Newt_stack.Pf_srv}, ...);
    the supervisor instantiates a set with a [make] callback and a
    partition convention: member [m] of an [M]-member set serves the
    transport shards [i] with [i mod M = m] (the IP-replica rule of
    PR 2, now shared by all planes), or — for the PF plane — the flows
    [f] with [shard_of f mod M = m]. *)

type 'srv t

val create :
  Newt_hw.Machine.t ->
  name:string ->
  ?names:(int -> string) ->
  ?core:Newt_hw.Cpu.t ->
  members:int ->
  directory:Newt_channels.Pubsub.t ->
  trace:Newt_sim.Trace.t ->
  storage:Newt_reliability.Storage.t ->
  make:
    (int ->
    Newt_stack.Component.t ->
    save:(string -> string -> unit) ->
    load:(string -> string option) ->
    'srv) ->
  unit ->
  'srv t
(** [members] component servers, each created on a fresh dedicated
    core — or all on [core], the driver-coalescing configuration — and
    handed its own storage namespace (its member name). Default naming:
    the bare [name] when [members = 1] (so a 1-member set publishes the
    paper's Figure 3 names: same channel keys, same storage owner),
    ["<name><i>"] otherwise; [?names] overrides (the driver plane always
    indexes by port). *)

val size : 'srv t -> int
val name : 'srv t -> int -> string
val comp : 'srv t -> int -> Newt_stack.Component.t
val srv : 'srv t -> int -> 'srv
val comps : 'srv t -> Newt_stack.Component.t array
val servers : 'srv t -> 'srv array

val owner : 'srv t -> int -> int
(** The member serving partition index [i]: [i mod size]. This is THE
    partition function — the IP replica of transport shard [i], the PF
    shard of a flow's [Shard_map.shard_of] value. *)

(** {1 Supervision} *)

val supervise :
  'srv t ->
  Newt_reliability.Reincarnation.t ->
  notify_crash:(int -> (unit -> unit) list) ->
  notify_restart:(int -> (unit -> unit) list) ->
  unit
(** Watch every member independently: member [m]'s crash runs
    [notify_crash m] (neighbours abort/fence exactly that member's
    work), its completed recovery runs [notify_restart m]. *)

val kill : 'srv t -> int -> unit
(** Crash member [i] (fault injection); the reincarnation server
    recovers it. Raises if the set was never supervised. *)

val restarts : 'srv t -> int -> int
(** Restarts of member [i] so far (0 when unsupervised). *)

(** {1 Load, imbalance, rebalancing} *)

val set_load : 'srv t -> ('srv -> float) -> unit
(** How much work a member has done (bytes out, verdicts issued, ...)
    — the per-plane load metric. *)

val loads : 'srv t -> float array

type plane = {
  plane_name : string;
  members : int;
  member_loads : unit -> float array;
}
(** A type-erased view of a set, so heterogeneous sets can be listed
    together for whole-stack imbalance accounting. *)

val plane : 'srv t -> plane

val plane_imbalance : plane -> float
(** Max/mean of the plane's member loads (1.0 = balanced, also the
    no-load answer). *)

val projected_loads : shards:int -> plane list -> float array
(** Fold every plane's observed load onto the transport-shard buckets
    the RSS indirection table moves: member [m] of an [M]-member plane
    serves shards [i mod M = m], so its normalized load is spread
    evenly over those buckets. Planes with no load yet are skipped.
    The result feeds {!Shard_map.rebalance}, making a hot PF shard or
    IP replica — not just a hot TCP shard — visible to the
    rebalancer. *)
