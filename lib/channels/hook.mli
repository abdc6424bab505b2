(** Verification event stream.

    The dependability argument of the paper rests on an ownership
    discipline the types alone cannot enforce: pool slots are
    owner-written and consumer-read-only, hand-offs ride the channels,
    and every slot is reclaimed exactly once — also across crashes,
    where reincarnation reclaims wholesale (Sections V-C/V-D) — while
    the TCP engines keep a legal RFC-793 state machine through those
    crashes (Table I). This module is the one instrumentation point
    that makes both observable: {!Pool}, {!Request_db}, the server
    runtime and the TCP engines emit onto one typed {!event} stream,
    and checkers such as [Newt_verify.Sanitizer] (slot state machine),
    [Newt_verify.Protocol] (per-message-id request/confirm pairing) and
    [Newt_verify.Tcpfsm] (TCP conformance) subscribe to replay it and
    flag violations with the culprit's identity.

    When nobody subscribes every emission is a cheap no-op, so
    production runs pay (almost) nothing.

    {b Subscribers.} Several checkers run simultaneously, so the
    stream keeps a chain of listeners: {!add} registers one and returns
    a token, {!remove} unregisters it. Every listener sees every event,
    in unspecified relative order, and ignores the ones it does not
    judge. The chain is single-threaded simulator state; the native
    runtime's TCP engines feed one thread-safe slot instead
    ({!set_tcp_native}).

    {b Actors.} Attribution needs to know {e who} performed an
    operation. The server runtime brackets all work it runs on behalf
    of a component with {!with_actor}; emissions made outside any
    bracket (device DMA, test harness code) carry no actor. *)

type op = [ `Read | `Write | `Free | `Check ]
(** What a failed dereference was attempting. *)

type way = [ `Sent | `Received | `Dropped ]
(** The fate of a protocol message at the emission point: enqueued on
    the channel, dequeued by the consumer, or discarded undelivered
    (refused enqueue or channel teardown). *)

type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool; data : bool }
(** Header flags of a segment; [data] is payload-length > 0. *)

(** Why a state transition happened: an API call (connect/close/abort),
    a timer (retransmission exhaustion, 2MSL expiry), a crash
    (wholesale [shutdown_all] — the paper's Table I semantics), or a
    segment received/sent with the given flags. *)
type tcp_cause =
  | T_api
  | T_timer
  | T_crash
  | T_rx of tcp_flags
  | T_tx of tcp_flags

type event =
  | Pool_own of { pool : int; owner : string }
      (** A component declared itself the pool's owning server. *)
  | Pool_grant of { pool : int }
      (** The owner granted write access to a device path (the DMA
          grant of the receive pool): writes to this pool are not
          owner-only anymore. *)
  | Pool_alloc of { pool : int; slot : int; gen : int }
  | Pool_write of { pool : int; slot : int; gen : int }
  | Pool_read of { pool : int; slot : int; gen : int }
  | Pool_free of { pool : int; slot : int; gen : int }
      (** A successful, single free. *)
  | Pool_free_all of { pool : int }
      (** Wholesale reclaim — the owner crashed or reinitialized; not a
          per-slot free and never a violation by itself. *)
  | Pool_double_free of { ptr : Rich_ptr.t }
      (** Emitted just before {!Pool.Double_free} is raised. *)
  | Pool_stale of { ptr : Rich_ptr.t; op : op }
      (** Emitted just before {!Pool.Stale_pointer} is raised. *)
  | Chan_handoff of { chan : int; ptr : Rich_ptr.t }
      (** A rich pointer was enqueued on a channel: the slot is in
          flight until the consumer dequeues it. *)
  | Chan_receive of { chan : int; ptr : Rich_ptr.t }
      (** The consumer dequeued a message carrying the pointer. *)
  | Chan_dropped of { chan : int; ptr : Rich_ptr.t }
      (** The message was discarded undelivered (channel teardown on a
          crash): the hand-off will never complete. *)
  | Req_submit of { db : int; id : int; peer : int }
      (** A request record entered the database: the paper's contract
          now owes this id a confirm or an abort. [db] is the database
          instance (see {!Request_db.db_id}); [peer] the component the
          request was sent to. *)
  | Req_confirm of { db : int; id : int; known : bool }
      (** [Request_db.complete] ran. [known] says whether the id had a
          live record — [false] is the stale-confirm case (a reply from
          a previous incarnation's request), which the databases absorb
          by design. *)
  | Req_abort of { db : int; id : int; peer : int }
      (** The record was removed by an abort sweep ([abort_peer]): the
          obligation is discharged by cancellation, not completion. *)
  | Req_reset of { db : int }
      (** The whole database was dropped (its owner crashed): every
          live record's obligation dies with it. *)
  | Msg_req of { chan : int; id : int; way : way }
      (** A request-bearing message (one carrying a request-db id that
          expects a confirm) was sent, received or dropped. *)
  | Msg_conf of { chan : int; id : int; way : way }
      (** A confirm-bearing message for request [id] was sent, received
          or dropped. Batched confirms emit one event per id. *)
  | T_state_change of {
      lip : int32;
      lport : int;
      rip : int32;
      rport : int;
      from_s : int;
      to_s : int;
      cause : tcp_cause;
    }
      (** A TCP PCB moved from state code [from_s] to [to_s]. Emitted
          before the assignment takes effect. The TCP events carry only
          integers — this library sits below [Newt_net], so states
          travel as codes ([Newt_net.Tcp.state_code]) and addresses as
          raw [int32]s — and are {e local-oriented}: [lip]/[lport] is
          the emitting engine's own end of the connection in both
          directions, so a checker keys its shadow PCB table
          uniformly. *)
  | T_seg_tx of {
      lip : int32;
      lport : int;
      rip : int32;
      rport : int;
      flags : tcp_flags;
    }
      (** The engine emitted a segment on connection
          [(lip,lport,rip,rport)] (local end first). *)
  | T_seg_rx of {
      lip : int32;
      lport : int;
      rip : int32;
      rport : int;
      flags : tcp_flags;
    }
      (** The engine accepted a segment for demultiplexing. *)

type listener = actor:string option -> event -> unit

type token
(** Handle identifying one registered listener. *)

val add : listener -> token
(** Register a listener on the chain; it sees every subsequent event
    until {!remove}d. *)

val remove : token -> unit
(** Unregister; unknown or already-removed tokens are a no-op. *)

val enabled : ?tcp:bool -> unit -> bool
(** Whether an emission would reach anybody — use to skip costly event
    construction. True while the chain has a listener; with
    [~tcp:true] (the TCP engines' guard) also while the native TCP
    slot is armed. The native slot never turns the pool/request side
    on, so a native run with only the TCP checker armed emits no pool
    events and opens no {!with_actor} brackets on its domains. *)

val emit : event -> unit
(** Deliver an event (with the current actor) to every listener on the
    chain and, for the TCP events, to the native TCP slot. Subject to
    sampling (see {!set_sample}): events whose subject's hash misses
    the mask are dropped before delivery. *)

val set_tcp_native : (event -> unit) -> unit
(** Arm the (single) native TCP subscriber: it receives the TCP events
    of {!emit} on whichever domain emits them, so it must be
    thread-safe. *)

val clear_tcp_native : unit -> unit
(** Disarm the native TCP subscriber. *)

val set_sample : int -> unit
(** Sample the stream by {e subject}: keep one in [sample] subjects
    (rounded up to a power of two; 1 = keep all), where a subject is a
    pool slot for the pool/channel lifecycle events, a request id for
    the request/confirm family and a connection 4-tuple for the TCP
    events. A kept subject's events are all delivered, a dropped
    subject's none — so the sanitizer's slot state machines, the
    protocol checker's per-id conversations and the TCP checker's
    shadow PCBs stay coherent under sampling; dropping a subject can
    hide a violation but never invent one. Clock-critical events (pool
    ownership/grant, wholesale frees, database resets) and
    already-detected violations are never sampled out. Resets the
    sampling counters. *)

val sample : unit -> int
(** The effective (power-of-two) sampling period. *)

val sample_counts : unit -> int * int
(** [(seen, kept)] sampleable emissions since {!set_sample}, counted
    only while a period > 1 is in force; emissions nobody subscribes
    to and clock-critical events are not counted. *)

val actor : unit -> string option
(** The identity currently being charged, if inside {!with_actor}. *)

val epoch : unit -> int
(** The restart epoch (the actor's incarnation number) the current
    bracket was opened with; 0 outside any bracket or when the bracket
    did not stamp one. Listeners use it to tell incarnation [k] of a
    server from incarnation [k+1] of the same name. *)

val with_actor : ?epoch:int -> string -> (unit -> 'a) -> 'a
(** [with_actor name f] runs [f] with emissions attributed to [name];
    the previous attribution is restored afterwards, also on
    exceptions. [epoch] additionally stamps the actor's incarnation
    number into the bracket (the server runtime passes its restart
    counter), readable by listeners via {!epoch}. *)

(** {1 Native event family}

    The listener chain above is single-threaded simulator state and
    must never be touched from a spawned domain. The native family is
    the thread-safe counterpart the race detector ([Newt_verify.Race])
    rides: one listener held in an [Atomic], events carrying only
    integers (the emitting domain identifies itself with [Domain.self]
    inside the listener), and an access path sampled by {e count}, with
    a stated cost model. It stays separate from {!event} because it
    sits on the hottest native paths (every ring push and pop, every
    sampled slot access), where a per-subject hash and a chain walk
    would cost more than the detector's own work. *)

type nkind = N_pool_slot | N_counter
(** What a sampled {!N_access} touched: a pool slot ([id] = pool,
    [sub] = slot) or a named shared counter ([id] = counter id). *)

type nevent =
  | N_ring_push of { ring : int; index : int }
      (** Producer published element [index] (absolute, un-masked — so
          reused physical slots across wrap-arounds get distinct
          locations) on SPSC ring [ring]. Release edge on the ring's
          tail. *)
  | N_ring_pop of { ring : int; index : int }
      (** Consumer took element [index] off ring [ring]. Acquire edge
          on the ring's tail, release edge on its head (the producer
          acquires the head before reusing the slot). *)
  | N_post of { loop : int }
      (** A closure was posted cross-domain into loop [loop]'s inbox,
          under the loop mutex. Release edge on the inbox. *)
  | N_drain of { loop : int }
      (** Loop [loop] transferred its inbox under the mutex. Acquire
          edge on the inbox. *)
  | N_park of { loop : int }  (** Loop [loop] is about to block. *)
  | N_wake of { loop : int }
      (** Loop [loop] resumed after parking. Acquire edge on the inbox
          (the wake saw the poster's signal through the same mutex). *)
  | N_loop_start of { loop : int }
      (** Loop [loop] started running on its domain. Acquire edge on
          the spawn fence: everything the spawning thread did before
          {!N_spawn_fence} happens-before the loop body. *)
  | N_loop_stop of { loop : int }  (** Loop [loop] exited its run loop. *)
  | N_spawn_fence
      (** The spawning thread is about to [Domain.spawn] the loops:
          wiring-time writes are published. Release edge on the spawn
          fence; also tells the detector that SPSC ownership claims
          start now (pre-spawn wiring pushes don't bind a ring to the
          spawner's domain). *)
  | N_lock of { lock : int; acquire : bool }
      (** A pool mutex was taken ([acquire = true], emitted after
          [Mutex.lock]) or is about to be dropped ([acquire = false],
          emitted before [Mutex.unlock]). Acquire/release edges on the
          lock's clock — two separate events so accesses inside the
          critical section are ordered by the release. *)
  | N_access of { kind : nkind; id : int; sub : int; write : bool }
      (** A plain (unsynchronised-by-construction) access to a shared
          location, subject to sampling. *)

val set_native : ?sample:int -> (nevent -> unit) -> unit
(** Arm the native hook. [sample] (default 1) keeps one in [sample]
    {!native_access} emissions, rounded up to a power of two;
    synchronisation events are never sampled out (dropping one could
    invent a false race — dropping an access only hides one). Resets
    the access counters. *)

val clear_native : unit -> unit
(** Disarm. Emissions race benignly with disarming: an in-flight event
    may still be delivered. *)

val native_enabled : unit -> bool
(** Whether a native listener is armed — use to skip event
    construction on the fast path. *)

val native_sample : unit -> int
(** The effective (power-of-two) sampling period. *)

val native_emit : nevent -> unit
(** Deliver a synchronisation event to the armed listener, if any. *)

val native_access : nkind -> id:int -> sub:int -> write:bool -> unit
(** Deliver a sampled {!N_access}; one in {!native_sample} emissions
    is kept. *)

val native_access_counts : unit -> int * int
(** [(seen, kept)] access emissions since the hook was last armed —
    the overhead accounting the bench and campaign JSON report. *)
