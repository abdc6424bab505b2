type op = [ `Read | `Write | `Free | `Check ]
type way = [ `Sent | `Received | `Dropped ]
type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool; data : bool }

type tcp_cause =
  | T_api
  | T_timer
  | T_crash
  | T_rx of tcp_flags
  | T_tx of tcp_flags

type event =
  | Pool_own of { pool : int; owner : string }
  | Pool_grant of { pool : int }
  | Pool_alloc of { pool : int; slot : int; gen : int }
  | Pool_write of { pool : int; slot : int; gen : int }
  | Pool_read of { pool : int; slot : int; gen : int }
  | Pool_free of { pool : int; slot : int; gen : int }
  | Pool_free_all of { pool : int }
  | Pool_double_free of { ptr : Rich_ptr.t }
  | Pool_stale of { ptr : Rich_ptr.t; op : op }
  | Chan_handoff of { chan : int; ptr : Rich_ptr.t }
  | Chan_receive of { chan : int; ptr : Rich_ptr.t }
  | Chan_dropped of { chan : int; ptr : Rich_ptr.t }
  | Req_submit of { db : int; id : int; peer : int }
  | Req_confirm of { db : int; id : int; known : bool }
  | Req_abort of { db : int; id : int; peer : int }
  | Req_reset of { db : int }
  | Msg_req of { chan : int; id : int; way : way }
  | Msg_conf of { chan : int; id : int; way : way }
  | T_state_change of {
      lip : int32;
      lport : int;
      rip : int32;
      rport : int;
      from_s : int;
      to_s : int;
      cause : tcp_cause;
    }
  | T_seg_tx of {
      lip : int32;
      lport : int;
      rip : int32;
      rport : int;
      flags : tcp_flags;
    }
  | T_seg_rx of {
      lip : int32;
      lport : int;
      rip : int32;
      rport : int;
      flags : tcp_flags;
    }

type listener = actor:string option -> event -> unit
type token = int

(* The chain is an assoc list keyed by token, newest first. Kept as an
   immutable list so emission iterates a stable snapshot even if a
   listener adds or removes mid-event. *)
let chain : (token * listener) list ref = ref []
let next_token = ref 0
let current : string option ref = ref None
let current_epoch : int ref = ref 0

let add f =
  incr next_token;
  let tok = !next_token in
  chain := (tok, f) :: !chain;
  tok

let remove tok = chain := List.filter (fun (t, _) -> t <> tok) !chain

(* The native runtime's TCP engines run on spawned domains, which must
   never touch the chain: their subscriber is one thread-safe slot. A
   sim engine only ever finds the chain populated and a native engine
   only the slot, so the cross-domain read of the (empty) chain ref in
   [emit] races with nobody. *)
let tcp_native : (event -> unit) option Atomic.t = Atomic.make None
let set_tcp_native f = Atomic.set tcp_native (Some f)
let clear_tcp_native () = Atomic.set tcp_native None

let enabled ?(tcp = false) () =
  !chain <> [] || (tcp && Atomic.get tcp_native <> None)

(* ------------------------------------------------------------------ *)
(* Sampling.                                                          *)
(*                                                                    *)
(* The native race family below samples by event count; the stream    *)
(* checkers (sanitizer slot state machines, per-id protocol           *)
(* conversations, per-connection shadow PCBs) would be incoherent     *)
(* under that — seeing an alloc but not the free reads as a leak. So  *)
(* the stream samples by {e subject}: a slot, a request id or a       *)
(* connection is either fully observed or fully invisible, decided by *)
(* its hash. Dropping a whole subject can only hide a violation,      *)
(* never invent one. Table-wide and violation events are never        *)
(* sampled: they reset or condemn state the kept subjects share. The  *)
(* mask and counters are atomics because native TCP engines sample    *)
(* from several domains.                                              *)
(* ------------------------------------------------------------------ *)

let sample_mask = Atomic.make 0
let seen = Atomic.make 0
let kept = Atomic.make 0

let pow2_mask sample =
  let sample = max 1 sample in
  let rec pow2 p = if p >= sample then p else pow2 (p * 2) in
  pow2 1 - 1

let set_sample sample =
  Atomic.set sample_mask (pow2_mask sample);
  Atomic.set seen 0;
  Atomic.set kept 0

let sample () = Atomic.get sample_mask + 1
let sample_counts () = (Atomic.get seen, Atomic.get kept)

(* The subject hash, or [None] for events that must always be
   delivered: ownership declarations and wholesale resets
   (clock-critical — they scope every kept subject) and the
   already-detected violations (sampling out a detection would be
   absurd). Request/confirm events key on the id alone so the submit,
   the wire messages and the confirm of one conversation stand or
   fall together even across db/chan instances; TCP events key on the
   local-oriented 4-tuple, stable across the connection's lifetime and
   both directions. *)
let subject_hash = function
  | Pool_own _ | Pool_grant _ | Pool_free_all _ | Req_reset _
  | Pool_double_free _ | Pool_stale _ ->
      None
  | Pool_alloc { pool; slot; _ }
  | Pool_write { pool; slot; _ }
  | Pool_read { pool; slot; _ }
  | Pool_free { pool; slot; _ } ->
      Some (Hashtbl.hash (pool, slot))
  | Chan_handoff { ptr; _ } | Chan_receive { ptr; _ } | Chan_dropped { ptr; _ }
    ->
      Some (Hashtbl.hash (ptr.Rich_ptr.pool, ptr.Rich_ptr.slot))
  | Req_submit { id; _ } | Req_confirm { id; _ } | Req_abort { id; _ }
  | Msg_req { id; _ } | Msg_conf { id; _ } ->
      Some (Hashtbl.hash id)
  | T_state_change { lip; lport; rip; rport; _ }
  | T_seg_tx { lip; lport; rip; rport; _ }
  | T_seg_rx { lip; lport; rip; rport; _ } ->
      Some (Hashtbl.hash (lip, lport, rip, rport))

let keep ev =
  let mask = Atomic.get sample_mask in
  mask = 0
  ||
  match subject_hash ev with
  | None -> true
  | Some h ->
      Atomic.incr seen;
      let k = h land mask = 0 in
      if k then Atomic.incr kept;
      k

let emit ev =
  let native =
    match ev with
    | T_state_change _ | T_seg_tx _ | T_seg_rx _ -> Atomic.get tcp_native
    | _ -> None
  in
  match (!chain, native) with
  | [], None -> ()
  | listeners, native ->
      if keep ev then begin
        List.iter (fun (_, f) -> f ~actor:!current ev) listeners;
        match native with Some f -> f ev | None -> ()
      end

let actor () = !current
let epoch () = !current_epoch

let with_actor ?epoch name f =
  let prev = !current and prev_epoch = !current_epoch in
  current := Some name;
  (match epoch with Some e -> current_epoch := e | None -> ());
  Fun.protect
    ~finally:(fun () ->
      current := prev;
      current_epoch := prev_epoch)
    f

(* ------------------------------------------------------------------ *)
(* Native event family.                                               *)
(*                                                                    *)
(* The sim chain above is single-threaded state (plain refs, an       *)
(* actor stack); native domains must never touch it. The native       *)
(* family is a separate, thread-safe hook: exactly one listener held  *)
(* in an Atomic, no actor attribution (the emitting domain IS the     *)
(* actor), and a sampled access path so a race detector can ride long *)
(* runs at a stated fraction of full cost.                            *)
(* ------------------------------------------------------------------ *)

type nkind = N_pool_slot | N_counter

type nevent =
  | N_ring_push of { ring : int; index : int }
  | N_ring_pop of { ring : int; index : int }
  | N_post of { loop : int }
  | N_drain of { loop : int }
  | N_park of { loop : int }
  | N_wake of { loop : int }
  | N_loop_start of { loop : int }
  | N_loop_stop of { loop : int }
  | N_spawn_fence
  | N_lock of { lock : int; acquire : bool }
  | N_access of { kind : nkind; id : int; sub : int; write : bool }

let native_listener : (nevent -> unit) option Atomic.t = Atomic.make None

(* [sample_mask + 1] is the sampling period, always a power of two so
   the keep/skip decision is one AND. Mask 0 = keep everything. *)
let native_sample_mask = Atomic.make 0
let native_seen = Atomic.make 0
let native_kept = Atomic.make 0

let set_native ?(sample = 1) f =
  let sample = max 1 sample in
  let rec pow2 p = if p >= sample then p else pow2 (p * 2) in
  Atomic.set native_sample_mask (pow2 1 - 1);
  Atomic.set native_seen 0;
  Atomic.set native_kept 0;
  Atomic.set native_listener (Some f)

let clear_native () = Atomic.set native_listener None
let native_enabled () = Atomic.get native_listener <> None
let native_sample () = Atomic.get native_sample_mask + 1

let native_emit ev =
  match Atomic.get native_listener with None -> () | Some f -> f ev

(* Sampling drops only plain accesses: synchronisation events
   (ring push/pop, post/park/wake, lock) must always reach the
   listener or a happens-before checker would see false races, so
   those go through [native_emit] unconditionally. Dropping an access
   can only hide a race, never invent one. *)
let native_access kind ~id ~sub ~write =
  match Atomic.get native_listener with
  | None -> ()
  | Some f ->
      let n = Atomic.fetch_and_add native_seen 1 in
      if n land Atomic.get native_sample_mask = 0 then begin
        Atomic.incr native_kept;
        f (N_access { kind; id; sub; write })
      end

let native_access_counts () =
  (Atomic.get native_seen, Atomic.get native_kept)
