(** Dynamic channel-protocol verifier.

    The paper's dependability claim is a protocol claim: every
    in-flight request has a request-database record with an abort
    action, every hand-off is eventually confirmed or aborted, and
    recovery restores that invariant from any crash point (Sections
    IV, IV-D, V-D). {!Static} checks the wiring; this module checks
    the {e behaviour} — it replays the [Req_*]/[Msg_*] events the
    stack mirrors onto {!Newt_channels.Hook} and verifies the
    per-message-id temporal contract:

    - request ⇒ eventually (confirm ∨ abort) — closed by {!finish} on
      a drained run ("unresolved-request");
    - no confirm without a request ("confirm-without-request"), no
      duplicate confirm ("duplicate-confirm");
    - abort implies the record was removed first
      ("abort-without-request" — the database must never run an abort
      action for a record it still holds or never held);
    - a confirm must not be discarded while its request is pending
      ("dropped-confirm" — the requester would be stranded);
    - hand-off ⇒ eventually (receive ∨ drop) ("undelivered-handoff"
      at {!finish}).

    Confirms for conversations a crash already closed (the owner's
    database was reset, or the record was aborted) are the stale
    replies the stack absorbs by design — counted, never flagged.

    {b The rule language.} The contract is data ({!contract}): ordered
    guarded rules [{on; from; act}] over per-id conversations. Each
    hook event becomes an {!atom} for its request id; the first rule
    whose [on] matches and whose [from] guard admits the
    conversation's current state fires its actions (state transition,
    counter bump, violation flag, flight-counter update). The runtime
    checker is this table specialized against the live event stream —
    new invariants are new rows, not new code.

    The checker subscribes to the one event stream ({!Hook.add}), so it
    runs simultaneously with the {!Sanitizer} and {!Tcpfsm}. *)

module Hook = Newt_channels.Hook

(** {1 The rule language} *)

(** Per-conversation observation, derived from one hook event. *)
type atom =
  | Submitted  (** [Req_submit]: the obligation opens. *)
  | Confirmed  (** [Req_confirm] with a live record. *)
  | Stale_confirmed  (** [Req_confirm] for an unknown id. *)
  | Aborted_by_sweep  (** [Req_abort]: discharged by cancellation. *)
  | Owner_died  (** [Req_reset] fan-out: the owning database vanished. *)
  | Req_sent
  | Req_received
  | Req_dropped
  | Conf_sent
  | Conf_received
  | Conf_dropped

type action =
  | Goto of string  (** Move the conversation to this state. *)
  | Count of string  (** Bump a named counter. *)
  | Flag of { check : string; detail : string }  (** Record a violation. *)
  | Flight_up of [ `Req | `Conf ]  (** A message entered a channel. *)
  | Flight_down of [ `Req | `Conf ]  (** It was received or dropped. *)

type rule = { on : atom; from : string list; act : action list }
(** [from = []] is the wildcard. Conversation states: ["fresh"],
    ["pending"], ["confirmed"], ["aborted"], ["dead"]. *)

val contract : rule list
(** The stack's request/confirm contract, first-match ordered. *)

val describe_rules : unit -> string list
(** One human-readable line per rule, in match order (for docs and
    the CLI's rule listing). *)

(** {1 The runtime checker} *)

include Checker.S
(** The stream-checker lifecycle. [report ~drained:true] first closes
    the trace with {!finish}[ ~drained:true]; the default title is
    ["channel-protocol checker"]. *)

val finish : ?drained:bool -> unit -> unit
(** Close the trace: with [~drained:true] (a quiesced run — every
    channel empty), flag still-pending conversations as
    ["unresolved-request"] and unbalanced flight counters as
    ["undelivered-handoff"]. Without it, only what already violated is
    reported — mid-run there is always legitimate in-flight work. Not
    idempotent: each drained call flags the open obligations again. *)

val violations : unit -> Report.violation list

val counts : unit -> (string * int) list
(** All named counters, sorted. *)

val count : string -> int
(** One counter (0 if never bumped): ["requests"], ["confirms"],
    ["aborts"], ["owner-deaths"], ["stale-confirms"], ["req-msgs"],
    ["conf-msgs"], ["req-drops"], ["conf-drops"], ["retired"]. *)

val conversations : unit -> int
(** Conversations currently tracked. Terminal conversations (confirmed,
    aborted, dead) with no message in flight are retired after a grace
    window, so this stays bounded by the number of {e open} obligations
    plus the window — a continuously-running checker does not leak. *)

val set_retire_grace : int -> unit
(** Events a terminal conversation lingers before retirement (default
    4096). The window must cover the longest legitimate stale-confirm
    latency: a straggler for a retired id is re-seen as a fresh
    conversation and would be flagged. *)

val event_count : unit -> int
(** Protocol hook events replayed. *)

val overhead_cycles : unit -> int
(** Model-cycle cost had the checker run inline (accounting only). *)

val trace : unit -> string list
(** The most recent protocol events (bounded ring), rendered oldest
    first — the counterexample trace the model checker attaches to a
    non-converging crash point. *)
