(** Continuous verification across restarts.

    PR 3's checkers ran once, at wiring time — a buggy recovery
    procedure (Table I) that rewires a channel to the wrong core or
    loses an export after a restart sailed through every fault campaign
    undetected. This module is the aggregation point that closes the
    gap: the experiment drivers call {!recheck} after {e every}
    reincarnation (re-running {!Static.check} against the live
    post-restart topology, re-derived from the Pubsub directory and
    each component's republished exports) and {!end_run} once each
    run's tail has drained (absorbing the {!Sanitizer}'s violations and
    end-of-run leak accounting). The result is one verdict and one
    counter block — re-checks, violations, leaks, stale derefs, hook
    overhead in model cycles — per run and for the campaign as a
    whole, surfaced in the CLI/bench JSON so hook-cost regressions are
    visible. *)

type counters = Checker.counters = {
  re_checks : int;
  static_violations : int;
  sanitizer_violations : int;
  leaks : int;
  stale_derefs : int;
  allocs : int;
  frees : int;
  handoffs : int;
  hook_events : int;
  hook_overhead_cycles : int;
  protocol_violations : int;
  protocol_requests : int;
  protocol_confirms : int;
  protocol_aborts : int;
  protocol_stale_confirms : int;
  protocol_events : int;
  tcpfsm_violations : int;
  tcpfsm_segments : int;
  tcpfsm_transitions : int;
  tcpfsm_overhead_cycles : int;
}
(** Per-run (and aggregate) verifier counters; see {!Checker.counters}. *)

val zero : counters
val add : counters -> counters -> counters

type t

val create : unit -> t

val recheck : t -> (unit -> Report.t) -> unit
(** Run one static re-check (the thunk typically wraps
    {!Static.check} over the live host) and absorb its verdict into
    the run in progress. Experiment drivers call this from the
    reincarnation server's post-restart notification. *)

val end_run : ?check_leaks:bool -> t -> unit
(** Close the run in progress: fold in every armed stream checker
    ({!Checker.S}) — its end-of-run verdict, drained when
    [check_leaks] (only meaningful once the run drained its in-flight
    buffers: the sanitizer's outstanding slots become leaks, the
    protocol checker's open request obligations violations), and its
    counters — append the run's counter block, and reset every armed
    checker's shadow state for the next run (the listeners stay
    installed). With no checker armed only the static-recheck counters
    are recorded. *)

val runs : t -> counters list
(** Counter blocks of completed runs, oldest first. *)

val totals : t -> counters
(** Sum over completed runs plus the run in progress. *)

val ok : t -> bool
(** No static violations, sanitizer violations, or leaks anywhere. *)

val report : title:string -> t -> Report.t
(** Everything collected, as a standard verifier report. *)

val counters_json : counters -> string
(** One counter block as a JSON object. *)

val json : t -> string
(** The fragment ["counters":{…},"run_counters":[…]] (no braces), for
    embedding in a larger JSON object. *)
