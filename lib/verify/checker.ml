(* The stream-checker signature.

   {!Sanitizer}, {!Protocol} and {!Tcpfsm} all subscribe to the one
   [Newt_channels.Hook] event stream and share one lifecycle: arm,
   replay the run, report, clear. [S] is that lifecycle, so callers arm
   any set of them with one [with_checkers] and [Continuous.end_run]
   folds every armed checker into a run's verdict and counter block by
   one loop. {!Static}, {!Mcheck} and {!Race} never subscribe to the
   stream and stay plain functions. *)

module Hook = Newt_channels.Hook

(** One run's (or a campaign's) verifier counter block; each stream
    checker fills its own fields ({!S.counters}). *)
type counters = {
  re_checks : int;  (** Static re-checks performed (one per restart). *)
  static_violations : int;
  sanitizer_violations : int;
  leaks : int;  (** Slots still allocated once the run quiesced. *)
  stale_derefs : int;
  allocs : int;
  frees : int;
  handoffs : int;
  hook_events : int;
  hook_overhead_cycles : int;
      (** {!Sanitizer.overhead_cycles} — instrumentation cost in model
          cycles (accounting only, never charged to simulated cores). *)
  protocol_violations : int;
      (** Dynamic request/confirm contract breaches ({!Protocol}). *)
  protocol_requests : int;  (** Request obligations opened. *)
  protocol_confirms : int;  (** Obligations met by a confirm. *)
  protocol_aborts : int;  (** Obligations discharged by an abort sweep. *)
  protocol_stale_confirms : int;
      (** Confirms for crash-closed conversations, absorbed by design. *)
  protocol_events : int;  (** Protocol hook events replayed. *)
  tcpfsm_violations : int;
      (** TCP FSM conformance breaches ({!Tcpfsm}): illegal
          transitions, wrong-state segments, conntrack drift. *)
  tcpfsm_segments : int;  (** Segments judged by the rule table. *)
  tcpfsm_transitions : int;  (** State transitions judged. *)
  tcpfsm_overhead_cycles : int;  (** {!Tcpfsm.overhead_cycles}. *)
}

module type S = sig
  val install : unit -> unit
  (** Subscribe to the event stream, clearing all checker state first;
      a no-op when already armed (state collected so far is kept). *)

  val uninstall : unit -> unit
  (** Unsubscribe. Collected state stays readable until the next
      {!reset} or arming {!install}. *)

  val active : unit -> bool

  val reset : unit -> unit
  (** Clear all checker state; an armed checker stays armed. *)

  val report : ?drained:bool -> ?title:string -> unit -> Report.t
  (** The verdict so far. [drained] (default false) declares the run
      quiesced — every channel empty — which turns what is still
      outstanding (allocated slots, open request obligations) into
      violations; mid-run there is always legitimate in-flight work. *)

  val counters : Report.t -> counters -> counters
  (** [counters r c] fills this checker's fields of the counter block
      [c] from its state and its end-of-run report [r]. *)
end

(** [with_checkers ?sample checkers f] arms [checkers] in list order,
    runs [f], then disarms them again — also on exceptions. Checkers
    already armed are left as they are (neither cleared nor disarmed),
    so brackets nest. With [sample] the stream is sampled one subject
    in [sample] ({!Hook.set_sample}) for the duration and the previous
    period is restored after. Collected state stays readable after [f]
    for the caller's verdict. *)
let with_checkers ?sample checkers f =
  let prev = Hook.sample () in
  Option.iter Hook.set_sample sample;
  let armed = List.filter (fun (module C : S) -> not (C.active ())) checkers in
  List.iter (fun (module C : S) -> C.install ()) armed;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (module C : S) -> C.uninstall ()) armed;
      if sample <> None then Hook.set_sample prev)
    f
