module Hook = Newt_channels.Hook

(* {1 The rule language}

   The contract is data: a list of guarded rules over per-request-id
   conversations. Each hook event is translated into an [atom] for its
   id; the first rule whose atom matches and whose source-state guard
   admits the conversation's current state fires its actions. *)

type atom =
  | Submitted
  | Confirmed
  | Stale_confirmed
  | Aborted_by_sweep
  | Owner_died
  | Req_sent
  | Req_received
  | Req_dropped
  | Conf_sent
  | Conf_received
  | Conf_dropped

type action =
  | Goto of string
  | Count of string
  | Flag of { check : string; detail : string }
  | Flight_up of [ `Req | `Conf ]
  | Flight_down of [ `Req | `Conf ]

type rule = { on : atom; from : string list; act : action list }
(* [from = []] is the wildcard: the rule fires from any state. *)

(* Conversation states: "fresh" (id never seen), "pending" (submitted,
   unresolved), "confirmed", "aborted" (abort sweep ran its action),
   "dead" (the owning database was dropped wholesale). *)

let contract : rule list =
  [
    (* request ⇒ eventually (confirm ∨ abort): open the obligation. *)
    { on = Submitted; from = [ "fresh" ]; act = [ Goto "pending"; Count "requests" ] };
    {
      on = Submitted;
      from = [];
      act =
        [
          Flag
            {
              check = "duplicate-request-id";
              detail =
                "request id issued twice — identifiers must be unique for the \
                 process lifetime (Section V-D)";
            };
        ];
    };
    (* A live record resolved: the obligation is met. *)
    { on = Confirmed; from = [ "pending" ]; act = [ Goto "confirmed"; Count "confirms" ] };
    {
      on = Confirmed;
      from = [];
      act =
        [
          Flag
            {
              check = "confirm-unpaired";
              detail =
                "the request database resolved a record the checker never saw \
                 submitted";
            };
        ];
    };
    (* complete() on an unknown id: benign only for conversations a
       crash already closed. *)
    { on = Stale_confirmed; from = [ "aborted"; "dead" ]; act = [ Count "stale-confirms" ] };
    {
      on = Stale_confirmed;
      from = [ "confirmed" ];
      act =
        [
          Flag
            {
              check = "duplicate-confirm";
              detail = "second confirm for an already-confirmed request";
            };
        ];
    };
    {
      on = Stale_confirmed;
      from = [ "pending" ];
      act =
        [
          Flag
            {
              check = "confirm-wrong-db";
              detail =
                "confirm hit a database that never held this request — the \
                 record is pending elsewhere";
            };
        ];
    };
    {
      on = Stale_confirmed;
      from = [];
      act =
        [
          Flag
            {
              check = "confirm-without-request";
              detail = "confirm for a request id that was never submitted";
            };
        ];
    };
    (* abort-implies-record-removed: the sweep removes records before
       running aborts, so an abort for anything but a pending record
       means the database lied. *)
    { on = Aborted_by_sweep; from = [ "pending" ]; act = [ Goto "aborted"; Count "aborts" ] };
    {
      on = Aborted_by_sweep;
      from = [];
      act =
        [
          Flag
            {
              check = "abort-without-request";
              detail = "abort action ran for a request that was not pending";
            };
        ];
    };
    (* The owning database died wholesale: obligations die with it. *)
    { on = Owner_died; from = [ "pending" ]; act = [ Goto "dead"; Count "owner-deaths" ] };
    { on = Owner_died; from = []; act = [] };
    (* hand-off ⇒ eventually (receive ∨ drop): balance per-id flight
       counters; what is still up when the trace closes is an
       undelivered hand-off. *)
    { on = Req_sent; from = []; act = [ Flight_up `Req; Count "req-msgs" ] };
    { on = Req_received; from = []; act = [ Flight_down `Req ] };
    { on = Req_dropped; from = []; act = [ Flight_down `Req; Count "req-drops" ] };
    { on = Conf_sent; from = []; act = [ Flight_up `Conf; Count "conf-msgs" ] };
    { on = Conf_received; from = []; act = [ Flight_down `Conf ] };
    (* A confirm discarded while its request is still pending strands
       the requester: the record's owner will wait forever. Discards
       for conversations a crash closed are the normal teardown path
       (the database reset precedes the channel teardown). *)
    {
      on = Conf_dropped;
      from = [ "pending" ];
      act =
        [
          Flight_down `Conf;
          Flag
            {
              check = "dropped-confirm";
              detail =
                "confirm discarded while the request is still pending — the \
                 requester is stranded";
            };
        ];
    };
    { on = Conf_dropped; from = []; act = [ Flight_down `Conf; Count "conf-drops" ] };
  ]

let atom_name = function
  | Submitted -> "submitted"
  | Confirmed -> "confirmed"
  | Stale_confirmed -> "stale-confirmed"
  | Aborted_by_sweep -> "aborted"
  | Owner_died -> "owner-died"
  | Req_sent -> "req-sent"
  | Req_received -> "req-received"
  | Req_dropped -> "req-dropped"
  | Conf_sent -> "conf-sent"
  | Conf_received -> "conf-received"
  | Conf_dropped -> "conf-dropped"

let describe_rules () =
  List.map
    (fun r ->
      let from =
        match r.from with [] -> "any" | ss -> String.concat "|" ss
      in
      let acts =
        List.map
          (function
            | Goto s -> "goto " ^ s
            | Count c -> "count " ^ c
            | Flag { check; _ } -> "VIOLATION " ^ check
            | Flight_up `Req -> "req-flight++"
            | Flight_up `Conf -> "conf-flight++"
            | Flight_down `Req -> "req-flight--"
            | Flight_down `Conf -> "conf-flight--")
          r.act
      in
      Printf.sprintf "on %s from %s: %s" (atom_name r.on) from
        (String.concat ", " acts))
    contract

(* {1 The compiled runtime checker} *)

type conv = {
  mutable state : string;
  mutable db : int;
  mutable req_flight : int;
  mutable conf_flight : int;
  mutable queued : bool;  (* sitting in the retirement queue *)
}

let convs : (int, conv) Hashtbl.t = Hashtbl.create 4096
let by_db : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64
let counters : (string, int) Hashtbl.t = Hashtbl.create 32
let viols : Report.violation list ref = ref []
let events = ref 0
let token : Hook.token option ref = ref None

(* What one conversation update would cost in model cycles had the
   checker run inline in the stack proper (a hash probe plus a rule
   dispatch) — the accounting behind {!overhead_cycles}. *)
let cycles_per_event = 30

(* Ring buffer of the most recent protocol events, rendered lazily:
   the counterexample trace of the model checker. *)
let ring_size = 64
let ring : (string option * Hook.event) option array = Array.make ring_size None
let ring_next = ref 0

let remember ~actor ev =
  ring.(!ring_next mod ring_size) <- Some (actor, ev);
  incr ring_next

let who = function Some a -> a | None -> "unattributed"

let render (actor, ev) =
  let a = who actor in
  match ev with
  | Hook.Req_submit { db; id; peer } ->
      Printf.sprintf "%s: submit id %d (db %d, to peer %d)" a id db peer
  | Hook.Req_confirm { db; id; known } ->
      Printf.sprintf "%s: confirm id %d (db %d%s)" a id db
        (if known then "" else ", unknown id")
  | Hook.Req_abort { db; id; peer } ->
      Printf.sprintf "%s: abort id %d (db %d, peer %d died)" a id db peer
  | Hook.Req_reset { db } -> Printf.sprintf "%s: reset db %d" a db
  | Hook.Msg_req { chan; id; way } ->
      Printf.sprintf "%s: request id %d %s (chan %d)" a id
        (match way with
        | `Sent -> "sent"
        | `Received -> "received"
        | `Dropped -> "dropped")
        chan
  | Hook.Msg_conf { chan; id; way } ->
      Printf.sprintf "%s: confirm id %d %s (chan %d)" a id
        (match way with
        | `Sent -> "sent"
        | `Received -> "received"
        | `Dropped -> "dropped")
        chan
  | _ -> Printf.sprintf "%s: (non-protocol event)" a

let trace () =
  let n = min !ring_next ring_size in
  let start = !ring_next - n in
  List.init n (fun i ->
      match ring.((start + i) mod ring_size) with
      | Some entry -> render entry
      | None -> "")
  |> List.filter (fun s -> s <> "")

(* {2 Conversation retirement}

   Request ids are unique for the process lifetime, so without pruning
   the conversation table grows with every request ever made — a
   checker meant to run continuously would leak. A conversation that
   reached a terminal state (confirmed, aborted, dead) with no message
   in flight can no longer transition: the only events that may still
   mention its id are stale confirms, which the grace window absorbs.
   After [retire_grace] further events it is dropped wholesale. A
   straggler arriving later recreates the id as "fresh", so the grace
   must cover the longest legitimate confirm latency (in events); the
   default is generous and settable for tests. *)

let retire_grace = ref 4096
let set_retire_grace n = retire_grace := max 1 n
let retire_q : (int * int) Queue.t = Queue.create ()

let terminal = function
  | "confirmed" | "aborted" | "dead" -> true
  | _ -> false

let retire_due () =
  let horizon = !events - !retire_grace in
  let rec go () =
    match Queue.peek_opt retire_q with
    | Some (id, at) when at <= horizon -> (
        ignore (Queue.pop retire_q);
        match Hashtbl.find_opt convs id with
        | Some c when terminal c.state && c.req_flight + c.conf_flight = 0 ->
            Hashtbl.remove convs id;
            Hashtbl.replace counters "retired"
              (1
              + match Hashtbl.find_opt counters "retired" with
                | Some n -> n
                | None -> 0);
            (match Hashtbl.find_opt by_db c.db with
            | Some ids ->
                Hashtbl.remove ids id;
                if Hashtbl.length ids = 0 then Hashtbl.remove by_db c.db
            | None -> ());
            go ()
        | Some c ->
            (* Not retirable after all — let a later event re-queue it. *)
            c.queued <- false;
            go ()
        | None -> go ())
    | _ -> ()
  in
  go ()

let clear () =
  Hashtbl.reset convs;
  Hashtbl.reset by_db;
  Hashtbl.reset counters;
  viols := [];
  events := 0;
  Queue.clear retire_q;
  Array.fill ring 0 ring_size None;
  ring_next := 0

let bump name =
  Hashtbl.replace counters name
    (1 + match Hashtbl.find_opt counters name with Some n -> n | None -> 0)

let count name =
  match Hashtbl.find_opt counters name with Some n -> n | None -> 0

let counts () =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters [] |> List.sort compare

let conv_of id =
  match Hashtbl.find_opt convs id with
  | Some c -> c
  | None ->
      let c =
        {
          state = "fresh";
          db = -1;
          req_flight = 0;
          conf_flight = 0;
          queued = false;
        }
      in
      Hashtbl.add convs id c;
      c

let record check ~id ~actor ~state detail =
  viols :=
    {
      Report.check;
      subject = Printf.sprintf "request id %d" id;
      culprit = who actor;
      detail = Printf.sprintf "%s (conversation state: %s)" detail state;
    }
    :: !viols

(* First-match rule dispatch: the "compiler" is the specialization of
   the data-level contract against (atom, state). *)
let apply ~actor ~id atom =
  let c = conv_of id in
  let matching r =
    r.on = atom && (r.from = [] || List.mem c.state r.from)
  in
  match List.find_opt matching contract with
  | None -> bump "unmatched"
  | Some r ->
      let before = c.state in
      List.iter
        (function
          | Goto s -> c.state <- s
          | Count name -> bump name
          | Flag { check; detail } -> record check ~id ~actor ~state:before detail
          | Flight_up `Req -> c.req_flight <- c.req_flight + 1
          | Flight_up `Conf -> c.conf_flight <- c.conf_flight + 1
          | Flight_down `Req -> c.req_flight <- max 0 (c.req_flight - 1)
          | Flight_down `Conf -> c.conf_flight <- max 0 (c.conf_flight - 1))
        r.act;
      if terminal c.state && c.req_flight + c.conf_flight = 0 && not c.queued
      then begin
        c.queued <- true;
        Queue.push (id, !events) retire_q
      end

let index_db ~db id =
  match Hashtbl.find_opt by_db db with
  | Some ids -> Hashtbl.replace ids id ()
  | None ->
      let ids = Hashtbl.create 64 in
      Hashtbl.replace ids id ();
      Hashtbl.add by_db db ids

let on_event ~actor ev =
  (* TCP events belong to Verify.Tcpfsm: they do not even run the
     retirement clock. *)
  (match ev with
  | Hook.T_state_change _ | Hook.T_seg_tx _ | Hook.T_seg_rx _ -> ()
  | _ -> retire_due ());
  match ev with
  | Hook.Req_submit { db; id; _ } ->
      incr events;
      remember ~actor ev;
      apply ~actor ~id Submitted;
      (conv_of id).db <- db;
      index_db ~db id
  | Hook.Req_confirm { id; known; _ } ->
      incr events;
      remember ~actor ev;
      apply ~actor ~id (if known then Confirmed else Stale_confirmed)
  | Hook.Req_abort { id; _ } ->
      incr events;
      remember ~actor ev;
      apply ~actor ~id Aborted_by_sweep
  | Hook.Req_reset { db } ->
      incr events;
      remember ~actor ev;
      (match Hashtbl.find_opt by_db db with
      | Some ids ->
          Hashtbl.iter (fun id () -> apply ~actor ~id Owner_died) ids
      | None -> ())
  | Hook.Msg_req { id; way; _ } ->
      incr events;
      remember ~actor ev;
      apply ~actor ~id
        (match way with
        | `Sent -> Req_sent
        | `Received -> Req_received
        | `Dropped -> Req_dropped)
  | Hook.Msg_conf { id; way; _ } ->
      incr events;
      remember ~actor ev;
      apply ~actor ~id
        (match way with
        | `Sent -> Conf_sent
        | `Received -> Conf_received
        | `Dropped -> Conf_dropped)
  | Hook.Pool_own _ | Hook.Pool_grant _ | Hook.Pool_alloc _ | Hook.Pool_write _
  | Hook.Pool_read _ | Hook.Pool_free _ | Hook.Pool_free_all _
  | Hook.Pool_double_free _ | Hook.Pool_stale _ | Hook.Chan_handoff _
  | Hook.Chan_receive _ | Hook.Chan_dropped _ | Hook.T_state_change _
  | Hook.T_seg_tx _ | Hook.T_seg_rx _ ->
      ()

let install () =
  if !token = None then begin
    clear ();
    token := Some (Hook.add on_event)
  end

let uninstall () =
  Option.iter Hook.remove !token;
  token := None

let active () = !token <> None
let reset () = clear ()

(* Close the trace: what "eventually" means at the end of a run. Only
   a drained run (quiesced tail, every channel empty) may treat open
   obligations as violations — mid-run there is always legitimate
   in-flight work. *)
let finish ?(drained = false) () =
  if drained then
    Hashtbl.iter
      (fun id c ->
        if c.state = "pending" then
          record "unresolved-request" ~id ~actor:None ~state:c.state
            "request neither confirmed nor aborted by the end of a drained run";
        if c.state <> "dead" && c.req_flight + c.conf_flight > 0 then
          record "undelivered-handoff" ~id ~actor:None ~state:c.state
            (Printf.sprintf
               "%d message(s) for this request neither received nor dropped by \
                the end of a drained run"
               (c.req_flight + c.conf_flight)))
      convs

let violations () = List.rev !viols
let event_count () = !events
let overhead_cycles () = !events * cycles_per_event
let conversations () = Hashtbl.length convs

let report ?(drained = false) ?(title = "channel-protocol checker") () =
  finish ~drained ();
  {
    Report.title;
    checks =
      [
        ("requests", count "requests");
        ("confirms", count "confirms");
        ("aborts", count "aborts");
        ("owner-deaths", count "owner-deaths");
        ("stale-confirms", count "stale-confirms");
        ("req-msgs", count "req-msgs");
        ("conf-msgs", count "conf-msgs");
        ("req-drops", count "req-drops");
        ("conf-drops", count "conf-drops");
        ("retired", count "retired");
      ];
    violations = violations ();
  }

let counters (r : Report.t) (c : Checker.counters) =
  {
    c with
    protocol_violations = List.length r.violations;
    protocol_requests = count "requests";
    protocol_confirms = count "confirms";
    protocol_aborts = count "aborts";
    protocol_stale_confirms = count "stale-confirms";
    protocol_events = !events;
  }
