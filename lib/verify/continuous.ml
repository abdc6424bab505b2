(* Continuous verification: aggregate re-checks of the static channel
   graph (one per reincarnation) with the sanitizer's dynamic verdict,
   per experiment run and across a whole campaign. *)

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

let zero =
  {
    re_checks = 0;
    static_violations = 0;
    sanitizer_violations = 0;
    leaks = 0;
    stale_derefs = 0;
    allocs = 0;
    frees = 0;
    handoffs = 0;
    hook_events = 0;
    hook_overhead_cycles = 0;
    protocol_violations = 0;
    protocol_requests = 0;
    protocol_confirms = 0;
    protocol_aborts = 0;
    protocol_stale_confirms = 0;
    protocol_events = 0;
    tcpfsm_violations = 0;
    tcpfsm_segments = 0;
    tcpfsm_transitions = 0;
    tcpfsm_overhead_cycles = 0;
  }

let add a b =
  {
    re_checks = a.re_checks + b.re_checks;
    static_violations = a.static_violations + b.static_violations;
    sanitizer_violations = a.sanitizer_violations + b.sanitizer_violations;
    leaks = a.leaks + b.leaks;
    stale_derefs = a.stale_derefs + b.stale_derefs;
    allocs = a.allocs + b.allocs;
    frees = a.frees + b.frees;
    handoffs = a.handoffs + b.handoffs;
    hook_events = a.hook_events + b.hook_events;
    hook_overhead_cycles = a.hook_overhead_cycles + b.hook_overhead_cycles;
    protocol_violations = a.protocol_violations + b.protocol_violations;
    protocol_requests = a.protocol_requests + b.protocol_requests;
    protocol_confirms = a.protocol_confirms + b.protocol_confirms;
    protocol_aborts = a.protocol_aborts + b.protocol_aborts;
    protocol_stale_confirms = a.protocol_stale_confirms + b.protocol_stale_confirms;
    protocol_events = a.protocol_events + b.protocol_events;
    tcpfsm_violations = a.tcpfsm_violations + b.tcpfsm_violations;
    tcpfsm_segments = a.tcpfsm_segments + b.tcpfsm_segments;
    tcpfsm_transitions = a.tcpfsm_transitions + b.tcpfsm_transitions;
    tcpfsm_overhead_cycles = a.tcpfsm_overhead_cycles + b.tcpfsm_overhead_cycles;
  }

type t = {
  mutable runs : counters list;  (* completed runs, oldest first *)
  mutable viols : Report.violation list;  (* everything collected, in order *)
  (* accumulators for the run in progress *)
  mutable cur_re_checks : int;
  mutable cur_static_violations : int;
}

let create () =
  { runs = []; viols = []; cur_re_checks = 0; cur_static_violations = 0 }

let recheck t mk =
  let r = mk () in
  t.cur_re_checks <- t.cur_re_checks + 1;
  if not (Report.ok r) then begin
    t.cur_static_violations <-
      t.cur_static_violations + List.length r.Report.violations;
    t.viols <- t.viols @ r.Report.violations
  end

(* Every stream checker; [end_run] folds in the ones armed. *)
let checkers : (module Checker.S) list =
  [ (module Sanitizer); (module Protocol); (module Tcpfsm) ]

let end_run ?(check_leaks = false) t =
  let armed = List.filter (fun (module C : Checker.S) -> C.active ()) checkers in
  (* A leak-checked run is a drained run: the same quiescence that
     makes outstanding slots leaks makes open request obligations
     violations. *)
  let c =
    List.fold_left
      (fun c (module C : Checker.S) ->
        let r = C.report ~drained:check_leaks () in
        t.viols <- t.viols @ r.Report.violations;
        C.counters r c)
      {
        zero with
        re_checks = t.cur_re_checks;
        static_violations = t.cur_static_violations;
      }
      armed
  in
  t.runs <- t.runs @ [ c ];
  t.cur_re_checks <- 0;
  t.cur_static_violations <- 0;
  (* The next run starts with fresh shadow state; the listeners stay
     installed so they capture the new world's pool announcements. *)
  List.iter (fun (module C : Checker.S) -> C.reset ()) armed

let runs t = t.runs

let totals t =
  List.fold_left add
    {
      zero with
      re_checks = t.cur_re_checks;
      static_violations = t.cur_static_violations;
    }
    t.runs

let ok t = t.viols = []

let report ~title t =
  let c = totals t in
  {
    Report.title;
    checks =
      [
        ("re-checks", c.re_checks);
        ("runs", List.length t.runs);
        ("allocations", c.allocs);
        ("frees", c.frees);
        ("hand-offs", c.handoffs);
        ("stale-derefs", c.stale_derefs);
        ("hook-events", c.hook_events);
      ];
    violations = t.viols;
  }

let counters_json c =
  Printf.sprintf
    "{\"re_checks\":%d,\"static_violations\":%d,\"sanitizer_violations\":%d,\"leaks\":%d,\"stale_derefs\":%d,\"allocs\":%d,\"frees\":%d,\"handoffs\":%d,\"hook_events\":%d,\"hook_overhead_cycles\":%d,\"protocol_violations\":%d,\"protocol_requests\":%d,\"protocol_confirms\":%d,\"protocol_aborts\":%d,\"protocol_stale_confirms\":%d,\"protocol_events\":%d,\"tcpfsm_violations\":%d,\"tcpfsm_segments\":%d,\"tcpfsm_transitions\":%d,\"tcpfsm_overhead_cycles\":%d}"
    c.re_checks c.static_violations c.sanitizer_violations c.leaks
    c.stale_derefs c.allocs c.frees c.handoffs c.hook_events
    c.hook_overhead_cycles c.protocol_violations c.protocol_requests
    c.protocol_confirms c.protocol_aborts c.protocol_stale_confirms
    c.protocol_events c.tcpfsm_violations c.tcpfsm_segments
    c.tcpfsm_transitions c.tcpfsm_overhead_cycles

let json t =
  Printf.sprintf "\"counters\":%s,\"run_counters\":[%s]"
    (counters_json (totals t))
    (String.concat "," (List.map counters_json t.runs))
