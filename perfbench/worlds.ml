(* The benchmark's worlds, built from the public builders
   ([Sharded_stack], [Host], [Apps], [Sink]) rather than the canned
   [Experiments]/[Churn] entry points, so the measurement loop can read
   the engine, the links and the components from outside. With the
   canned arguments each builder simulates exactly what its canned
   counterpart simulates (test/crosscheck.ml holds them to it). *)

module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Hist = Newt_sim.Stats.Hist
module Series = Newt_sim.Series
module Rng = Newt_sim.Rng
module Link = Newt_nic.Link
module Tcp = Newt_net.Tcp
module Addr = Newt_net.Addr
module Rule = Newt_pf.Rule
module Pf_engine = Newt_pf.Pf_engine
module Sink = Newt_stack.Sink
module Tcp_srv = Newt_stack.Tcp_srv
module Component = Newt_stack.Component
module Apps = Newt_sockets.Apps
module S = Newt_scale.Sharded_stack
module Host = Newt_core.Host
module Experiments = Newt_core.Experiments
module Static = Newt_verify.Static
module Continuous = Newt_verify.Continuous
module V = Newt_verify

(* What a finished world reports. [counts] holds every per-layer count
   and simulated result read after the run (see [count_names]),
   [failures] the failed operations by kind (counted against
   [attempted]), and [fingerprint] every deterministic simulated output,
   printed exactly. *)
type outcome = {
  goodput_gbps : float;
  counts : (string * float) list;
  connections : int;  (* connections opened, for words per connection *)
  hook_events : int;  (* events the armed checkers saw *)
  attempted : int;
  failures : (string * int) list;
  fingerprint : string;
  crash_trace : Experiments.crash_trace option;  (* recovery only *)
}

type t = {
  engine : Engine.t;
  links : Link.t list;
  components : unit -> Component.t list;
  warm_until : Time.cycles;  (* set-up runs the world to here *)
  slices : Time.cycles list;  (* the timed run's slice ends *)
  end_run : unit -> unit;  (* the checkers' end of run; no-op unarmed *)
  outcome : unit -> outcome;
  teardown : unit -> unit;
}

let frames w =
  List.fold_left
    (fun acc l -> acc + Link.tx_frames l ~from:Link.Left + Link.tx_frames l ~from:Link.Right)
    0 w.links

(* The ends of [n] equal slices from [from] to [until]. *)
let slice_ends ~from ~until ~n =
  List.init n (fun i -> from + ((until - from) * (i + 1) / n))

let sec = Time.of_seconds

(* A fault injection, traced as an "inject" span. *)
let inject f () = Span.with_ "inject" f

let hex f = Printf.sprintf "%h" f

let tail_fp name (h : Hist.t) =
  let q p = Option.value (Hist.percentile h p) ~default:0.0 in
  Printf.sprintf "%s=%d/%s/%s/%s/%s" name (Hist.count h)
    (hex (Option.value (Hist.mean h) ~default:0.0))
    (hex (q 50.0)) (hex (q 99.0)) (hex (q 99.9))

(* The p999 of a latency histogram, reported only when at least ten
   samples lie beyond it. *)
let p999_ok h =
  let n = Hist.count h in
  n - int_of_float (Float.ceil (0.999 *. float_of_int n)) >= 10

let pct h p = Option.value (Hist.percentile h p) ~default:0.0

let sum_array f a = Array.fold_left (fun acc x -> acc + f x) 0 a

(* The per-layer counts and simulated results every world reports; a
   world that has none of one reports 0. The simulated results
   ([model.*]) are gated exactly through the fingerprint. *)
let count_names =
  [
    "model.request_p50_us";
    "model.request_p999_us";
    "model.request_samples";
    "model.connect_p999_us";
    "model.generator_late_max_us";
    "model.outage_s";
    "net.retransmits";
    "net.duplicates";
    "nic.link_dropped";
    "pf.evicted_half_open";
    "pf.evicted_established";
    "pf.conntrack_entries";
    "scale.imbalance";
    "scale.steering_violations";
    "reliability.restarts.ip";
    "reliability.restarts.pf";
    "reliability.restarts.tcp";
    "reliability.gap_s.ip";
    "reliability.gap_s.pf";
    "verify.violations";
  ]

let all_counts kvs =
  List.iter
    (fun (n, _) -> if not (List.mem n count_names) then invalid_arg ("unlisted count " ^ n))
    kvs;
  List.map (fun n -> (n, Option.value (List.assoc_opt n kvs) ~default:0.0)) count_names

(* {1 bulk: the 8x4x2 headline point} *)

type bulk = {
  b_ports : int array;  (* one sink port per flow *)
  b_starts : float array;  (* per-flow start offset, simulated seconds *)
  b_warmup : float;  (* simulated seconds of slow start inside set-up *)
  b_window : float;  (* simulated seconds timed *)
}

let bulk_default =
  {
    b_ports = Array.init 8 (fun i -> 5001 + i);
    b_starts = Array.make 8 0.0;
    b_warmup = 0.005;
    b_window = 0.05;
  }

let bulk_shards = 8

(* Mirrors one point of [Experiments.scaling_curve] at 8x4x2 over the
   40 Gbps link; with [b_warmup = 0] and [b_window = duration] the
   goodput is the canned one. The stack's own seed is the canned
   default throughout (see "Seeded inputs" below). *)
let bulk p =
  let config =
    {
      S.default_config with
      S.shards = bulk_shards;
      ip_replicas = 4;
      link_gbps = 40.0;
      pf_shards = 2;
      pf_rules = Some [ Rule.pass_all ];
    }
  in
  let s = S.create ~config () in
  let total = ref 0 in
  Array.iter
    (fun port -> Sink.sink_tcp (S.sink s) ~port ~on_bytes:(fun ~at:_ b -> total := !total + b))
    p.b_ports;
  let warm_until = sec p.b_warmup in
  let until = sec (p.b_warmup +. p.b_window) in
  Array.iteri
    (fun i port ->
      let start () =
        ignore
          (Apps.Iperf.start (S.machine s) ~sc:(S.sc s) ~app:(S.app s) ~dst:(S.sink_addr s) ~port
             ~until ())
      in
      if p.b_starts.(i) = 0.0 then start () else S.at s (sec p.b_starts.(i)) start)
    p.b_ports;
  let at_warm = ref 0 and frames_warm = ref 0 in
  S.at s warm_until (fun () ->
      at_warm := !total;
      frames_warm := Link.tx_frames (S.link s) ~from:Link.Left + Link.tx_frames (S.link s) ~from:Link.Right);
  let outcome () =
    let goodput = float_of_int (!total - !at_warm) *. 8.0 /. p.b_window /. 1e9 in
    let shards = S.shard_stats s in
    let pf = S.pf_shard_stats s in
    let checksum = Sink.checksum_failures (S.sink s) in
    let steering = S.steering_violations s in
    let link = S.link s in
    let frames = Link.tx_frames link ~from:Link.Left + Link.tx_frames link ~from:Link.Right in
    let retrans = ref 0 in
    for i = 0 to bulk_shards - 1 do
      let st = Tcp.stats (Tcp_srv.engine (S.tcp_shard s i)) in
      retrans := !retrans + st.Tcp.retransmits
    done;
    let dups = (Tcp.stats (Sink.tcp (S.sink s))).Tcp.dup_segs_in in
    {
      goodput_gbps = goodput;
      counts =
        all_counts
        [
          ("net.retransmits", float_of_int !retrans);
          ("net.duplicates", float_of_int dups);
          ("nic.link_dropped", float_of_int (Link.dropped link));
          ("pf.evicted_half_open", float_of_int (sum_array (fun x -> x.S.evicted_half_open) pf));
          ("pf.evicted_established", float_of_int (sum_array (fun x -> x.S.evicted_established) pf));
          ("pf.conntrack_entries", float_of_int (sum_array (fun x -> x.S.entries) pf));
          ("scale.imbalance", S.imbalance_ratio s);
          ("scale.steering_violations", float_of_int steering);
        ];
      connections = 0;
      hook_events = 0;
      attempted = max 1 (frames - !frames_warm);
      failures = [ ("checksum_failures", checksum); ("steering_violations", steering) ];
      crash_trace = None;
      fingerprint =
        String.concat " "
          ([
             "goodput=" ^ hex goodput;
             Printf.sprintf "total=%d frames=%d dropped=%d" !total frames (Link.dropped link);
             "imbalance=" ^ hex (S.imbalance_ratio s);
             Printf.sprintf "steering=%d checksum=%d retrans=%d dups=%d" steering checksum
               !retrans dups;
           ]
          @ Array.to_list
              (Array.map
                 (fun x ->
                   Printf.sprintf "shard%d=%d/%d/%d" x.S.shard x.S.flows x.S.segs_out
                     x.S.bytes_out)
                 shards)
          @ Array.to_list
              (Array.map
                 (fun x -> Printf.sprintf "pf%d=%d/%d" x.S.pf_shard x.S.verdicts x.S.entries)
                 pf));
    }
  in
  {
    engine = S.engine s;
    links = [ S.link s ];
    components = (fun () -> S.components s);
    warm_until;
    slices = slice_ends ~from:warm_until ~until ~n:10;
    end_run = (fun () -> ());
    outcome;
    teardown = (fun () -> ());
  }

(* {1 churn: open-loop RPCs under a SYN flood} *)

type churn = {
  c_duration : float;
  c_bulk_flows : int;
  c_conntrack_total : int;
  c_echo_port : int;
  c_flood_offset : int;  (* where the flood's source pattern starts *)
}

(* [Churn.run ~scenario:Syn_flood] on its default 8x4x2 topology, with
   the bulk flows removed: connection handling dominates. Eight workers
   open 10k RPCs/s of 256 bytes each under a 20k SYN/s flood. 11k RPCs,
   so eleven samples lie beyond the p999. Their confirmed conntrack
   entries outlive the run (30 s TTL), so the budget is 16384 rather
   than the canned 8192: at 8192 some seeds fill a partition with
   confirmed entries and, by design, evict established ones, which this
   workload counts as failures. The 17.6k flood SYNs still overflow it,
   so every run evicts half-open entries. *)
let churn_default =
  {
    c_duration = 1.1;
    c_bulk_flows = 0;
    c_conntrack_total = 16384;
    c_echo_port = 22;
    c_flood_offset = 0;
  }

let churn_rate = 10_000.0
let churn_workers = 8
let churn_payload = 256
let churn_flood_per_ms = 20  (* spoofed SYNs, 20k/s *)

(* The flood source pattern of [Churn]: spoofed 198.18.0.0/15 sources
   over a bounded set of IPs, uniqueness carried by the source port. *)
let flood_src c =
  let i = c mod 500 in
  (Addr.Ipv4.v 198 18 (i / 250) (1 + (i mod 250)), 1024 + (c / 500))

let churn p =
  let shards = 8 in
  let config =
    {
      S.default_config with
      S.shards;
      ip_replicas = 4;
      pf_shards = 2;
      pf_rules = Some [ Rule.pass_all ];
      tcp_config = Some { Tcp.default_config with Tcp.msl = sec 0.02 };
      conntrack_total = p.c_conntrack_total;
    }
  in
  let s = S.create ~config () in
  Sink.serve_tcp_echo (S.sink s) ~port:p.c_echo_port;
  let bulk_received = ref 0 in
  for i = 0 to p.c_bulk_flows - 1 do
    Sink.sink_tcp (S.sink s) ~port:(5001 + i) ~on_bytes:(fun ~at:_ n ->
        bulk_received := !bulk_received + n)
  done;
  let until = sec p.c_duration in
  let _ =
    List.init p.c_bulk_flows (fun i ->
        Apps.Iperf.start (S.machine s) ~sc:(S.sc s) ~app:(S.app s) ~dst:(S.sink_addr s)
          ~port:(5001 + i) ~until ())
  in
  let pace = sec (float_of_int churn_workers /. churn_rate) in
  let workers =
    List.init churn_workers (fun _ ->
        Rpc.start (S.machine s) ~sc:(S.sc s) ~app:(S.app s) ~dst:(S.sink_addr s)
          ~port:p.c_echo_port ~pace ~payload:churn_payload ~until)
  in
  let flood_syns = ref 0 in
  let tick = sec 0.001 in
  let until_t = sec (0.9 *. p.c_duration) in
  let rec arm at =
    if at < until_t then
      S.at s at (fun () ->
          for _ = 1 to churn_flood_per_ms do
            incr flood_syns;
            let src, src_port = flood_src (p.c_flood_offset + !flood_syns) in
            Sink.send_tcp_syn (S.sink s) ~src ~src_port ~dst:(S.local_addr s) ~dst_port:9
          done;
          arm (at + tick))
  in
  arm (sec (0.1 *. p.c_duration));
  (* The canned run drains half a second past the end before reading. *)
  let drain = until + sec 0.5 in
  let outcome () =
    let merged f =
      let h = Hist.create () in
      List.iter (fun w -> Hist.merge ~into:h (f w)) workers;
      h
    in
    let connect = merged (fun w -> w.Rpc.connect_hist)
    and request = merged (fun w -> w.Rpc.request_hist)
    and due = merged (fun w -> w.Rpc.due_hist)
    and late = merged (fun w -> w.Rpc.late_hist) in
    let sum f = List.fold_left (fun acc w -> acc + f w) 0 workers in
    let started = sum (fun w -> w.Rpc.started)
    and completed = sum (fun w -> w.Rpc.completed)
    and errors = sum (fun w -> w.Rpc.errors)
    and shed = sum (fun w -> w.Rpc.shed) in
    let pf = S.pf_shard_stats s in
    let sum_pf f = sum_array f pf in
    let evicted_est = sum_pf (fun x -> x.S.evicted_established) in
    let steering = S.steering_violations s in
    let checksum = Sink.checksum_failures (S.sink s) in
    let overflows = ref 0 and retrans = ref 0 in
    for i = 0 to shards - 1 do
      overflows := !overflows + Tcp_srv.listen_overflows (S.tcp_shard s i);
      retrans := !retrans + (Tcp.stats (Tcp_srv.engine (S.tcp_shard s i))).Tcp.retransmits
    done;
    let rpc_gbps =
      float_of_int (completed * churn_payload) *. 8.0 /. p.c_duration /. 1e9
    in
    let bulk_gbps = float_of_int !bulk_received *. 8.0 /. p.c_duration /. 1e9 in
    let undersampled = if p999_ok due then 0 else 1 in
    {
      goodput_gbps = rpc_gbps +. bulk_gbps;
      counts =
        all_counts
        [
          ("model.request_p50_us", pct due 50.0);
          ("model.request_p999_us", pct due 99.9);
          ("model.request_samples", float_of_int (Hist.count due));
          ("model.connect_p999_us", pct connect 99.9);
          ("model.generator_late_max_us", pct late 100.0);
          ("net.retransmits", float_of_int !retrans);
          ("net.duplicates", float_of_int (Tcp.stats (Sink.tcp (S.sink s))).Tcp.dup_segs_in);
          ("nic.link_dropped", float_of_int (Link.dropped (S.link s)));
          ("pf.evicted_half_open", float_of_int (sum_pf (fun x -> x.S.evicted_half_open)));
          ("pf.evicted_established", float_of_int evicted_est);
          ("pf.conntrack_entries", float_of_int (sum_pf (fun x -> x.S.entries)));
          ("scale.imbalance", S.imbalance_ratio s);
          ("scale.steering_violations", float_of_int steering);
        ];
      connections = started;
      hook_events = 0;
      attempted = max 1 (started + shed);
      failures =
        [
          ("rpc_errors", errors);
          ("shed", shed);
          ("evicted_established", evicted_est);
          ("p999_undersampled", undersampled);
        ];
      crash_trace = None;
      fingerprint =
        String.concat " "
          [
            Printf.sprintf "started=%d completed=%d errors=%d shed=%d" started completed errors
              shed;
            tail_fp "connect" connect;
            tail_fp "request" request;
            tail_fp "due" due;
            tail_fp "late" late;
            "late_max=" ^ hex (pct late 100.0);
            Printf.sprintf "flood=%d entries=%d half_open=%d ev_half=%d ev_est=%d" !flood_syns
              (sum_pf (fun x -> x.S.entries))
              (sum_pf (fun x -> x.S.half_open))
              (sum_pf (fun x -> x.S.evicted_half_open))
              evicted_est;
            Printf.sprintf "bulk=%s overflows=%d steering=%d checksum=%d retrans=%d"
              (hex bulk_gbps) !overflows steering checksum !retrans;
          ];
    }
  in
  {
    engine = S.engine s;
    links = [ S.link s ];
    components = (fun () -> S.components s);
    warm_until = 0;
    slices = slice_ends ~from:0 ~until ~n:12 @ [ drain ];
    end_run = (fun () -> ());
    outcome;
    teardown = (fun () -> ());
  }

(* Churn's per-worker histograms, for the cross-check against
   [Churn.run]'s result. *)
let churn_result_fingerprint (r : Newt_core.Churn.result) =
  let tail name (t : Newt_core.Churn.tail) =
    Printf.sprintf "%s=%d/%s/%s/%s/%s" name t.samples (hex t.mean_us) (hex t.p50_us)
      (hex t.p99_us) (hex t.p999_us)
  in
  String.concat " "
    [
      Printf.sprintf "started=%d completed=%d errors=%d shed=%d" r.started r.completed
        r.rpc_errors r.shed;
      tail "connect" r.connect;
      tail "request" r.request;
      Printf.sprintf "flood=%d entries=%d half_open=%d ev_half=%d ev_est=%d" r.flood_syns
        r.conntrack_entries r.conntrack_half_open r.evicted_half_open r.evicted_established;
      Printf.sprintf "bulk=%s overflows=%d steering=%d checksum=%d"
        (hex r.bulk_goodput_gbps) r.listen_overflows r.steering_violations r.checksum_failures;
    ]

(* {1 recovery: the split stack across IP and PF crashes} *)

type recovery = {
  r_rules : int;  (* <= 2 means a pass-all filter, as in the canned runs *)
  r_rules_seed : int;  (* the canned runs draw the ruleset from seed + 1 *)
  r_crashes : (float * Host.component) list;
  r_duration : float;  (* iperf stops a second before; the run ends a second after *)
  r_warmup : float;
}

(* Figure 4's IP crash (NIC-reset gap) and Figure 5's two PF crashes in
   one run over a 1024-rule filter, checkers armed as CI runs them. *)
let recovery_default =
  {
    r_rules = 1024;
    r_rules_seed = 43;
    r_crashes = [ (0.4, Host.C_ip); (2.4, Host.C_pf); (3.0, Host.C_pf) ];
    r_duration = 4.5;
    r_warmup = 0.2;
  }

let install_checkers () =
  V.Protocol.install ();
  V.Sanitizer.install ();
  V.Tcpfsm.install ();
  V.Tcpfsm.reset ()

let uninstall_checkers () =
  V.Tcpfsm.uninstall ();
  V.Sanitizer.uninstall ();
  V.Protocol.uninstall ();
  V.Tcpfsm.reset ();
  V.Sanitizer.reset ();
  V.Protocol.reset ()

let kind_name = function
  | Host.C_ip -> "ip"
  | Host.C_pf -> "pf"
  | Host.C_tcp -> "tcp"
  | Host.C_udp -> "udp"
  | Host.C_drv _ -> "drv"

let recovery_gap_threshold_mbps = 800.0

(* Mirrors [Experiments.crash_run], generalised to crashes of several
   components; the canned Figure 4/5 runs are its one-component cases.
   The continuous, protocol, TCP-FSM and sanitizer checkers are
   installed before wiring, so the sanitizer sees the pools' owners,
   and removed by [teardown]. *)
let recovery p =
  install_checkers ();
  let rule_list =
    if p.r_rules <= 2 then [ Rule.pass_all ]
    else Pf_engine.generate_ruleset (Rng.create p.r_rules_seed) ~n:p.r_rules ~protect_port:5001
  in
  let config = { Host.default_config with Host.pf_rules = rule_list } in
  let h = Host.create ~config () in
  let verify = Continuous.create () in
  Host.on_reincarnated h (fun comp ->
      Continuous.recheck verify (fun () ->
          Static.check ~directory:(Host.directory h)
            ~title:
              (Printf.sprintf "crash run: after %s restart %d" (Component.name comp)
                 (Component.incarnation comp))
            (Host.components h)));
  let sink = Host.sink h 0 in
  let series = Series.create ~bin_width:(sec 0.1) in
  let received_warm = ref 0 in
  Sink.sink_tcp sink ~port:5001 ~on_bytes:(fun ~at n -> Series.add series at n);
  let iperf =
    Apps.Iperf.start (Host.machine h) ~sc:(Host.sc h) ~app:(Host.app h) ~dst:(Host.sink_addr h 0)
      ~port:5001
      ~until:(sec (p.r_duration -. 1.0))
      ()
  in
  List.iter
    (fun (at, comp) -> Host.at h (sec at) (inject (fun () -> Host.kill_component h comp)))
    p.r_crashes;
  let warm_until = sec p.r_warmup in
  Host.at h warm_until (fun () -> received_warm := Sink.tcp_bytes_received sink);
  let tail = sec (p.r_duration +. 1.0) in
  let slices = slice_ends ~from:warm_until ~until:tail ~n:48 @ [ sec (p.r_duration +. 1.5) ] in
  let end_run_done = ref false in
  let end_run () =
    Continuous.end_run ~check_leaks:true verify;
    end_run_done := true
  in
  let kinds = List.sort_uniq compare (List.map snd p.r_crashes) in
  let outcome () =
    let received = Sink.tcp_bytes_received sink in
    let sent = Apps.Iperf.bytes_sent iperf in
    let sink_stats = Tcp.stats (Sink.tcp sink) in
    let sender_stats = Tcp.stats (Tcp_srv.engine (Host.tcp_srv h)) in
    let points = Series.mbps series ~upto:(sec p.r_duration) () in
    let trace =
      {
        Experiments.points;
        duplicate_segments = sink_stats.Tcp.dup_segs_in;
        sender_retransmits = sender_stats.Tcp.retransmits;
        lost_segments = (max 0 (sent - received) + 1459) / 1460;
        component_restarts =
          (match kinds with [ k ] -> Host.restarts_of h k | _ -> 0);
      }
    in
    let gaps =
      List.map
        (fun (at, comp) ->
          ( kind_name comp,
            Experiments.recovery_gap ~threshold_mbps:recovery_gap_threshold_mbps ~crash_at:at
              trace ))
        p.r_crashes
    in
    let outage = List.fold_left (fun acc (_, g) -> acc +. g) 0.0 gaps in
    let gap_of k = List.fold_left (fun acc (n, g) -> if n = k then acc +. g else acc) 0.0 gaps in
    let restarts k = Host.restarts_of h k in
    let restart_mismatch =
      List.fold_left
        (fun acc k ->
          let crashes = List.length (List.filter (fun (_, c) -> c = k) p.r_crashes) in
          acc + abs (restarts k - crashes))
        0
        [ Host.C_ip; Host.C_pf; Host.C_tcp; Host.C_udp ]
    in
    let c = Continuous.totals verify in
    let violations =
      c.Continuous.static_violations + c.Continuous.sanitizer_violations
      + c.Continuous.protocol_violations + c.Continuous.tcpfsm_violations
    in
    let unrecovered = List.length (List.filter (fun (_, g) -> g = infinity) gaps) in
    let window = p.r_duration -. 1.0 -. p.r_warmup in
    let goodput = float_of_int (received - !received_warm) *. 8.0 /. window /. 1e9 in
    {
      goodput_gbps = goodput;
      counts =
        all_counts
        [
          ("model.outage_s", outage);
          ("net.retransmits", float_of_int trace.sender_retransmits);
          ("net.duplicates", float_of_int trace.duplicate_segments);
          ("nic.link_dropped", float_of_int (Link.dropped (Host.link h 0)));
          ("pf.conntrack_entries",
            float_of_int
              (Newt_pf.Conntrack.size (Pf_engine.conntrack (Newt_stack.Pf_srv.engine_of (Host.pf_srv h)))));
          ("reliability.restarts.ip", float_of_int (restarts Host.C_ip));
          ("reliability.restarts.pf", float_of_int (restarts Host.C_pf));
          ("reliability.restarts.tcp", float_of_int (restarts Host.C_tcp));
          ("reliability.gap_s.ip", gap_of "ip");
          ("reliability.gap_s.pf", gap_of "pf");
          ("verify.violations", float_of_int (violations + c.Continuous.leaks));
        ];
      connections = 0;
      hook_events =
        c.Continuous.hook_events + c.Continuous.protocol_events + c.Continuous.tcpfsm_segments
        + c.Continuous.tcpfsm_transitions;
      attempted = max 1 ((sent + 1459) / 1460);
      failures =
        [
          ("lost_segments", trace.lost_segments);
          ("checker_violations", violations);
          ("leaks", c.Continuous.leaks);
          ("restart_mismatch", restart_mismatch);
          ("unrecovered_crashes", unrecovered);
          ("end_run_missing", if !end_run_done then 0 else 1);
        ];
      crash_trace = Some trace;
      fingerprint =
        String.concat " "
          ([
             Printf.sprintf "dups=%d retrans=%d lost=%d restarts=%d sent=%d received=%d"
               trace.duplicate_segments trace.sender_retransmits trace.lost_segments
               trace.component_restarts sent received;
             Printf.sprintf "violations=%d leaks=%d hooks=%d" violations c.Continuous.leaks
               c.Continuous.hook_events;
           ]
          @ List.map (fun (k, g) -> k ^ "=" ^ hex g) gaps
          @ Array.to_list (Array.map (fun (t, m) -> hex t ^ ":" ^ hex m) points));
    }
  in
  {
    engine = Host.engine h;
    links = [ Host.link h 0 ];
    components = (fun () -> Host.components h);
    warm_until;
    slices;
    end_run;
    outcome;
    teardown = uninstall_checkers;
  }

(* A canned crash trace printed the way [recovery]'s fingerprint prints
   its trace fields, for the cross-check. *)
let crash_trace_fingerprint (t : Experiments.crash_trace) =
  String.concat " "
    (Printf.sprintf "dups=%d retrans=%d lost=%d restarts=%d" t.duplicate_segments
       t.sender_retransmits t.lost_segments t.component_restarts
    :: Array.to_list (Array.map (fun (time, m) -> hex time ^ ":" ^ hex m) t.points))

(* {1 Seeded inputs}

   The benchmark's seed picks the inputs the program receives: the
   flows' ports (and so their RSS hashes), the bulk flows' start
   offsets, where the flood's source pattern starts, and the 1022
   random block rules of the recovery filter. The stack's own seed (its
   RSS key and random streams) is configuration and stays at the
   canned 42: drawn from the benchmark seed, some RSS keys skew the
   flood across the PF partitions, and churn's evictions ranged from
   3.2k to 9.8k between seeds. The crash times stay fixed too: moving a
   crash by up to 20 ms moved recovery's major-heap words per frame by
   up to 7% from seed to seed. *)

let ports rng n =
  let rec pick acc =
    if List.length acc = n then Array.of_list (List.rev acc)
    else
      let p = 5001 + Rng.int rng 55000 in
      if List.mem p acc then pick acc else pick (p :: acc)
  in
  pick []

let seeded_bulk seed =
  let rng = Rng.create seed in
  let b_ports = ports rng 8 in
  (* Flows start up to 50 us apart, so slow starts overlap differently. *)
  let b_starts = Array.init 8 (fun _ -> Rng.float rng 50e-6) in
  { bulk_default with b_ports; b_starts }

let seeded_churn seed =
  let rng = Rng.create seed in
  let echo = (ports rng 1).(0) in
  { churn_default with c_echo_port = echo; c_flood_offset = Rng.int rng 100_000 }

let seeded_recovery seed = { recovery_default with r_rules_seed = seed }
