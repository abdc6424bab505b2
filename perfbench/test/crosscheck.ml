(* The benchmark measures the same program the canned entry points run:
   for the same arguments and seed, each benchmark-built world must
   reproduce its canned counterpart's simulated outputs bit for bit.

   - bulk vs [Experiments.scaling_curve] at 8x4x2, 8 flows, 0.2 s: the
     17.118 Gbps headline;
   - churn vs [Churn.run ~scenario:Syn_flood], with the benchmark's own
     arguments (no bulk flow, 1.1 s, 16384 conntrack entries) and with
     the canned defaults (four bulk flows, 8192 entries) over 0.3 s;
   - recovery vs [Experiments.figure_ip_crash] (Figure 4, defaults) and
     [Experiments.figure_pf_crash] (Figure 5, 1024 rules, crashes at 3 s
     and 6 s of 9 s), both with the checkers armed as the benchmark arms
     them.

   Exits 1 on any mismatch. *)

open Perfbench
module E = Newt_core.Experiments
module Churn = Newt_core.Churn
module Host = Newt_core.Host
module Engine = Newt_sim.Engine
module Continuous = Newt_verify.Continuous

let failures = ref 0

let check name ~canned ~bench =
  if canned = bench then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n  canned: %s\n  bench:  %s\n%!" name canned bench
  end

let run (w : Worlds.t) =
  Engine.run ~until:w.Worlds.warm_until w.Worlds.engine;
  List.iter (fun until -> Engine.run ~until w.Worlds.engine) w.Worlds.slices;
  w.Worlds.end_run ();
  let o = w.Worlds.outcome () in
  w.Worlds.teardown ();
  o

let field key fp =
  (* The space-separated [key=value] item of a fingerprint. *)
  List.find_opt (fun s -> String.starts_with ~prefix:(key ^ "=") s) (String.split_on_char ' ' fp)
  |> Option.value ~default:"<missing>"

let bulk () =
  let r =
    E.scaling_curve ~shard_counts:[ 8 ] ~ip_replicas:4 ~pf_shards:2 ~flows:8 ~duration:0.2 ()
  in
  let p = List.hd r.E.points in
  let o =
    run
      (Worlds.bulk
         { Worlds.bulk_default with Worlds.b_warmup = 0.0; b_window = 0.2 })
  in
  check "bulk goodput = scaling 8x4x2"
    ~canned:(Printf.sprintf "%h" p.E.goodput_gbps)
    ~bench:(Printf.sprintf "%h" o.Worlds.goodput_gbps);
  check "bulk goodput reads 17.118 Gbps" ~canned:"17.118"
    ~bench:(Printf.sprintf "%.3f" o.Worlds.goodput_gbps);
  check "bulk imbalance" ~canned:(Printf.sprintf "imbalance=%h" p.E.imbalance)
    ~bench:(field "imbalance" o.Worlds.fingerprint);
  check "bulk steering violations" ~canned:(string_of_int p.E.violations)
    ~bench:(string_of_int (int_of_float (List.assoc "scale.steering_violations" o.Worlds.counts)));
  Array.iter
    (fun (s : Newt_scale.Sharded_stack.shard_stats) ->
      let key = Printf.sprintf "shard%d" s.shard in
      check ("bulk " ^ key)
        ~canned:(Printf.sprintf "%s=%d/%d/%d" key s.flows s.segs_out s.bytes_out)
        ~bench:(field key o.Worlds.fingerprint))
    p.E.per_shard

let churn ~duration ~bulk_flows ~conntrack_total =
  let r = Churn.run ~scenario:Churn.Syn_flood ~duration ~bulk_flows ~conntrack_total () in
  let o =
    run
      (Worlds.churn
         {
           Worlds.churn_default with
           Worlds.c_duration = duration;
           c_bulk_flows = bulk_flows;
           c_conntrack_total = conntrack_total;
         })
  in
  let canned = Worlds.churn_result_fingerprint r in
  List.iter
    (fun key ->
      check
        (Printf.sprintf "churn %gs/%d bulk: %s" duration bulk_flows key)
        ~canned:(field key canned) ~bench:(field key o.Worlds.fingerprint))
    [
      "started"; "completed"; "errors"; "shed"; "connect"; "request"; "flood"; "entries";
      "half_open"; "ev_half"; "ev_est"; "bulk"; "overflows"; "steering"; "checksum";
    ]

(* The checkers the benchmark arms, around a canned run. *)
let armed f =
  Worlds.install_checkers ();
  let v = Continuous.create () in
  Fun.protect ~finally:Worlds.uninstall_checkers (fun () -> f v)

let recovery name ~canned ~rules ~crashes ~duration =
  let t = armed (fun v -> canned (Some v)) in
  let o =
    run
      (Worlds.recovery
         {
           Worlds.recovery_default with
           Worlds.r_rules = rules;
           r_crashes = crashes;
           r_duration = duration;
           r_warmup = 0.0;
         })
  in
  check (name ^ " crash trace")
    ~canned:(Worlds.crash_trace_fingerprint t)
    ~bench:(Worlds.crash_trace_fingerprint (Option.get o.Worlds.crash_trace))

let cases =
  [
    ("bulk", bulk);
    ( "churn",
      fun () ->
        churn ~duration:1.1 ~bulk_flows:0
          ~conntrack_total:Worlds.churn_default.Worlds.c_conntrack_total );
    ("churn-bulk", fun () -> churn ~duration:0.3 ~bulk_flows:4 ~conntrack_total:8192);
    ( "fig4",
      fun () ->
        recovery "fig4"
          ~canned:(fun verify -> E.figure_ip_crash ?verify ())
          ~rules:0 ~crashes:[ (4.0, Host.C_ip) ] ~duration:10.0 );
    ( "fig5",
      fun () ->
        recovery "fig5"
          ~canned:(fun verify -> E.figure_pf_crash ~crash_at:[ 3.0; 6.0 ] ~duration:9.0 ?verify ())
          ~rules:1024
          ~crashes:[ (3.0, Host.C_pf); (6.0, Host.C_pf) ]
          ~duration:9.0 );
  ]

(* Each case runs in its own child process, so no two worlds share a
   heap; the child's exit code is its mismatch count. *)
let () =
  let names = List.tl (Array.to_list Sys.argv) in
  let selected = if names = [] then cases else List.filter (fun (n, _) -> List.mem n names) cases in
  let bad =
    List.fold_left
      (fun bad (name, f) ->
        match Unix.fork () with
        | 0 ->
            f ();
            exit (min !failures 100)
        | pid -> (
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> bad
            | _, Unix.WEXITED n -> bad + n
            | _ ->
                Printf.printf "FAIL %s: process killed\n%!" name;
                bad + 1))
      0 selected
  in
  if bad > 0 then begin
    Printf.printf "crosscheck: %d mismatch(es)\n" bad;
    exit 1
  end
  else print_endline "crosscheck: PASS"
