(* The benchmark executable: one workload per process.

     main.exe --workload bulk|churn|recovery --seed N --seconds S --trace 0|1
              [--spans FILE]

   A run builds the workload's world afresh for each repetition (timed
   as set-up), runs its fixed simulated window in slices (timed), checks
   the outputs, and repeats until [--seconds] of wall time are spent.
   Times are CPU seconds scaled by a host-speed probe run between the
   slices ([Measure.scaled]), and timed metrics are medians over
   repetitions; every simulated metric and allocation count must be
   bit-identical across them, and a difference is counted as a failure.
   The last line of output is the JSON result. With [--trace 1] the run
   records spans, counts the engine's events, replays captured frames
   through each layer and reports the per-layer metrics instead. *)

open Perfbench
module Engine = Newt_sim.Engine
module Time = Newt_sim.Time
module Cpu = Newt_hw.Cpu
module Machine = Newt_hw.Machine
module Component = Newt_stack.Component
module Sim_chan = Newt_channels.Sim_chan

let build workload seed =
  match workload with
  | "bulk" -> Worlds.bulk (Worlds.seeded_bulk seed)
  | "churn" -> Worlds.churn (Worlds.seeded_churn seed)
  | "recovery" -> Worlds.recovery (Worlds.seeded_recovery seed)
  | w -> invalid_arg ("unknown workload " ^ w)

(* {1 Layer readouts} *)

(* A component's layer: its name without the replica index. *)
let kind c =
  let n = Component.name c in
  let i = ref (String.length n) in
  while !i > 0 && n.[!i - 1] >= '0' && n.[!i - 1] <= '9' do
    decr i
  done;
  match String.sub n 0 !i with "mqdrv" | "drv" -> "drv" | k -> k

let kinds = [ "drv"; "ip"; "pf"; "tcp"; "sc" ]

let cores (w : Worlds.t) =
  match w.Worlds.components () with
  | c :: _ -> Machine.cores (Component.machine c)
  | [] -> []

let busy_snapshot w = List.map (fun c -> (Cpu.id c, Cpu.busy_cycles c)) (cores w)

let channels_of comps =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun c ->
      List.filter_map
        (fun ch ->
          if Hashtbl.mem seen (Sim_chan.id ch) then None
          else begin
            Hashtbl.add seen (Sim_chan.id ch) ();
            Some (c, ch)
          end)
        (Component.consumed c))
    comps

let chan_snapshot w =
  List.map
    (fun (_, ch) -> (Sim_chan.id ch, (Sim_chan.sent_total ch, Sim_chan.dropped_total ch)))
    (channels_of (w.Worlds.components ()))

(* The component counters (messages received and sent, by type) the
   per-layer table reports, per layer. *)
let stack_counters =
  [
    ("sc", "tx.sock_req");
    ("tcp", "rx.sock_req");
    ("tcp", "tx.tx_ip");
    ("tcp", "rx.rx_deliver");
    ("ip", "rx.rx_frame");
    ("ip", "tx.drv_tx");
    ("ip", "tx.filter_req");
    ("pf", "rx.filter_req");
  ]

let layer_counts w ~busy0 ~chan0 ~frames =
  let comps = w.Worlds.components () in
  let per_frame x = if frames = 0 then 0.0 else float_of_int x /. float_of_int frames in
  let busy1 = busy_snapshot w in
  let cycles k =
    let ids =
      List.sort_uniq compare
        (List.filter_map (fun c -> if kind c = k then Some (Cpu.id (Component.core c)) else None) comps)
    in
    List.fold_left
      (fun acc id ->
        let b0 = Option.value (List.assoc_opt id busy0) ~default:0 in
        let b1 = Option.value (List.assoc_opt id busy1) ~default:0 in
        acc + (b1 - b0))
      0 ids
  in
  let chans = channels_of comps in
  let sent = ref 0 and dropped = ref 0 in
  List.iter
    (fun (_, ch) ->
      let s0, d0 = Option.value (List.assoc_opt (Sim_chan.id ch) chan0) ~default:(0, 0) in
      sent := !sent + Sim_chan.sent_total ch - s0;
      dropped := !dropped + Sim_chan.dropped_total ch - d0)
    chans;
  let occupancy k =
    List.fold_left
      (fun acc (c, ch) -> if kind c = k then max acc (Sim_chan.max_occupancy ch) else acc)
      0 chans
  in
  let counter (k, name) =
    List.fold_left (fun acc c -> if kind c = k then acc + Component.lifetime c name else acc) 0 comps
  in
  List.map (fun k -> ("hw.cycles_per_frame." ^ k, per_frame (cycles k))) kinds
  @ [
      ("channels.msgs_per_frame", per_frame !sent);
      ("channels.dropped", float_of_int !dropped);
    ]
  @ List.map (fun k -> ("channels.max_occupancy." ^ k, float_of_int (occupancy k))) kinds
  @ List.map
      (fun (k, n) -> (Printf.sprintf "stack.%s.%s" k n, float_of_int (counter (k, n))))
      stack_counters

(* {1 One repetition} *)

type rep = {
  setup_s : float;
  run_s : float;
  setup_cpu : float;  (* CPU seconds *)
  run_cpu : float;
  setup_ref : float;  (* CPU seconds scaled to the reference host *)
  run_ref : float;
  probe_s : float;  (* the probe's median CPU seconds *)
  frames : int;
  alloc : float;
  major : float;
  peak_rss_mb : float;
  outcome : Worlds.outcome;
  layers : (string * float) list;  (* traced repetitions only *)
  self_times : (string * float) list;  (* traced: span self seconds by family *)
  spans_json : string;
}

(* Advance the world to [until]. Traced, the benchmark steps the engine
   itself to count events: a sentinel at [until] fires after every
   event due before it, and [Engine.run] then flushes the events due at
   [until] exactly, so the simulation is the same as untraced. *)
let advance ~traced (w : Worlds.t) events until =
  if traced then begin
    let reached = ref false in
    ignore (Engine.schedule_at w.Worlds.engine until (fun () -> reached := true));
    while (not !reached) && Engine.step w.Worlds.engine do
      incr events
    done;
    decr events
  end;
  Engine.run ~until w.Worlds.engine

let setup workload seed =
  Gc.compact ();
  let t0 = Measure.now () and c0 = Measure.cpu () in
  let w =
    Span.with_ "setup" (fun () ->
        let w = build workload seed in
        Engine.run ~until:w.Worlds.warm_until w.Worlds.engine;
        w)
  in
  (w, Measure.now () -. t0, Measure.cpu () -. c0)

let one_rep ~traced ~seed workload =
  Span.enabled := traced;
  let probe0 = Measure.probe () in
  let w, setup_s, setup_cpu = setup workload seed in
  Span.frames := (fun () -> Worlds.frames w);
  let capture = if traced then Some (Replay.capture w.Worlds.links) else None in
  let busy0 = busy_snapshot w and chan0 = chan_snapshot w in
  let events = ref 0 and depths = ref [] and slice_cpu = ref [] in
  let probes = ref [ Measure.probe (); probe0 ] in
  let g0 = Measure.gc () in
  let f0 = Worlds.frames w in
  let t0 = Measure.now () in
  List.iteri
    (fun i until ->
      let c0 = Measure.cpu () in
      Span.with_ (Printf.sprintf "run.%d" i) (fun () -> advance ~traced w events until);
      slice_cpu := (Measure.cpu () -. c0) :: !slice_cpu;
      probes := Measure.probe () :: !probes;
      depths := float_of_int (Engine.pending w.Worlds.engine) :: !depths)
    w.Worlds.slices;
  let e0 = Measure.now () and ec0 = Measure.cpu () in
  Span.with_ "end_run" w.Worlds.end_run;
  let t1 = Measure.now () in
  slice_cpu := (Measure.cpu () -. ec0) :: !slice_cpu;
  probes := Measure.probe () :: !probes;
  let g1 = Measure.gc () in
  let frames = Worlds.frames w - f0 in
  let outcome = w.Worlds.outcome () in
  let layers =
    if not traced then []
    else begin
      let depth = int_of_float (Measure.median !depths) in
      let per_frame x = if frames = 0 then 0.0 else x /. float_of_int frames in
      [
        ("sim.events_per_frame", per_frame (float_of_int !events));
        ("sim.pending_depth", float_of_int depth);
        ("verify.hook_events_per_frame", per_frame (float_of_int outcome.Worlds.hook_events));
        ("verify.end_run_s", t1 -. e0);
      ]
      @ layer_counts w ~busy0 ~chan0 ~frames
      @ Replay.run ~seed ~pending_depth:depth (Option.get capture)
    end
  in
  w.Worlds.teardown ();
  Span.enabled := false;
  (* Set-up, each slice and the end of run each lie between two probes,
     and are scaled by their mean. *)
  let probes = Array.of_list (List.rev !probes) in
  let between i cpu = Measure.scaled ~probe_s:((probes.(i) +. probes.(i + 1)) /. 2.0) cpu in
  let slice_cpu = List.rev !slice_cpu in
  {
    setup_s;
    run_s = t1 -. t0;
    setup_cpu;
    run_cpu = List.fold_left ( +. ) 0.0 slice_cpu;
    setup_ref = between 0 setup_cpu;
    run_ref = List.fold_left ( +. ) 0.0 (List.mapi (fun i c -> between (i + 1) c) slice_cpu);
    probe_s = Measure.median (Array.to_list probes);
    frames;
    alloc = Measure.alloc_words g0 g1;
    major = Measure.major_words g0 g1;
    peak_rss_mb = Measure.peak_rss_mb ();
    outcome;
    layers;
    self_times = Span.self_times ();
    spans_json = (if traced then Span.to_json () else "");
  }

(* Run [f] in a child forked from this still-small process and return
   its marshalled result, so every repetition starts from the same
   process state (its allocation counts then repeat exactly) and its
   peak resident memory is its own. *)
let forked f =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      (match f () with
      | v ->
          Marshal.to_channel oc (Ok v) [];
          close_out oc;
          Unix._exit 0
      | exception e ->
          Marshal.to_channel oc (Error (Printexc.to_string e)) [];
          close_out oc;
          Unix._exit 3)
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let res = try Some (Marshal.from_channel ic) with End_of_file -> None in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      match (res, status) with
      | Some (Ok v), Unix.WEXITED 0 -> v
      | Some (Error e), _ -> failwith ("repetition failed: " ^ e)
      | _ -> failwith "repetition process died")

(* {1 Output} *)

let finite x = if Float.is_finite x then x else -1.0

(* The result line carries values only: run.py attaches each metric's
   unit from BENCHMARK.json, and checks the names against it. *)
let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed
    (String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%S:%.17g" n (finite v)) metrics))

(* {1 The committed model fingerprints}

   perfbench/golden.txt holds, per workload and seed, the digest of the
   simulated outputs ([Worlds.outcome.fingerprint]) the stack produced
   when it was written. A run whose seed is listed must reproduce it:
   a simulator-speed change must leave the modelled numbers
   bit-identical, so a difference is a failure. Regenerate the file
   (run.py --write-golden) only with a change meant to alter the model. *)

let golden_entry file workload seed =
  if file = "" then None
  else
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ w; s; digest ] when w = workload && s = string_of_int seed -> Some digest
           | _ -> None)

(* What must repeat exactly across repetitions. Major-heap words are
   left out: promotion follows the major GC's pacing, which depends on
   the forking parent's heap, and that grows as results come back. They
   repeat exactly for the first repetition of a fresh process, the one
   reported, which the self-test compares across processes. *)
let fingerprint r =
  Printf.sprintf "%s alloc=%h frames=%d" r.outcome.Worlds.fingerprint r.alloc r.frames

(* Frames per scaled CPU second of the timed run. *)
let fps r = float_of_int r.frames /. r.run_ref

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spans = ref "" and golden = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "bulk|churn|recovery");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "wall seconds to measure");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--spans", Arg.Set_string spans, "write the traced run's spans here");
      ("--golden", Arg.Set_string golden, "the committed model fingerprints to check against");
    ]
    (fun a -> raise (Arg.Bad a))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let workload = !workload and seed = !seed in
  let start = Measure.now () in
  let deadline = start +. !seconds in
  let untraced_reps () =
    (* At least two repetitions, so determinism is always checked. *)
    let rec loop acc =
      let r = forked (fun () -> one_rep ~traced:false ~seed workload) in
      let acc = r :: acc in
      let spent = r.setup_s +. r.run_s in
      if List.length acc < 2 || Measure.now () +. spent <= deadline then loop acc else List.rev acc
    in
    loop []
  in
  let reps =
    if !trace = 1 then [ forked (fun () -> one_rep ~traced:false ~seed workload) ]
    else untraced_reps ()
  in
  let traced =
    if !trace = 1 then Some (forked (fun () -> one_rep ~traced:true ~seed workload)) else None
  in
  (* Set-up is timed at least three times. *)
  let extra_setups =
    List.init
      (if traced = None then max 0 (3 - List.length reps) else 0)
      (fun _ ->
        forked (fun () ->
            let p0 = Measure.probe () in
            let w, _, cpu = setup workload seed in
            w.Worlds.teardown ();
            let p1 = Measure.probe () in
            Measure.scaled ~probe_s:((p0 +. p1) /. 2.0) cpu))
  in
  let first = List.hd reps in
  let mismatches =
    List.length (List.filter (fun r -> fingerprint r <> fingerprint first) reps)
    + (match traced with
      | Some t when t.outcome.Worlds.fingerprint <> first.outcome.Worlds.fingerprint -> 1
      | _ -> 0)
  in
  if mismatches > 0 then
    List.iteri (fun i r -> Printf.printf "rep %d fingerprint: %s\n" i (fingerprint r)) reps;
  (* The first repetition's deterministic outputs, which another
     process given the same arguments must print identically. *)
  Printf.printf "deterministic %s major=%h%s\n" (fingerprint first) first.major
    (match traced with
    | Some t -> Printf.sprintf " events_per_frame=%h" (List.assoc "sim.events_per_frame" t.layers)
    | None -> "");
  List.iteri
    (fun i r ->
      Printf.printf
        "rep %d: setup %.3f s (%.3f s CPU), run %.3f s (%.3f s CPU), probe %.4f s, %.0f frames \
         per reference s, peak %.0f MiB\n"
        i r.setup_s r.setup_cpu r.run_s r.run_cpu r.probe_s (fps r) r.peak_rss_mb)
    reps;
  let o = first.outcome in
  let model = Digest.to_hex (Digest.string o.Worlds.fingerprint) in
  Printf.printf "model_fingerprint %s\n" model;
  let model_changed =
    match golden_entry !golden workload seed with
    | None ->
        Printf.printf "golden   seed %d: no committed fingerprint, not checked\n" seed;
        0
    | Some d when d = model -> Printf.printf "golden   seed %d: matches\n" seed; 0
    | Some d ->
        Printf.printf "golden   seed %d: MISMATCH, committed %s\n  now: %s\n" seed d
          o.Worlds.fingerprint;
        1
  in
  let failures = List.fold_left (fun acc (_, n) -> acc + n) 0 o.Worlds.failures in
  let failed = failures + mismatches + model_changed in
  let attempted = o.Worlds.attempted in
  Printf.printf "workload %s seed %d: %d repetition(s)%s\n" workload seed (List.length reps)
    (if traced <> None then " + 1 traced" else "");
  List.iter (fun (n, v) -> Printf.printf "failures %-28s %d\n" n v) o.Worlds.failures;
  Printf.printf "failures %-28s %d\n" "nondeterministic_repetitions" mismatches;
  Printf.printf "failures %-28s %d\n" "model_changed" model_changed;
  Printf.printf "model    %-28s %.6g\n" "failed_ratio"
    (float_of_int failed /. float_of_int (max 1 attempted));
  List.iter
    (fun (n, v) ->
      if String.starts_with ~prefix:"model." n then Printf.printf "model    %-28s %.6g\n" n v)
    o.Worlds.counts;
  let med f = Measure.median (List.map f reps) in
  let per_frame x = x /. float_of_int (max 1 first.frames) in
  let metrics =
    match traced with
    | None ->
        [
          ("setup_s", Measure.median (List.map (fun r -> r.setup_ref) reps @ extra_setups));
          ("frames_per_ref_s", med fps);
          ("alloc_words_per_frame", per_frame first.alloc);
          ("major_words_per_frame", per_frame first.major);
          ("peak_rss_mb", med (fun r -> r.peak_rss_mb));
          ("goodput_gbps", o.Worlds.goodput_gbps);
        ]
    | Some t ->
        let self = t.self_times in
        let span n = Option.value (List.assoc_opt n self) ~default:0.0 in
        let traced_fps = fps t in
        if !spans <> "" then Out_channel.with_open_text !spans (fun oc -> output_string oc t.spans_json);
        List.iter (fun (n, v) -> Printf.printf "span     %-28s %.6f s self\n" n v) self;
        t.layers @ o.Worlds.counts
        @ [
            ( "stack.words_per_connection",
              if o.Worlds.connections > 0 then first.alloc /. float_of_int o.Worlds.connections
              else 0.0 );
            ( "hw.capacity_gbps",
              (Newt_stack.Capacity.evaluate Newt_stack.Capacity.Split_dedicated_sc)
                .Newt_stack.Capacity.goodput_gbps );
            ("span.setup.self_s", span "setup");
            ("span.run.self_s", span "run");
            ("span.inject.self_s", span "inject");
            ("span.end_run.self_s", span "end_run");
            ( "span.replay.self_s",
              List.fold_left
                (fun acc (n, v) -> if String.starts_with ~prefix:"replay" n then acc +. v else acc)
                0.0 self );
            ("trace.frames_per_ref_s_untraced", fps first);
            ("trace.frames_per_ref_s_traced", traced_fps);
            ("trace.overhead_frames_per_ref_s", traced_fps -. fps first);
          ]
  in
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  exit 0
