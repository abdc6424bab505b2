(* Per-layer replays for the traced run: frames captured from the
   workload's own wire (a bounded [Link.tap] sample after warm-up) are
   pushed through each layer's public functions, one timed batch per
   layer, each batch a "replay.<layer>" span. Every batch does a fixed
   amount of work, so its allocated words are deterministic; its time
   is wall-clock. *)

module Time = Newt_sim.Time
module Rng = Newt_sim.Rng
module Eventq = Newt_sim.Eventq
module Link = Newt_nic.Link
module Offload = Newt_nic.Offload
module Addr = Newt_net.Addr
module Ethernet = Newt_net.Ethernet
module Ipv4 = Newt_net.Ipv4
module Tcp_wire = Newt_net.Tcp_wire
module Checksum = Newt_net.Checksum
module Rule = Newt_pf.Rule
module Pf_engine = Newt_pf.Pf_engine
module Pool = Newt_channels.Pool
module Request_db = Newt_channels.Request_db

(* {1 Capture} *)

type capture = { mutable frames : (Link.side * Bytes.t) list; mutable n : int; limit : int }

let capture ?(limit = 4096) links =
  let c = { frames = []; n = 0; limit } in
  List.iter
    (fun l ->
      Link.tap l (fun ~at:_ ~dir b ->
          if c.n < c.limit then begin
            c.frames <- (dir, Bytes.copy b) :: c.frames;
            c.n <- c.n + 1
          end))
    links;
  c

let frames c = List.rev c.frames

(* {1 Timing} *)

(* Run [f] [passes] times inside a "replay.<name>" span; return seconds
   and allocated words per item, [items] being the work of one pass. *)
let batch name ~passes ~items f =
  Span.with_ ("replay." ^ name) (fun () ->
      let g0 = Measure.gc () in
      let t0 = Measure.now () in
      for _ = 1 to passes do
        f ()
      done;
      let t1 = Measure.now () in
      let g1 = Measure.gc () in
      let n = float_of_int (passes * max 1 items) in
      ((t1 -. t0) /. n, Measure.alloc_words g0 g1 /. n))

let ns s = s *. 1e9

(* About [target] items of work per batch. *)
let passes_for ~target items = max 1 (target / max 1 items)

(* {1 Decoding the capture} *)

type seg = {
  side : Link.side;
  eth : Ethernet.header;
  ip : Ipv4.header;
  tcp : Tcp_wire.header;
  payload : Bytes.t;
}

let decode_frame b =
  match Ethernet.payload b with
  | None -> None
  | Some ip -> (
      match Ipv4.payload ip with
      | Some (h, seg) when h.Ipv4.protocol = Ipv4.Tcp -> (
          match Tcp_wire.decode ~src:h.Ipv4.src ~dst:h.Ipv4.dst seg with
          | Some (th, payload) -> Some (h, th, payload)
          | None -> None)
      | _ -> None)

let segments frames =
  List.filter_map
    (fun (side, b) ->
      match (Ethernet.decode_header b ~off:0, decode_frame b) with
      | Some eth, Some (ip, tcp, payload) -> Some { side; eth; ip; tcp; payload }
      | _ -> None)
    frames

(* An oversized TSO input per distinct flow: the flow's first captured
   header with a 64 KiB payload, as a transport would hand the NIC. *)
let tso_inputs segs =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun s ->
      let key = (s.ip.Ipv4.src, s.tcp.Tcp_wire.src_port, s.ip.Ipv4.dst, s.tcp.Tcp_wire.dst_port) in
      if Hashtbl.mem seen key || Hashtbl.length seen >= 16 then None
      else begin
        Hashtbl.add seen key ();
        let payload = Bytes.init 65000 (fun i -> Char.chr (i land 0xff)) in
        let tcp = { s.tcp with Tcp_wire.mss = None; wscale = None } in
        let seg = Tcp_wire.encode ~src:s.ip.Ipv4.src ~dst:s.ip.Ipv4.dst tcp ~payload in
        let ip = Ipv4.packet { s.ip with Ipv4.total_len = 0 } ~payload:seg in
        Some (Ethernet.frame s.eth ~payload:ip)
      end)
    segs

(* {1 Packet filter inputs} *)

let packets frames =
  List.filter_map
    (fun (side, b) ->
      match Ethernet.payload b with
      | None -> None
      | Some ip ->
          Pf_engine.classify ~dir:(if side = Link.Left then `Out else `In) ip)
    frames

(* Spoofed SYNs towards the host, one fresh flow each. *)
let flood_packets ~seed n =
  let rng = Rng.create seed in
  List.init n (fun i ->
      {
        Rule.dir = `In;
        proto = `Tcp;
        src_ip = Addr.Ipv4.v 198 18 (Rng.int rng 2) (1 + Rng.int rng 250);
        dst_ip = Addr.Ipv4.v 10 0 0 1;
        src_port = 1024 + (i mod 60000);
        dst_port = 9;
      })

(* {1 The replays} *)

let run ~seed ~pending_depth capture =
  let frames = frames capture in
  let nframes = List.length frames in
  let segs = segments frames in
  let nsegs = List.length segs in
  let target = 40_000 in
  let out = ref [] in
  let put k v = out := (k, v) :: !out in
  (* net: Ethernet -> IPv4 -> TCP decode, TCP encode, checksums. *)
  let t, w =
    batch "net.decode" ~passes:(passes_for ~target nframes) ~items:nframes (fun () ->
        List.iter (fun (_, b) -> ignore (Sys.opaque_identity (decode_frame b))) frames)
  in
  put "net.decode_ns_per_frame" (ns t);
  put "net.decode_words_per_frame" w;
  let t, w =
    batch "net.encode" ~passes:(passes_for ~target nsegs) ~items:nsegs (fun () ->
        List.iter
          (fun s ->
            ignore
              (Sys.opaque_identity
                 (Tcp_wire.encode ~src:s.ip.Ipv4.src ~dst:s.ip.Ipv4.dst s.tcp ~payload:s.payload)))
          segs)
  in
  put "net.encode_ns_per_seg" (ns t);
  put "net.encode_words_per_seg" w;
  let bytes = List.fold_left (fun acc (_, b) -> acc + Bytes.length b) 0 frames in
  let t, _ =
    batch "net.checksum" ~passes:(passes_for ~target nframes) ~items:nframes (fun () ->
        List.iter
          (fun (_, b) -> ignore (Sys.opaque_identity (Checksum.bytes b ~off:0 ~len:(Bytes.length b))))
          frames)
  in
  (* seconds per frame -> ns per KiB *)
  put "net.checksum_ns_per_kb"
    (if bytes = 0 then 0.0 else ns t *. float_of_int nframes /. (float_of_int bytes /. 1024.0));
  (* nic: TSO over 64 KiB super-frames built from the captured flows. *)
  let tso = tso_inputs segs in
  let out_frames =
    List.fold_left (fun acc f -> acc + List.length (Offload.tso_split f ~mss:1460)) 0 tso
  in
  let t, w =
    batch "nic.tso" ~passes:(passes_for ~target:4_000 out_frames) ~items:out_frames (fun () ->
        List.iter (fun f -> ignore (Sys.opaque_identity (Offload.tso_split f ~mss:1460))) tso)
  in
  put "nic.tso_ns_per_frame" (ns t);
  put "nic.tso_words_per_frame" w;
  (* pf: conntrack hits (reads), evictions on a full table (writes),
     and the 1024-rule walk of a packet no state matches. *)
  let pkts = packets frames in
  let npkts = List.length pkts in
  let hit_engine = Pf_engine.create ~rules:[ Rule.pass_all ] () in
  List.iter (fun p -> ignore (Pf_engine.filter hit_engine ~now:0 p)) pkts;
  let t, _ =
    batch "pf.hit" ~passes:(passes_for ~target npkts) ~items:npkts (fun () ->
        List.iter (fun p -> ignore (Sys.opaque_identity (Pf_engine.filter hit_engine ~now:1 p))) pkts)
  in
  put "pf.filter_hit_ns" (ns t);
  let cap = 1024 in
  let flood = flood_packets ~seed (cap + 8192) in
  let evict_engine = Pf_engine.create ~rules:[ Rule.pass_all ] ~max_entries:cap () in
  let prefill, fresh = (List.filteri (fun i _ -> i < cap) flood, List.filteri (fun i _ -> i >= cap) flood) in
  List.iter (fun p -> ignore (Pf_engine.filter evict_engine ~now:0 p)) prefill;
  let t, _ =
    batch "pf.evict" ~passes:1 ~items:(List.length fresh) (fun () ->
        List.iteri
          (fun i p -> ignore (Sys.opaque_identity (Pf_engine.filter evict_engine ~now:(1 + i) p)))
          fresh)
  in
  put "pf.filter_evict_ns" (ns t);
  let rules =
    match List.rev (Pf_engine.generate_ruleset (Rng.create (seed + 1)) ~n:1024 ~protect_port:1) with
    | _default :: rest -> List.rev ({ Rule.pass_all with Rule.quick = false; keep_state = false } :: rest)
    | [] -> []
  in
  let miss_engine = Pf_engine.create ~rules () in
  let t, _ =
    batch "pf.miss" ~passes:(passes_for ~target:2_000 npkts) ~items:npkts (fun () ->
        List.iter (fun p -> ignore (Sys.opaque_identity (Pf_engine.filter miss_engine ~now:0 p))) pkts)
  in
  put "pf.filter_miss_ns" (ns t);
  (* channels: a pool round trip per frame, request-database ops. *)
  let pool = Pool.create ~id:(Pool.fresh_id ()) ~slots:64 ~slot_size:2048 in
  let t, w =
    batch "channels.pool" ~passes:(passes_for ~target nframes) ~items:nframes (fun () ->
        List.iter
          (fun (_, b) ->
            let len = min 2048 (Bytes.length b) in
            let p = Pool.alloc pool ~len in
            Pool.write pool p ~src:b ~src_off:0;
            ignore (Sys.opaque_identity (Pool.read pool p));
            Pool.free pool p)
          frames)
  in
  put "channels.pool_ns_per_frame" (ns t);
  put "channels.pool_words_per_frame" w;
  let db = Request_db.create () in
  let ops = 4096 in
  let ids = Array.make ops 0 in
  let t, _ =
    batch "channels.request_db" ~passes:(passes_for ~target ops) ~items:(2 * ops) (fun () ->
        for i = 0 to ops - 1 do
          ids.(i) <- Request_db.submit db ~peer:(i land 7) ~payload:i ~abort:(fun _ _ -> ())
        done;
        Array.iter (fun id -> ignore (Sys.opaque_identity (Request_db.complete db id))) ids)
  in
  put "channels.request_db_ns_per_op" (ns t);
  (* sim: event-queue push+pop at the run's sampled pending depth. *)
  let q = Eventq.create () in
  let rng = Rng.create seed in
  let depth = max 1 pending_depth in
  for i = 1 to depth do
    Eventq.push q (Rng.int rng 1_000_000) i
  done;
  let t, _ =
    batch "sim.eventq" ~passes:(passes_for ~target 1000) ~items:2000 (fun () ->
        for _ = 1 to 1000 do
          match Eventq.pop q with
          | Some (at, x) -> Eventq.push q (at + 1 + Rng.int rng 100_000) x
          | None -> ()
        done)
  in
  put "sim.eventq_ns_per_op" (ns t);
  put "replay.frames" (float_of_int nframes);
  List.rev !out
