(* Process-level measurements: allocation counters, the kernel's peak
   resident set, and small statistics helpers. *)

type gc = { minor : float; promoted : float; major : float }

(* The counters lag: minor words and promotions are booked when the
   minor heap is collected, direct major allocations when a major slice
   runs. Do both first, so a reading counts exactly the words allocated
   before it. *)
let gc () =
  Gc.minor ();
  ignore (Gc.major_slice 0);
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; promoted = s.Gc.promoted_words; major = s.Gc.major_words }

(* Words allocated between two snapshots (minor + direct major), and
   words that reached the major heap (direct major allocations plus
   promotions). *)
let alloc_words a b = b.minor -. a.minor +. (b.major -. a.major) -. (b.promoted -. a.promoted)
let major_words a b = b.major -. a.major

(* The kernel's high-water mark of this process's resident memory
   (VmHWM), in MiB. [Gc.top_heap_words] is no substitute: OCaml
   reserves address space it never touches. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let now = Unix.gettimeofday

(* CPU seconds this process has run, user and system. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime


(* {1 The host-speed probe}

   The benchmark shares its host's cores with other machines' work, and
   the same repetition's CPU time moves by a third as that load comes
   and goes. The probe is a fixed piece of work, written here and not
   in the repository's libraries so that no change to them moves it:
   a chain of multiplies, shifts and branches on one integer. It
   allocates nothing, so running it between slices leaves the
   workload's heap and allocation counts as they were. Its CPU time,
   taken around set-up and between the slices of a repetition, measures
   how fast the host ran that repetition. Across repetitions of the
   same work, it tracked the simulator's CPU time better (correlation
   0.6 to 0.9) than a walk over an 8 MiB array did. *)

(* CPU seconds of one run of the probe. *)
let probe () =
  let c0 = cpu () in
  let acc = ref 1 in
  for i = 0 to 4_999_999 do
    acc := (!acc * 0x9e3779b1) + i lxor (!acc lsr 13);
    if !acc land 7 = 3 then acc := !acc + 17 else acc := !acc - 3
  done;
  ignore (Sys.opaque_identity !acc);
  cpu () -. c0

(* The probe's CPU time on the host the benchmark was sized on (an
   Intel Xeon with two vCPUs). *)
let probe_nominal_s = 0.02

(* CPU seconds [cpu] taken while the probe took [probe_s], scaled to
   the reference host: cpu x (probe_nominal_s / probe_s) ^ 1.5. The
   simulator's CPU time moves more than the probe's when the host is
   loaded; it holds more memory, which the host's other load also
   wants. Over 16 to 29 repetitions per workload, the slope of
   log(CPU time) on log(probe time) was 1.6 on bulk, 1.05 on churn and
   1.8 on recovery (against a 12 ms run of the same probe). Scaling
   each slice by the probes on either side of it with the exponent 1.5,
   the repetitions' spread (IQR over median) fell from 0.20, 0.10 and
   0.20 to 0.065, 0.055 and 0.051. *)
let scaled ~probe_s cpu = cpu *. ((probe_nominal_s /. probe_s) ** 1.5)
