(* In-memory spans recorded by the benchmark around its calls into the
   program: name, start, end, parent, and the allocated words and wire
   frames at both boundaries. Off by default; [with_] then costs one
   test. The traced run turns them on, writes them out at exit and
   reports per-name self time (duration minus the children's). *)

type t = {
  id : int;
  name : string;
  parent : int;  (* -1 at the root *)
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable w1 : float;
  f0 : int;
  mutable f1 : int;
}

let enabled = ref false
let recorded : t list ref = ref []
let open_ : t list ref = ref []
let next_id = ref 0

(* Set by the measurement loop to the live world's frame counter. *)
let frames : (unit -> int) ref = ref (fun () -> 0)

let reset () =
  recorded := [];
  open_ := [];
  next_id := 0

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let with_ name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_ with p :: _ -> p.id | [] -> -1 in
    let s =
      {
        id = !next_id;
        name;
        parent;
        t0 = Unix.gettimeofday ();
        t1 = 0.0;
        w0 = alloc_words ();
        w1 = 0.0;
        f0 = !frames ();
        f1 = 0;
      }
    in
    incr next_id;
    open_ := s :: !open_;
    let close () =
      s.t1 <- Unix.gettimeofday ();
      s.w1 <- alloc_words ();
      s.f1 <- !frames ();
      open_ := List.tl !open_;
      recorded := s :: !recorded
    in
    Fun.protect ~finally:close f
  end

let all () = List.sort (fun a b -> compare a.id b.id) !recorded

(* The span's family: "run.3" and "run.4" are both "run". *)
let family name =
  match String.index_opt name '.' with
  | Some i when i + 1 < String.length name
                && name.[i + 1] >= '0' && name.[i + 1] <= '9' ->
      String.sub name 0 i
  | _ -> name

(* Self seconds per family: each span's duration minus the time its
   direct children cover. *)
let self_times () =
  let spans = all () in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 in
        Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      let fam = family s.name in
      let prev = Option.value (Hashtbl.find_opt self fam) ~default:0.0 in
      Hashtbl.replace self fam (prev +. (s.t1 -. s.t0 -. kids)))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [] |> List.sort compare

let to_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,\"words\":[%.0f,%.0f],\"frames\":[%d,%d]}"
           s.id s.name s.parent s.t0 s.t1 s.w0 s.w1 s.f0 s.f1))
    (all ());
  Buffer.add_string b "]\n";
  Buffer.contents b
