(* The backing store grows on demand up to [capacity]: a TCP PCB is
   configured with a 256 KiB window each way, but an idle, half-open or
   short-lived connection never holds more than a few segments, so
   allocating the whole window up front only feeds the major heap.
   [data] is the ring's physical storage; [capacity] is the logical
   bound every window computation sees. *)
type t = {
  mutable data : Bytes.t;
  capacity : int;
  mutable head : int; (* read position in [data] *)
  mutable len : int;
}

(* Smallest backing store once anything is pushed: a few full-size
   segments, so a request/response connection never regrows. *)
let min_store = 4096

let create ~capacity =
  assert (capacity > 0);
  { data = Bytes.empty; capacity; head = 0; len = 0 }

let capacity t = t.capacity
let length t = t.len
let available t = t.capacity - t.len
let is_empty t = t.len = 0

(* Make room for [need] stored bytes ([need <= capacity]): double the
   store (bounded by the capacity) and straighten the ring to start at
   offset 0. *)
let reserve t need =
  let size = Bytes.length t.data in
  if need > size then begin
    let size' = min t.capacity (max need (max min_store (2 * size))) in
    let data = Bytes.create size' in
    let first = min t.len (size - t.head) in
    Bytes.blit t.data t.head data 0 first;
    Bytes.blit t.data 0 data first (t.len - first);
    t.data <- data;
    t.head <- 0
  end

let push t src ~off ~len =
  assert (off >= 0 && len >= 0 && off + len <= Bytes.length src);
  let n = min len (available t) in
  if n > 0 then begin
    reserve t (t.len + n);
    let size = Bytes.length t.data in
    let tail = (t.head + t.len) mod size in
    let first = min n (size - tail) in
    Bytes.blit src off t.data tail first;
    if n > first then Bytes.blit src (off + first) t.data 0 (n - first);
    t.len <- t.len + n
  end;
  n

let peek t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then invalid_arg "Bytebuf.peek";
  let out = Bytes.create len in
  if len > 0 then begin
    let size = Bytes.length t.data in
    let start = (t.head + off) mod size in
    let first = min len (size - start) in
    Bytes.blit t.data start out 0 first;
    if len > first then Bytes.blit t.data 0 out first (len - first)
  end;
  out

let drop t n =
  if n < 0 || n > t.len then invalid_arg "Bytebuf.drop";
  if n > 0 then begin
    t.head <- (t.head + n) mod Bytes.length t.data;
    t.len <- t.len - n
  end

let pop t ~max =
  let n = min max t.len in
  let out = peek t ~off:0 ~len:n in
  drop t n;
  out

let clear t =
  t.head <- 0;
  t.len <- 0
