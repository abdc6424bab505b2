(** A bounded circular byte FIFO.

    Backs the TCP send buffer (where it doubles as the retransmission
    store: bytes stay until cumulatively acknowledged, and retransmission
    re-reads from the front) and the receive buffer (whose free space is
    the advertised window).

    The backing store grows on demand, doubling up to [capacity]: a
    buffer that never holds more than a few bytes never allocates more.
    [capacity] and [available] always describe the configured bound, so
    window computations do not see the growth. *)

type t

val create : capacity:int -> t
val capacity : t -> int
val length : t -> int
val available : t -> int
(** Free space, in bytes. *)

val is_empty : t -> bool

val push : t -> Bytes.t -> off:int -> len:int -> int
(** Append up to [len] bytes; returns how many actually fit. *)

val peek : t -> off:int -> len:int -> Bytes.t
(** Copy [len] bytes starting [off] bytes from the front, without
    consuming. Raises [Invalid_argument] when the range exceeds the
    stored length. *)

val drop : t -> int -> unit
(** Discard exactly [n] bytes from the front. Raises [Invalid_argument]
    if fewer are stored. *)

val pop : t -> max:int -> Bytes.t
(** Remove and return up to [max] bytes from the front. *)

val clear : t -> unit
