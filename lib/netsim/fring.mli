(** Unboxed float FIFO ring buffer.

    Replaces [float Queue.t] on per-packet paths: a [Queue] allocates a
    cell plus a boxed float per push, while the ring's steady state
    performs none — the backing [floatarray] only reallocates on
    geometric growth and is kept across {!clear} for arena reuse. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> float -> unit
(** Append at the back; grows the backing store when full. *)

val peek : t -> float
(** Front element.  Raises [Invalid_argument] when empty. *)

val pop : t -> float
(** Remove and return the front element.  Raises [Invalid_argument] when
    empty. *)

val drop_le : t -> float -> unit
(** [drop_le t x] pops front elements while they are [<= x] — on a
    ring kept in ascending order, every element up to [x]. *)

val clear : t -> unit
(** Empty the ring, keeping its capacity. *)
