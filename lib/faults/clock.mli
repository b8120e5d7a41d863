(** Gateway clock faults: systematic drift, missed timer fires, and
    coalescing or catch-up after overruns — signatures a tap sees and the
    closed-form theorems do not.  A spec is a timer-law variant of the
    fused gateway kernel ({!Padding.Kernel.clock} states the
    arithmetic). *)

type spec = Padding.Kernel.clock = {
  drift : float;  (** intervals scale by [1. +. drift]; > -1 *)
  miss_prob : float;  (** per scheduled fire; in \[0, 1) *)
  coalesce : bool;  (** absorb missed fires, or replay them back to back *)
  max_consecutive_misses : int;  (** >= 1 *)
}

val ideal : spec
(** No drift, no misses — the plain timer law. *)

val validate : spec -> unit
(** Raises [Invalid_argument] outside the ranges above. *)
