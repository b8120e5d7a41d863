(** Packet-size attack — the channel §3.2 remark (3) closes by fiat.

    With variable-size packets on the wire, the per-window mean size and
    the size entropy classify the traffic class just like the timing
    features classify the rate.  This module mounts that attack on the
    size column a tap records; against a size-padded stream
    every window collapses to the constant target and detection falls to
    the floor. *)

type kind =
  | Mean_size
  | Size_entropy
      (** Shannon entropy of the empirical distribution over the distinct
          sizes in the window (nats). *)

val name : kind -> string

val extract : kind -> int array -> float
(** Feature of one window of packet sizes; requires a non-empty window. *)

val features_of_trace : kind -> window:int -> int array -> float array
(** One feature per non-overlapping window of [window] packets. *)

val estimate :
  ?priors:float array ->
  kind:kind ->
  window:int ->
  classes:(string * int array) array ->
  unit ->
  Detection.result
(** End-to-end size-based detection rate over per-class size columns. *)
