(* Fused per-hop stage: one chain hop's {Link + Router + cross source}
   executed as a batch loop instead of discrete events.

   Per chunk the stage merges four time-ordered streams — padded sends
   handed down by the upstream stage, this hop's own cross source (a
   [Train]: Poisson or on/off, drawn from the hop's split-off RNG), and
   the pending transmit-finish / propagation-delivery trains — and
   replays exactly the float arithmetic of [Link.send] and its scheduled
   callbacks.  Packets are (time, tag) float pairs: a payload's tag is
   its creation time (finite, >= 0), a dummy's is NaN, cross traffic's is
   -inf; nothing else about a packet is observable downstream of the
   gateway.

   Same-instant events follow the tie rule [Link] also keeps: departures
   first.  A transmit finish (and a far-end delivery) at [t] is processed
   before an upstream send at [t], so the send sees the depth after the
   departure; an upstream send at [t] goes before this hop's cross tick
   at [t], so the padded packet takes the wire first. *)

type t = {
  (* reusable storage, kept across runs via the scenario arena *)
  regs : floatarray; (* 0 busy_until, 1 busy_time *)
  cross : Train.t; (* the hop's cross source; head = infinity without one *)
  fin_t : Fring.t; (* pending transmit-finish times *)
  fin_tag : Fring.t;
  del_t : Fring.t; (* pending far-end deliveries (propagation > 0) *)
  del_tag : Fring.t;
  out_t : Fvec.t; (* this chunk's deliveries to the next stage *)
  out_tag : Fvec.t;
  trace : Tracebuf.t;
  (* per-run configuration, set by [configure] *)
  mutable in_t : Fvec.t; (* upstream stage's chunk output *)
  mutable in_tag : Fvec.t;
  mutable propagation : float;
  mutable tx_padded : float;
  mutable tx_cross : float;
  mutable qlimit : int; (* max_int = unlimited *)
  mutable created_at : float;
  (* run counters, flushed transactionally by the orchestrator *)
  mutable in_idx : int;
  mutable depth : int;
  mutable hwm : int;
  mutable dropped : int;
  mutable enqueued : int;
  mutable max_pend : int;
  mutable events : int; (* events this chunk *)
}

let create () =
  let empty = Fvec.create ~capacity:1 () in
  {
    regs = Float.Array.make 2 0.0;
    cross = Train.create ();
    fin_t = Fring.create ~capacity:64 ();
    fin_tag = Fring.create ~capacity:64 ();
    del_t = Fring.create ~capacity:64 ();
    del_tag = Fring.create ~capacity:64 ();
    out_t = Fvec.create ~capacity:1024 ();
    out_tag = Fvec.create ~capacity:1024 ();
    trace = Tracebuf.create ();
    in_t = empty;
    in_tag = empty;
    propagation = 0.0;
    tx_padded = 0.0;
    tx_cross = 0.0;
    qlimit = max_int;
    created_at = 0.0;
    in_idx = 0;
    depth = 0;
    hwm = 0;
    dropped = 0;
    enqueued = 0;
    max_pend = 0;
    events = 0;
  }

let configure ?(burst = `Poisson) t ~bandwidth_bps ~propagation ~queue_limit
    ~packet_size ~cross ~in_t ~in_tag =
  Float.Array.set t.regs 0 0.0;
  Float.Array.set t.regs 1 0.0;
  Fring.clear t.fin_t;
  Fring.clear t.fin_tag;
  Fring.clear t.del_t;
  Fring.clear t.del_tag;
  Fvec.clear t.out_t;
  Fvec.clear t.out_tag;
  Tracebuf.clear t.trace;
  t.in_t <- in_t;
  t.in_tag <- in_tag;
  t.propagation <- propagation;
  (* Same expression as [Link.send]'s per-packet tx, computed once per
     size class: identical operands, identical bits. *)
  t.tx_padded <- float_of_int packet_size *. 8.0 /. bandwidth_bps;
  t.qlimit <- (match queue_limit with Some l -> l | None -> max_int);
  t.created_at <- 0.0;
  t.in_idx <- 0;
  t.depth <- 0;
  t.hwm <- 0;
  t.dropped <- 0;
  t.enqueued <- 0;
  t.max_pend <- 0;
  t.events <- 0;
  match cross with
  | None ->
      Train.stop t.cross;
      t.tx_cross <- 0.0
  | Some (rng, rate_pps, size_bytes) ->
      t.tx_cross <- float_of_int size_bytes *. 8.0 /. bandwidth_bps;
      Train.start t.cross ~rng ~rate:rate_pps
        (burst : [ `Poisson | `On_off of float * float * float option ]
          :> Train.law)

let note_pend t =
  let pend = Fring.length t.fin_t + Fring.length t.del_t in
  if pend > t.max_pend then t.max_pend <- pend

(* Cross packets are diverted at the link exit, as the router does. *)
let deliver t ~time ~tag =
  if tag <> neg_infinity then begin
    Fvec.push t.out_t time;
    Fvec.push t.out_tag tag
  end

(* Replays [Link.send] at [now] for a packet with transmit time [tx]. *)
let send t ~now ~tag ~tx =
  if t.depth >= t.qlimit then begin
    t.dropped <- t.dropped + 1;
    if Obs.Trace.enabled () then
      Tracebuf.push t.trace ~key:now
        ~code:
          (if tag = neg_infinity then Tracebuf.drop_cross
           else if Float.is_nan tag then Tracebuf.drop_dummy
           else Tracebuf.drop_payload)
        ~x:0.0 ~y:0.0
  end
  else begin
    let start = Float.max now (Float.Array.get t.regs 0) in
    let finish = start +. tx in
    Float.Array.set t.regs 0 finish;
    Float.Array.set t.regs 1 (Float.Array.get t.regs 1 +. tx);
    t.depth <- t.depth + 1;
    t.enqueued <- t.enqueued + 1;
    if t.depth > t.hwm then t.hwm <- t.depth;
    Fring.push t.fin_t finish;
    Fring.push t.fin_tag tag;
    if t.propagation > 0.0 then begin
      Fring.push t.del_t (finish +. t.propagation);
      Fring.push t.del_tag tag
    end;
    note_pend t
  end

let advance t ~until =
  t.events <- 0;
  Fvec.clear t.out_t;
  Fvec.clear t.out_tag;
  t.in_idx <- 0;
  let n_in = Fvec.length t.in_t in
  let continue = ref true in
  while !continue do
    let tin =
      if t.in_idx < n_in then Fvec.unsafe_get t.in_t t.in_idx else infinity
    in
    let tc = Train.head t.cross in
    let tf = if Fring.is_empty t.fin_t then infinity else Fring.peek t.fin_t in
    let td = if Fring.is_empty t.del_t then infinity else Fring.peek t.del_t in
    let m = Float.min (Float.min tin tc) (Float.min tf td) in
    if m > until then continue := false
    else if tf = m then begin
      (* transmit-finish event *)
      ignore (Fring.pop t.fin_t : float);
      let tag = Fring.pop t.fin_tag in
      t.depth <- t.depth - 1;
      t.events <- t.events + 1;
      if t.propagation = 0.0 then deliver t ~time:m ~tag
    end
    else if td = m then begin
      (* far-end delivery event (propagation > 0) *)
      ignore (Fring.pop t.del_t : float);
      let tag = Fring.pop t.del_tag in
      t.events <- t.events + 1;
      deliver t ~time:m ~tag
    end
    else if tin = m then begin
      (* padded send handed down within the upstream stage's event *)
      let tag = Fvec.unsafe_get t.in_tag t.in_idx in
      t.in_idx <- t.in_idx + 1;
      send t ~now:m ~tag ~tx:t.tx_padded
    end
    else begin
      (* cross source event: one event, even when the send is dropped or
         an on/off phase event sends nothing *)
      t.events <- t.events + 1;
      if Train.emits t.cross then send t ~now:m ~tag:neg_infinity ~tx:t.tx_cross;
      Train.next t.cross
    end
  done

let out_times t = t.out_t
let out_tags t = t.out_tag
let trace t = t.trace
let chunk_events t = t.events
let dropped t = t.dropped
let enqueued t = t.enqueued
let queue_hwm t = t.hwm
let max_pending t = t.max_pend

(* Same float expressions as [Link.utilization] at simulated time [now]. *)
let utilization t ~now =
  let elapsed = now -. t.created_at in
  if elapsed <= 0.0 then 0.0
  else
    let busy_until = Float.Array.get t.regs 0 in
    let busy_time = Float.Array.get t.regs 1 in
    let future = Float.max 0.0 (busy_until -. now) in
    Float.min 1.0 ((busy_time -. future) /. elapsed)
