(* Fused per-hop stage: one chain hop's {Link + Router + cross source}
   executed as a batch loop instead of discrete events (the event-loop
   link and router are the reference in test/evloop/).

   The stage merges the padded sends handed down by the upstream stage,
   this hop's cross [Train] and its pending transmit finishes and
   deliveries, replaying the float arithmetic of [Link.send] exactly.
   Packets are (time, tag) float pairs: payload tag = creation time,
   dummy = NaN, cross = -inf.

   One power-of-two ring holds finish times by enqueue sequence number;
   the link is FIFO, so a [finished] and a [delivered] cursor walk it in
   order.  A delivery is recomputed as [finish +. propagation], the bits
   [Link] schedules; at propagation 0 the cursors coincide.  Cross
   packets are diverted at the link exit, so only padded ones keep a
   tag, in a (seq, tag) side queue.

   Ties follow [Link]'s rule, departures first: a finish or delivery at
   [t] goes before an upstream send at [t], which goes before a cross
   tick at [t].  So [advance] walks the input sends, running the earlier
   cross ticks before each in a tight inner loop, each after the
   departures due by it.  One loop serves every hop kind. *)

type t = {
  (* reusable storage, kept across runs via the scenario arena *)
  regs : floatarray; (* 0 busy_until, 1 busy_time *)
  cross : Train.t; (* the hop's cross source; head = infinity without one *)
  mutable fin : floatarray; (* finish times, at seq land mask *)
  mutable mask : int;
  pad_seq : Fring.t; (* padded packets in the link: seq, tag *)
  pad_tag : Fring.t;
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
  (* run counters and cursors, flushed transactionally by the orchestrator *)
  mutable enqueued : int; (* = seq of the next enqueue *)
  mutable finished : int;
  mutable delivered : int;
  mutable next_pad : int; (* seq at the side queue's front; max_int if none *)
  mutable hwm : int;
  mutable dropped : int;
  mutable max_pend : int;
  mutable events : int; (* events this chunk *)
}

let create () =
  let empty = Fvec.create ~capacity:1 () in
  {
    regs = Float.Array.make 2 0.0;
    cross = Train.create ();
    fin = Float.Array.create 64;
    mask = 63;
    pad_seq = Fring.create ~capacity:64 ();
    pad_tag = Fring.create ~capacity:64 ();
    out_t = Fvec.create ~capacity:1024 ();
    out_tag = Fvec.create ~capacity:1024 ();
    trace = Tracebuf.create ();
    in_t = empty;
    in_tag = empty;
    propagation = 0.0;
    tx_padded = 0.0;
    tx_cross = 0.0;
    qlimit = max_int;
    enqueued = 0;
    finished = 0;
    delivered = 0;
    next_pad = max_int;
    hwm = 0;
    dropped = 0;
    max_pend = 0;
    events = 0;
  }

let configure ?(burst = `Poisson) t ~bandwidth_bps ~propagation ~queue_limit
    ~packet_size ~cross ~in_t ~in_tag =
  Float.Array.set t.regs 0 0.0;
  Float.Array.set t.regs 1 0.0;
  Fring.clear t.pad_seq;
  Fring.clear t.pad_tag;
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
  t.enqueued <- 0;
  t.finished <- 0;
  t.delivered <- 0;
  t.next_pad <- max_int;
  t.hwm <- 0;
  t.dropped <- 0;
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

(* Double the ring, re-placing the live seqs [delivered, enqueued). *)
let grow t =
  let mask = (2 * t.mask) + 1 in
  let fin = Float.Array.create (mask + 1) in
  for s = t.delivered to t.enqueued - 1 do
    Float.Array.set fin (s land mask) (Float.Array.get t.fin (s land t.mask))
  done;
  t.fin <- fin;
  t.mask <- mask

(* Replays [Link.send] at [now] for a packet with transmit time [tx]. *)
let[@inline] send t ~now ~tx ~tag =
  let depth = t.enqueued - t.finished in
  if depth >= t.qlimit then begin
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
    let seq = t.enqueued in
    if seq - t.delivered > t.mask then grow t;
    Float.Array.unsafe_set t.fin (seq land t.mask) finish;
    if tag <> neg_infinity then begin
      if Fring.is_empty t.pad_seq then t.next_pad <- seq;
      Fring.push t.pad_seq (float_of_int seq);
      Fring.push t.pad_tag tag
    end;
    t.enqueued <- seq + 1;
    if depth >= t.hwm then t.hwm <- depth + 1;
    let pend = depth + 1 + if t.propagation > 0.0 then seq + 1 - t.delivered else 0 in
    if pend > t.max_pend then t.max_pend <- pend
  end

(* The far end takes seq [delivered]; a padded packet goes downstream at
   [finish +. propagation] (= [finish] at propagation 0, finish > 0). *)
let deliver t =
  let s = t.delivered in
  t.delivered <- s + 1;
  if s = t.next_pad then begin
    Fvec.push t.out_t (Float.Array.get t.fin (s land t.mask) +. t.propagation);
    Fvec.push t.out_tag (Fring.pop t.pad_tag);
    ignore (Fring.pop t.pad_seq : float);
    if Fring.is_empty t.pad_seq then t.next_pad <- max_int
    else t.next_pad <- int_of_float (Fring.peek t.pad_seq)
  end

(* Transmit finishes and far-end deliveries due by [upto], in time
   order; a finish goes first at a shared instant. *)
let[@inline] drain t ~upto =
  let running = ref true in
  while !running do
    let f = t.finished and d = t.delivered in
    let tf = if f < t.enqueued then Float.Array.unsafe_get t.fin (f land t.mask) else infinity in
    let td =
      if d < f then Float.Array.unsafe_get t.fin (d land t.mask) +. t.propagation
      else infinity
    in
    if tf <= upto && tf <= td then begin
      t.finished <- f + 1;
      t.events <- t.events + 1;
      if t.propagation = 0.0 then deliver t
    end
    else if td <= upto then begin
      t.events <- t.events + 1;
      deliver t
    end
    else running := false
  done

let advance t ~until =
  t.events <- 0;
  Fvec.clear t.out_t;
  Fvec.clear t.out_tag;
  let n_in = Fvec.length t.in_t and cross_head = Train.head_cell t.cross in
  let i = ref 0 and running = ref true in
  while !running do
    let tin = if !i < n_in then Fvec.unsafe_get t.in_t !i else infinity in
    (* The cross run before the next input send: one event per tick, even
       when the send is dropped or an on/off phase event sends nothing. *)
    let tc = ref (Float.Array.unsafe_get cross_head 0) in
    while !tc < tin && !tc <= until do
      drain t ~upto:!tc;
      t.events <- t.events + 1;
      if Train.emits t.cross then send t ~now:!tc ~tx:t.tx_cross ~tag:neg_infinity;
      Train.next t.cross;
      tc := Float.Array.unsafe_get cross_head 0
    done;
    if tin <= until then begin
      (* padded send handed down within the upstream stage's event *)
      drain t ~upto:tin;
      send t ~now:tin ~tx:t.tx_padded ~tag:(Fvec.unsafe_get t.in_tag !i);
      incr i
    end
    else begin
      drain t ~upto:until;
      running := false
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
  let elapsed = now (* the link is created at time 0 *) in
  if elapsed <= 0.0 then 0.0
  else
    let busy_until = Float.Array.get t.regs 0 in
    let busy_time = Float.Array.get t.regs 1 in
    let future = Float.max 0.0 (busy_until -. now) in
    Float.min 1.0 ((busy_time -. future) /. elapsed)
