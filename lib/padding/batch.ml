(* Threshold mix stage.  Its state is the queue of waiting payload tags,
   the armed timeout's deadline, and the emissions already scheduled by
   earlier flushes: one flush's slots are spaced [spacing] apart, so the
   slots of a threshold flush can land between those of the flush
   before.  The scheduled emissions are kept sorted by time, a new one
   going after every emission already scheduled for its instant, which
   is the event loop's (time, arming order) dispatch. *)

type t = {
  regs : floatarray; (* 0 timeout deadline, 1 timeout, 2 spacing *)
  mutable armed : bool; (* a timeout is pending *)
  queue : Netsim.Fring.t; (* waiting payload tags, arrival order *)
  mutable slots : float array; (* one flush: queued tags, then NaN *)
  mutable order : int array; (* the flush's shuffled slot order *)
  mutable pend_t : float array; (* scheduled emissions, time order *)
  mutable pend_tag : float array;
  mutable pend_len : int;
  out_t : Netsim.Fvec.t;
  out_tag : Netsim.Fvec.t;
  mutable in_t : Netsim.Fvec.t;
  mutable in_tag : Netsim.Fvec.t;
  mutable rng : Prng.Rng.t;
  mutable threshold : int;
  mutable flushes : int;
  mutable payload_sent : int;
  mutable dummy_sent : int;
  mutable max_pend : int;
  mutable events : int;
}

let create () =
  {
    regs = Float.Array.make 3 infinity;
    armed = false;
    queue = Netsim.Fring.create ();
    slots = [||];
    order = [||];
    pend_t = Array.make 64 0.0;
    pend_tag = Array.make 64 0.0;
    pend_len = 0;
    out_t = Netsim.Fvec.create ~capacity:1024 ();
    out_tag = Netsim.Fvec.create ~capacity:1024 ();
    in_t = Netsim.Fvec.create ();
    in_tag = Netsim.Fvec.create ();
    rng = Prng.Rng.create ~seed:0;
    threshold = 1;
    flushes = 0;
    payload_sent = 0;
    dummy_sent = 0;
    max_pend = 0;
    events = 0;
  }

let configure t ~rng ~threshold ~timeout ~spacing ~in_t ~in_tag =
  t.armed <- false;
  Float.Array.set t.regs 1 timeout;
  Float.Array.set t.regs 2 spacing;
  Netsim.Fring.clear t.queue;
  if Array.length t.slots <> threshold then begin
    t.slots <- Array.make threshold 0.0;
    t.order <- Array.make threshold 0
  end;
  t.pend_len <- 0;
  Netsim.Fvec.clear t.out_t;
  Netsim.Fvec.clear t.out_tag;
  t.in_t <- in_t;
  t.in_tag <- in_tag;
  t.rng <- rng;
  t.threshold <- threshold;
  t.flushes <- 0;
  t.payload_sent <- 0;
  t.dummy_sent <- 0;
  t.max_pend <- 0;
  t.events <- 0

(* Schedule one emission after every one already due at or before
   [time]. *)
let grow a = Array.append a (Array.make (Array.length a) 0.0)

let schedule t ~time ~tag =
  if t.pend_len = Array.length t.pend_t then begin
    t.pend_t <- grow t.pend_t;
    t.pend_tag <- grow t.pend_tag
  end;
  let j = ref t.pend_len in
  while !j > 0 && t.pend_t.(!j - 1) > time do
    t.pend_t.(!j) <- t.pend_t.(!j - 1);
    t.pend_tag.(!j) <- t.pend_tag.(!j - 1);
    decr j
  done;
  t.pend_t.(!j) <- time;
  t.pend_tag.(!j) <- tag;
  t.pend_len <- t.pend_len + 1;
  if t.pend_len > t.max_pend then t.max_pend <- t.pend_len

(* Emit exactly [threshold] packets at [now]: the queued batch in
   shuffled order, completed with dummies.  Shuffling the slot order
   draws what shuffling the slots would. *)
let flush t ~now =
  t.armed <- false;
  t.flushes <- t.flushes + 1;
  for i = 0 to t.threshold - 1 do
    t.slots.(i) <-
      (if Netsim.Fring.is_empty t.queue then Float.nan
       else Netsim.Fring.pop t.queue);
    t.order.(i) <- i
  done;
  Prng.Sampler.shuffle t.rng t.order;
  let spacing = Float.Array.get t.regs 2 in
  for i = 0 to t.threshold - 1 do
    let tag = t.slots.(t.order.(i)) in
    if Float.is_nan tag then t.dummy_sent <- t.dummy_sent + 1
    else t.payload_sent <- t.payload_sent + 1;
    schedule t ~time:(now +. (float_of_int i *. spacing)) ~tag
  done

(* Fire the armed timeout if it is due at or before [upto]. *)
let fire_due t ~upto =
  let deadline = Float.Array.get t.regs 0 in
  if t.armed && deadline <= upto then begin
    t.events <- t.events + 1;
    flush t ~now:deadline
  end

let advance t ~until =
  t.events <- 0;
  Netsim.Fvec.clear t.out_t;
  Netsim.Fvec.clear t.out_tag;
  for i = 0 to Netsim.Fvec.length t.in_t - 1 do
    let ta = Netsim.Fvec.unsafe_get t.in_t i in
    fire_due t ~upto:ta;
    Netsim.Fring.push t.queue (Netsim.Fvec.unsafe_get t.in_tag i);
    if Netsim.Fring.length t.queue >= t.threshold then flush t ~now:ta
    else if not t.armed then begin
      (* Sim.after: the timeout is armed by the batch's first arrival. *)
      t.armed <- true;
      Float.Array.set t.regs 0 (ta +. Float.Array.get t.regs 1)
    end
  done;
  fire_due t ~upto:until;
  let due = ref 0 in
  while !due < t.pend_len && t.pend_t.(!due) <= until do
    Netsim.Fvec.push t.out_t t.pend_t.(!due);
    Netsim.Fvec.push t.out_tag t.pend_tag.(!due);
    incr due
  done;
  let rest = t.pend_len - !due in
  Array.blit t.pend_t !due t.pend_t 0 rest;
  Array.blit t.pend_tag !due t.pend_tag 0 rest;
  t.pend_len <- rest;
  t.events <- t.events + !due

let out_times t = t.out_t
let out_tags t = t.out_tag
let chunk_events t = t.events
let max_pending t = t.max_pend
let flushes t = t.flushes
let payload_sent t = t.payload_sent
let dummy_sent t = t.dummy_sent

let overhead t =
  let total = t.payload_sent + t.dummy_sent in
  if total = 0 then 0.0 else float_of_int t.dummy_sent /. float_of_int total
