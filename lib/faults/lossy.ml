type loss_model =
  | No_loss
  | Bernoulli of float
  | Gilbert_elliott of {
      p_good_to_bad : float;
      p_bad_to_good : float;
      loss_good : float;
      loss_bad : float;
    }

let check_prob ~name ?(closed = false) p =
  let ok = p >= 0.0 && (if closed then p <= 1.0 else p < 1.0) in
  if not (ok && not (Float.is_nan p)) then
    invalid_arg (Printf.sprintf "Lossy: %s out of range" name)

let validate_loss = function
  | No_loss -> ()
  | Bernoulli p -> check_prob ~name:"Bernoulli loss probability" p
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
      check_prob ~name:"p_good_to_bad" ~closed:true p_good_to_bad;
      check_prob ~name:"p_bad_to_good" ~closed:true p_bad_to_good;
      check_prob ~name:"loss_good" loss_good;
      check_prob ~name:"loss_bad" loss_bad

let expected_loss_rate = function
  | No_loss -> 0.0
  | Bernoulli p -> p
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
      let denom = p_good_to_bad +. p_bad_to_good in
      if denom = 0.0 then loss_good (* never leaves the initial good state *)
      else
        let pi_bad = p_good_to_bad /. denom in
        ((1.0 -. pi_bad) *. loss_good) +. (pi_bad *. loss_bad)

type t = {
  rng : Prng.Rng.t;
  loss : loss_model;
  dup_prob : float;
  reorder_prob : float;
  reorder_delay : float;
  in_t : Netsim.Fvec.t;
  in_tag : Netsim.Fvec.t;
  out_t : Netsim.Fvec.t;
  out_tag : Netsim.Fvec.t;
  trace : Netsim.Tracebuf.t;
  regs : floatarray; (* 0 instant of the last output *)
  mutable held_t : floatarray; (* held packets by due time; equal: FIFO *)
  mutable held_tag : floatarray;
  mutable held_n : int;
  mutable bad_state : bool;
  mutable out_nth : int; (* outputs so far at the last output's instant *)
  mutable lost : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable max_held : int;
  mutable events : int; (* held deliveries this chunk *)
}

let create ~rng ~loss ~dup_prob ~reorder_prob ~reorder_delay ~in_t ~in_tag =
  validate_loss loss;
  check_prob ~name:"dup_prob" dup_prob;
  check_prob ~name:"reorder_prob" reorder_prob;
  if not (reorder_delay > 0.0) then
    invalid_arg "Lossy: reorder_delay must be positive";
  {
    rng;
    loss;
    dup_prob;
    reorder_prob;
    reorder_delay;
    in_t;
    in_tag;
    out_t = Netsim.Fvec.create ();
    out_tag = Netsim.Fvec.create ();
    trace = Netsim.Tracebuf.create ();
    regs = Float.Array.make 1 neg_infinity;
    held_t = Float.Array.create 16;
    held_tag = Float.Array.create 16;
    held_n = 0;
    bad_state = false;
    out_nth = 0;
    lost = 0;
    duplicated = 0;
    reordered = 0;
    max_held = 0;
    events = 0;
  }

let drops t =
  match t.loss with
  | No_loss -> false
  | Bernoulli p -> Prng.Rng.float t.rng < p
  | Gilbert_elliott { p_good_to_bad; p_bad_to_good; loss_good; loss_bad } ->
      (* Transition first, then draw loss in the new state: a burst starts
         with the packet that finds the channel already bad. *)
      let flip =
        Prng.Rng.float t.rng
        < if t.bad_state then p_bad_to_good else p_good_to_bad
      in
      if flip then t.bad_state <- not t.bad_state;
      Prng.Rng.float t.rng < if t.bad_state then loss_bad else loss_good

(* Outputs so far at [time]: the ordinal of the next packet leaving at
   [time], which the records about it carry. *)
let[@inline] nth_at t time =
  let last = Float.Array.get t.regs 0 in
  if time = last then t.out_nth else 0

let[@inline] output t time tag =
  t.out_nth <- nth_at t time + 1;
  Float.Array.set t.regs 0 time;
  Netsim.Fvec.push t.out_t time;
  Netsim.Fvec.push t.out_tag tag

let[@inline] record t ~key ~code tag =
  if Obs.Trace.enabled () then
    Netsim.Tracebuf.push_nth t.trace ~key ~nth:(nth_at t key) ~code ~x:tag
      ~y:0.0

let grow_held t =
  let n = 2 * Float.Array.length t.held_t in
  let held_t = Float.Array.create n and held_tag = Float.Array.create n in
  Float.Array.blit t.held_t 0 held_t 0 t.held_n;
  Float.Array.blit t.held_tag 0 held_tag 0 t.held_n;
  t.held_t <- held_t;
  t.held_tag <- held_tag

(* Insert in due-time order, after the packets due at the same time. *)
let hold t due tag =
  if t.held_n = Float.Array.length t.held_t then grow_held t;
  let j = ref t.held_n in
  let shifting = ref true in
  while !shifting && !j > 0 do
    let before = Float.Array.get t.held_t (!j - 1) in
    if before > due then begin
      Float.Array.set t.held_t !j before;
      Float.Array.set t.held_tag !j (Float.Array.get t.held_tag (!j - 1));
      decr j
    end
    else shifting := false
  done;
  Float.Array.set t.held_t !j due;
  Float.Array.set t.held_tag !j tag;
  t.held_n <- t.held_n + 1;
  if t.held_n > t.max_held then t.max_held <- t.held_n

let[@inline] release t =
  let due = Float.Array.get t.held_t 0 and tag = Float.Array.get t.held_tag 0 in
  t.held_n <- t.held_n - 1;
  Float.Array.blit t.held_t 1 t.held_t 0 t.held_n;
  Float.Array.blit t.held_tag 1 t.held_tag 0 t.held_n;
  t.events <- t.events + 1;
  output t due tag

(* One upstream packet at [now]. *)
let[@inline] send t now tag =
  if drops t then begin
    t.lost <- t.lost + 1;
    record t ~key:now ~code:Netsim.Tracebuf.drop_loss tag
  end
  else begin
    if t.reorder_prob > 0.0 && Prng.Rng.float t.rng < t.reorder_prob then begin
      t.reordered <- t.reordered + 1;
      record t ~key:now ~code:Netsim.Tracebuf.reordered tag;
      let hold_for =
        Prng.Rng.float_range t.rng ~lo:0.0 ~hi:t.reorder_delay
        +. (t.reorder_delay *. 1e-9)
      in
      hold t (now +. hold_for) tag
    end
    else output t now tag;
    if t.dup_prob > 0.0 && Prng.Rng.float t.rng < t.dup_prob then begin
      t.duplicated <- t.duplicated + 1;
      record t ~key:now ~code:Netsim.Tracebuf.dup tag;
      output t now tag
    end
  end

let advance t ~until =
  Netsim.Fvec.clear t.out_t;
  Netsim.Fvec.clear t.out_tag;
  t.events <- 0;
  let n = Netsim.Fvec.length t.in_t in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let due =
      if t.held_n > 0 then Float.Array.get t.held_t 0 else infinity
    in
    let next = if !i < n then Netsim.Fvec.unsafe_get t.in_t !i else infinity in
    if due <= next && due <= until then release t
    else if !i < n then begin
      send t next (Netsim.Fvec.unsafe_get t.in_tag !i);
      incr i
    end
    else continue := false
  done

let out_times t = t.out_t
let out_tags t = t.out_tag
let trace t = t.trace
let chunk_events t = t.events
let max_pending t = t.max_held
let lost t = t.lost

let m_lost = Obs.Metrics.counter "faults.lossy.lost"
let m_duplicated = Obs.Metrics.counter "faults.lossy.duplicated"
let m_reordered = Obs.Metrics.counter "faults.lossy.reordered"

let flush t =
  Obs.Metrics.add m_lost t.lost;
  Obs.Metrics.add m_duplicated t.duplicated;
  Obs.Metrics.add m_reordered t.reordered
