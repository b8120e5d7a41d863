type t = {
  arrivals : Train.t;
  out_t : Fvec.t;
  out_tag : Fvec.t;
  mutable generated : int;
  mutable events : int;
}

let create () =
  {
    arrivals = Train.create ();
    out_t = Fvec.create ~capacity:1024 ();
    out_tag = Fvec.create ~capacity:1024 ();
    generated = 0;
    events = 0;
  }

let configure t ~rng ~rate law =
  Fvec.clear t.out_t;
  Fvec.clear t.out_tag;
  t.generated <- 0;
  t.events <- 0;
  Train.start t.arrivals ~rng ~rate (law : [ `Poisson | `Cbr ] :> Train.law)

let advance t ~until =
  Fvec.clear t.out_t;
  Fvec.clear t.out_tag;
  let head = Train.head_cell t.arrivals in
  let n = ref 0 in
  let ta = ref (Float.Array.unsafe_get head 0) in
  while !ta <= until do
    Fvec.push t.out_t !ta;
    Fvec.push t.out_tag !ta;
    incr n;
    Train.next t.arrivals;
    ta := Float.Array.unsafe_get head 0
  done;
  t.events <- !n;
  t.generated <- t.generated + !n

let out_times t = t.out_t
let out_tags t = t.out_tag
let chunk_events t = t.events
let generated t = t.generated
