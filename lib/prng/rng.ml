(* The four xoshiro256++ words, unboxed in a 32-byte buffer: a [mutable
   int64] record field would box a fresh int64 on every store. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* SplitMix64 step: used to expand the seed into the four xoshiro words and
   to derive split children.  Constants from Steele, Lea & Flood (2014). *)
let splitmix_next state =
  let open Int64 in
  let z = add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_sm64 state =
  let t = Bytes.create 32 in
  (* xoshiro must not be seeded with the all-zero state; SplitMix64 cannot
     produce four zero outputs in a row, so this is safe by construction. *)
  for i = 0 to 3 do
    set t (8 * i) (splitmix_next state)
  done;
  t

let create ~seed =
  let state = ref (Int64.of_int seed) in
  of_sm64 state

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set t 8 (logxor s1 s2);
  set t 0 (logxor s0 s3);
  set t 16 (logxor s2 (shift_left s1 17));
  set t 24 (rotl s3 45);
  result

let split t =
  let state = ref (bits64 t) in
  of_sm64 state

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

(* 53 high bits -> [0,1); an int below 2^53 converts to float exactly. *)
let[@inline] float t = float_of_int (bits53 t) *. 0x1.0p-53

let rec float_pos t =
  let u = float t in
  if u > 0.0 then u else float_pos t

let float_range t ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

(* Rejection sampling on the top bits to avoid modulo bias.  A loop over
   a local rather than a recursive helper: the int64 bounds would be boxed
   as arguments on every call, and [Rng.int] sits in the A001 closure of
   [Mux.handle_arrival]. *)
let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let bound64 = Int64.of_int bound in
  let max64 = Int64.max_int in
  let limit = Int64.sub max64 (Int64.rem max64 bound64) in
  let v = ref (Int64.shift_right_logical (bits64 t) 1) in
  while !v >= limit do
    v := Int64.shift_right_logical (bits64 t) 1
  done;
  Int64.to_int (Int64.rem !v bound64)

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let mix_seed root index =
  (* Two SplitMix64 steps with the index folded in between: a pure,
     order-independent derivation of per-task seeds for parallel work.
     The golden-ratio multiply decorrelates adjacent indices before the
     second finalizer, and the final shift keeps the result a positive
     63-bit OCaml int. *)
  let state = ref (Int64.of_int root) in
  let h = splitmix_next state in
  state := Int64.logxor h (Int64.mul (Int64.of_int index) 0x9E3779B97F4A7C15L);
  Int64.to_int (Int64.shift_right_logical (splitmix_next state) 2)

let seed_of_string s =
  (* FNV-1a, folded to 62 bits to stay positive in an OCaml int. *)
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Int64.to_int (Int64.shift_right_logical !h 2)
