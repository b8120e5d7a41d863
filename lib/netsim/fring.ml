type t = {
  mutable data : floatarray;
  mutable head : int; (* index of the front element *)
  mutable len : int;
}

let create ?(capacity = 16) () =
  { data = Float.Array.create (Stdlib.max capacity 1); head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Float.Array.length t.data in
  let data = Float.Array.create (2 * cap) in
  (* Unroll the wrap-around into a flat prefix. *)
  let first = Stdlib.min t.len (cap - t.head) in
  Float.Array.blit t.data t.head data 0 first;
  Float.Array.blit t.data 0 data first (t.len - first);
  t.data <- data;
  t.head <- 0

let push t x =
  if t.len = Float.Array.length t.data then grow t;
  let cap = Float.Array.length t.data in
  let i = t.head + t.len in
  let i = if i >= cap then i - cap else i in
  Float.Array.set t.data i x;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then invalid_arg "Fring.peek: empty";
  Float.Array.get t.data t.head

let pop t =
  if t.len = 0 then invalid_arg "Fring.pop: empty";
  let x = Float.Array.get t.data t.head in
  let head = t.head + 1 in
  t.head <- (if head = Float.Array.length t.data then 0 else head);
  t.len <- t.len - 1;
  x

(* One loop over the raw store: this runs on every event-loop link send. *)
let drop_le t x =
  let data = t.data in
  let cap = Float.Array.length data in
  let dropping = ref true in
  while !dropping && t.len > 0 do
    let front = Float.Array.unsafe_get data t.head in
    if front <= x then begin
      let head = t.head + 1 in
      t.head <- (if head = cap then 0 else head);
      t.len <- t.len - 1
    end
    else dropping := false
  done

let clear t =
  t.head <- 0;
  t.len <- 0
