type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let push t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nd = Array.make ncap x in
    Array.blit t.data 0 nd 0 t.len;
    t.data <- nd
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop";
  t.len <- t.len - 1;
  t.data.(t.len)

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let exists f t =
  let rec go i = i < t.len && (f t.data.(i) || go (i + 1)) in
  go 0

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_array t = Array.sub t.data 0 t.len
