module Sketch = Ihnet_util.Sketch

type sample = { at : Ihnet_util.Units.ns; value : float }

(* One series: a ring over two flat float arrays, so a sample is two
   unboxed stores and the GC has nothing in it to trace. The arrays are
   allocated at the first sample, so a handle interned ahead of use
   costs a record, not a ring. *)
type handle = {
  name : string;
  cap : int;
  mutable ats : float array;
  mutable values : float array;
  mutable head : int; (* slot of the next write *)
  mutable len : int;
  mutable dropped : int;
}

type t = { capacity : int; series : (string, handle) Hashtbl.t }

let create ?(capacity_per_series = 1024) () =
  if capacity_per_series <= 0 then
    invalid_arg
      (Printf.sprintf "Telemetry.create: capacity_per_series must be > 0 (got %d)"
         capacity_per_series);
  { capacity = capacity_per_series; series = Hashtbl.create 64 }

let handle t name =
  match Hashtbl.find_opt t.series name with
  | Some h -> h
  | None ->
    let h =
      { name; cap = t.capacity; ats = [||]; values = [||]; head = 0; len = 0; dropped = 0 }
    in
    Hashtbl.add t.series name h;
    h

let name h = h.name

let push h ~at v =
  if Array.length h.ats = 0 then begin
    h.ats <- Array.make h.cap 0.0;
    h.values <- Array.make h.cap 0.0
  end;
  let i = h.head in
  h.ats.(i) <- at;
  h.values.(i) <- v;
  h.head <- (if i + 1 = h.cap then 0 else i + 1);
  if h.len = h.cap then h.dropped <- h.dropped + 1 else h.len <- h.len + 1

let record t ~series ~at value = push (handle t series) ~at value

(* the i-th oldest retained sample, [0 <= i < len] *)
let slot h i =
  let j = h.head - h.len + i in
  if j < 0 then j + h.cap else j

let sample h i =
  let j = slot h i in
  { at = h.ats.(j); value = h.values.(j) }

(* retained samples, oldest first *)
let samples h = List.init h.len (sample h)

let walk ?last h f =
  let n = match last with None -> h.len | Some k -> max 0 (min k h.len) in
  for i = h.len - n to h.len - 1 do
    f h.ats h.values (slot h i)
  done

(* a series exists for readers once it holds a sample *)
let find t series =
  match Hashtbl.find_opt t.series series with Some h when h.len > 0 -> Some h | _ -> None

let series_names t =
  Hashtbl.fold (fun name h acc -> if h.len > 0 then name :: acc else acc) t.series []
  |> List.sort compare

let length t ~series = match find t series with Some h -> h.len | None -> 0

let latest t ~series =
  match find t series with Some h -> Some (sample h (h.len - 1)) | None -> None

let window t ~series ~since =
  match find t series with
  | None -> []
  | Some h -> List.filter (fun s -> s.at >= since) (samples h)

let values t ~series =
  match find t series with
  | None -> [||]
  | Some h -> Array.init h.len (fun i -> h.values.(slot h i))

let rate_of_change t ~series =
  match find t series with
  | Some h when h.len >= 2 ->
    let a = sample h (h.len - 2) and b = sample h (h.len - 1) in
    let dt = b.at -. a.at in
    if dt <= 0.0 then None else Some ((b.value -. a.value) /. (dt /. 1e9))
  | _ -> None

let last_update t ~series =
  match find t series with
  | None -> None
  | Some h ->
    (* rings hold insertion order; skew can reorder timestamps, so the
       freshest sample is the max over retained [at]s, not the newest *)
    let best = ref None in
    for i = 0 to h.len - 1 do
      let at = h.ats.(slot h i) in
      match !best with Some m when m >= at -> () | _ -> best := Some at
    done;
    !best

let staleness t ~series ~now =
  match last_update t ~series with None -> None | Some at -> Some (Float.max 0.0 (now -. at))

let to_csv ?series t =
  let names = match series with Some ns -> ns | None -> series_names t in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "series,at_ns,value\n";
  List.iter
    (fun name ->
      match find t name with
      | None -> ()
      | Some h ->
        (* rings hold insertion order; exports promise time order (a
           stable sort, so equal timestamps keep arrival order) *)
        List.iter
          (fun s -> Buffer.add_string buf (Printf.sprintf "%s,%.0f,%.9g\n" name s.at s.value))
          (List.stable_sort (fun a b -> compare a.at b.at) (samples h)))
    names;
  Buffer.contents buf

(* Percentile snapshots decompose into one plain sub-series per field,
   so every existing consumer — windows, CSV export, staleness, anomaly
   detectors — works on tail latency unchanged. *)
let pct_fields (s : Sketch.snapshot) =
  [
    ("count", float_of_int s.Sketch.s_count);
    ("mean", s.Sketch.s_mean);
    ("p50", s.Sketch.s_p50);
    ("p90", s.Sketch.s_p90);
    ("p99", s.Sketch.s_p99);
    ("p999", s.Sketch.s_p999);
    ("max", s.Sketch.s_max);
  ]

let pct_series ~series field = series ^ "." ^ field

let record_pct t ~series ~at snap =
  List.iter (fun (f, v) -> record t ~series:(pct_series ~series f) ~at v) (pct_fields snap)

let latest_pct t ~series =
  let get f =
    match latest t ~series:(pct_series ~series f) with
    | Some s -> s.value
    | None -> nan
  in
  match latest t ~series:(pct_series ~series "count") with
  | None -> None
  | Some c ->
    Some
      {
        Sketch.s_count = int_of_float c.value;
        s_mean = get "mean";
        s_p50 = get "p50";
        s_p90 = get "p90";
        s_p99 = get "p99";
        s_p999 = get "p999";
        s_max = get "max";
      }

let dropped_samples t = Hashtbl.fold (fun _ h acc -> acc + h.dropped) t.series 0
let memory_samples t = Hashtbl.fold (fun _ h acc -> acc + h.len) t.series 0
