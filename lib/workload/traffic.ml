module Fabric = Ihnet_engine.Fabric
module Flow = Ihnet_engine.Flow
module Sim = Ihnet_engine.Sim
module Rng = Ihnet_util.Rng

type size_dist =
  | Fixed of float
  | Uniform of float * float
  | Pareto of { alpha : float; x_min : float }

let draw_size rng = function
  | Fixed b -> b
  | Uniform (lo, hi) -> Rng.uniform rng lo hi
  | Pareto { alpha; x_min } -> Rng.pareto rng alpha x_min

type stream = {
  fabric : Fabric.t;
  mutable live : Flow.t list; (* currently running flows *)
  mutable stopped : bool;
  mutable moved : float; (* goodput of completed flows *)
}

let make fabric = { fabric; live = []; stopped = false; moved = 0.0 }

let track stream flow = stream.live <- flow :: stream.live

let finish stream (flow : Flow.t) =
  stream.moved <- stream.moved +. flow.Flow.transferred;
  stream.live <- List.filter (fun (f : Flow.t) -> f.Flow.id <> flow.Flow.id) stream.live

let invalidf fmt = Printf.ksprintf invalid_arg fmt

(* NaN fails every comparison, so each check refuses it too. *)
let poisson_transfers fabric ~rng ~tenant ?(llc_target = false) ~rate_per_s ~size ~path
    ?on_transfer () =
  (* an infinite rate draws zero gaps: endless arrivals at one instant *)
  if not (rate_per_s > 0.0 && rate_per_s < infinity) then
    invalidf "Traffic.poisson_transfers: rate_per_s must be finite and > 0 (got %g)" rate_per_s;
  let stream = make fabric in
  let sim = Fabric.sim fabric in
  let rec arrival _ =
    if not stream.stopped then begin
      let bytes = draw_size rng size in
      let flow =
        Fabric.start_flow fabric ~tenant ~llc_target ~path ~size:(Flow.Bytes bytes)
          ~on_complete:(fun f ->
            finish stream f;
            match on_transfer with
            | Some cb -> cb ~bytes ~duration:(Flow.duration f)
            | None -> ())
          ()
      in
      track stream flow;
      Sim.schedule sim ~after:(Rng.exponential rng (1e9 /. rate_per_s)) arrival
    end
  in
  Sim.schedule sim ~after:(Rng.exponential rng (1e9 /. rate_per_s)) arrival;
  stream

let constant_stream fabric ~tenant ~rate ~path () =
  if not (rate > 0.0) then invalidf "Traffic.constant_stream: rate must be > 0 (got %g)" rate;
  let stream = make fabric in
  let flow = Fabric.start_flow fabric ~tenant ~demand:rate ~path ~size:Flow.Unbounded () in
  track stream flow;
  stream

let on_off_stream fabric ~tenant ~rate ~period ~duty ~path () =
  if not (duty > 0.0 && duty <= 1.0) then
    invalidf "Traffic.on_off_stream: duty must be in (0, 1] (got %g)" duty;
  if not (period > 0.0) then invalidf "Traffic.on_off_stream: period must be > 0 (got %g)" period;
  if not (rate > 0.0) then invalidf "Traffic.on_off_stream: rate must be > 0 (got %g)" rate;
  let stream = make fabric in
  let sim = Fabric.sim fabric in
  let rec on_phase _ =
    if not stream.stopped then begin
      let flow = Fabric.start_flow fabric ~tenant ~demand:rate ~path ~size:Flow.Unbounded () in
      track stream flow;
      Sim.schedule sim ~after:(period *. duty) (fun _ ->
          if flow.Flow.state = Flow.Running then begin
            Fabric.stop_flow fabric flow;
            finish stream flow
          end;
          if duty < 1.0 then Sim.schedule sim ~after:(period *. (1.0 -. duty)) on_phase
          else on_phase sim)
    end
  in
  on_phase sim;
  stream

let stop stream =
  if not stream.stopped then begin
    stream.stopped <- true;
    List.iter
      (fun f ->
        Fabric.stop_flow stream.fabric f;
        stream.moved <- stream.moved +. f.Flow.transferred)
      stream.live;
    stream.live <- []
  end

let transferred_bytes stream =
  Fabric.refresh stream.fabric;
  stream.moved
  +. List.fold_left (fun acc (f : Flow.t) -> acc +. f.Flow.transferred) 0.0 stream.live

let current_rate stream =
  List.fold_left (fun acc (f : Flow.t) -> acc +. f.Flow.rate) 0.0 stream.live
