module T = Ihnet_topology

let scale_intent (intent : Intent.t) factor =
  {
    intent with
    Intent.targets =
      List.map
        (fun target ->
          match target with
          | Intent.Pipe { src; dst; rate } -> Intent.Pipe { src; dst; rate = rate *. factor }
          | Intent.Hose { endpoint; to_host; from_host } ->
            Intent.Hose
              { endpoint; to_host = to_host *. factor; from_host = from_host *. factor })
        intent.Intent.targets;
  }

let try_place topo ~headroom intents =
  let sched = Scheduler.create topo ~headroom () in
  let rec go = function
    | [] -> Some sched
    | intent :: rest -> (
      match Interpreter.compile topo intent with
      | Error _ -> None
      | Ok reqs -> (
        match Scheduler.place_all sched reqs with
        | Ok _ -> go rest
        | Error _ -> None))
  in
  go intents

let fits topo ?(headroom = 0.9) intents = Option.is_some (try_place topo ~headroom intents)

let max_scale topo ?(headroom = 0.9) intents =
  if intents = [] then infinity
  else begin
    let fits_at s = fits topo ~headroom (List.map (fun i -> scale_intent i s) intents) in
    if not (fits_at 1e-6) then 0.0
    else begin
      (* exponential probe for an upper bound, then bisect *)
      let hi = ref 1.0 in
      while fits_at !hi && !hi < 1e6 do
        hi := !hi *. 2.0
      done;
      let lo = ref (!hi /. 2.0) in
      while (!hi -. !lo) /. !lo > 0.01 do
        let mid = (!lo +. !hi) /. 2.0 in
        if fits_at mid then lo := mid else hi := mid
      done;
      !lo
    end
  end

let bottlenecks topo ?(headroom = 0.9) intents =
  match try_place topo ~headroom intents with
  | None -> []
  | Some sched ->
    Scheduler.utilization_summary sched
    |> List.map (fun (id, fwd, rev) -> (T.Topology.link topo id, Float.max fwd rev))
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.filteri (fun i _ -> i < 5)
