module T = Ihnet_topology
module U = Ihnet_util

type detector =
  | Threshold of { above : float option; below : float option }
  | Ewma_deviation of { alpha : float; k : float }
  | Cusum of { drift : float; threshold : float }

type alarm = { at : U.Units.ns; series : string; value : float; reason : string }

type watcher = {
  series : string;
  detector : detector;
  ewma : U.Stats.Ewma.t option;
  cusum : U.Stats.Cusum.t option;
  cusum_base : U.Stats.Online.t; (* learned in-control level for CUSUM *)
  mutable seen : int; (* samples processed; gates statistical alarms *)
}

type t = {
  mutable watchers : watcher list;
  mutable alarms : alarm list; (* newest first *)
  last_fed : (string, float) Hashtbl.t; (* series -> last processed timestamp *)
}

let create () = { watchers = []; alarms = []; last_fed = Hashtbl.create 16 }

let watch t ~series detector =
  let w =
    match detector with
    | Threshold _ ->
      {
        series;
        detector;
        ewma = None;
        cusum = None;
        cusum_base = U.Stats.Online.create ();
        seen = 0;
      }
    | Ewma_deviation { alpha; _ } ->
      {
        series;
        detector;
        ewma = Some (U.Stats.Ewma.create ~alpha);
        cusum = None;
        cusum_base = U.Stats.Online.create ();
        seen = 0;
      }
    | Cusum { drift; threshold } ->
      {
        series;
        detector;
        ewma = None;
        cusum = Some (U.Stats.Cusum.create ~drift ~threshold ());
        cusum_base = U.Stats.Online.create ();
        seen = 0;
      }
  in
  t.watchers <- w :: t.watchers

(* Tail-latency watchers: static SLO-style bounds over the percentile
   sub-series a sampler records for a latency snapshot. *)
let watch_tail t ~series ?p99_above () =
  match p99_above with
  | None -> ()
  | Some hi ->
    watch t
      ~series:(Telemetry.pct_series ~series "p99")
      (Threshold { above = Some hi; below = None })

let raise_alarm t ~at ~series ~value reason =
  t.alarms <- { at; series; value; reason } :: t.alarms

(* Statistical detectors need an in-control reference; learn it from
   the first samples and alarm only afterwards. *)
let stat_warmup = 30

let run_watcher t w ~at value =
  w.seen <- w.seen + 1;
  match w.detector with
  | Threshold { above; below } ->
    (match above with
    | Some hi when value > hi ->
      raise_alarm t ~at ~series:w.series ~value (Printf.sprintf "above threshold %g" hi)
    | Some _ | None -> ());
    (match below with
    | Some lo when value < lo ->
      raise_alarm t ~at ~series:w.series ~value (Printf.sprintf "below threshold %g" lo)
    | Some _ | None -> ())
  | Ewma_deviation { k; _ } -> (
    match w.ewma with
    | None -> assert false
    | Some e ->
      let dev = U.Stats.Ewma.deviation e value in
      if w.seen > stat_warmup && dev > k then
        raise_alarm t ~at ~series:w.series ~value
          (Printf.sprintf "ewma deviation %.1f sigma" dev);
      U.Stats.Ewma.add e value)
  | Cusum _ -> (
    match w.cusum with
    | None -> assert false
    | Some c ->
      if U.Stats.Online.count w.cusum_base < stat_warmup then
        U.Stats.Online.add w.cusum_base value
      else begin
        let expected = U.Stats.Online.mean w.cusum_base in
        let sigma =
          Float.max
            (U.Stats.Online.stddev w.cusum_base)
            (1e-3 *. Float.max 1.0 (Float.abs expected))
        in
        (* keep refining the in-control estimate on unremarkable samples
           so a short warm-up does not freeze a biased baseline *)
        if Float.abs ((value -. expected) /. sigma) < 2.0 then
          U.Stats.Online.add w.cusum_base value;
        match U.Stats.Cusum.add c ~expected ~sigma value with
        | `Alarm `Up -> raise_alarm t ~at ~series:w.series ~value "cusum up-shift"
        | `Alarm `Down -> raise_alarm t ~at ~series:w.series ~value "cusum down-shift"
        | `Ok -> ()
      end)

let observe t ~series ~at value =
  List.iter (fun w -> if w.series = series then run_watcher t w ~at value) t.watchers

let feed t telemetry =
  let names = List.sort_uniq compare (List.map (fun w -> w.series) t.watchers) in
  List.iter
    (fun series ->
      let since =
        match Hashtbl.find_opt t.last_fed series with
        | Some ts -> ts +. 1e-3 (* strictly after *)
        | None -> neg_infinity
      in
      let samples = Telemetry.window telemetry ~series ~since in
      List.iter
        (fun (s : Telemetry.sample) ->
          observe t ~series ~at:s.Telemetry.at s.Telemetry.value;
          Hashtbl.replace t.last_fed series s.Telemetry.at)
        samples)
    names

let alarms t = List.rev t.alarms

let first_alarm t = match alarms t with [] -> None | a :: _ -> Some a
let clear_alarms t = t.alarms <- []

(* {1 Misconfiguration checks} *)

let check_configuration topo =
  let config = T.Topology.config topo in
  let findings = ref [] in
  let finding fmt = Format.kasprintf (fun s -> findings := s :: !findings) fmt in
  (* NIC faster than its PCIe slot *)
  List.iter
    (fun (d : T.Device.t) ->
      match d.T.Device.kind with
      | T.Device.Nic { inter_host_gbps } ->
        let port_rate = U.Units.gbps inter_host_gbps in
        List.iter
          (fun ((l : T.Link.t), _) ->
            match l.T.Link.kind with
            | T.Link.Pcie _ when l.T.Link.capacity < port_rate ->
              finding "nic %s: inter-host port (%.0f Gbps) outruns its PCIe slot (%a)"
                d.T.Device.name inter_host_gbps U.Units.pp_rate l.T.Link.capacity
            | _ -> ())
          (T.Topology.neighbors topo d.T.Device.id)
      | _ -> ())
    (T.Topology.devices topo);
  (* DDIO off with fast NICs present *)
  let fast_nics =
    T.Topology.find_devices topo (fun d ->
        match d.T.Device.kind with
        | T.Device.Nic { inter_host_gbps } -> inter_host_gbps >= 100.0
        | _ -> false)
  in
  (match config.T.Hostconfig.ddio with
  | T.Hostconfig.Ddio_off when fast_nics <> [] ->
    finding "ddio disabled with %d NIC(s) >= 100 Gbps: inbound DMA will hammer the memory bus"
      (List.length fast_nics)
  | T.Hostconfig.Ddio_on { llc_ways; io_ways; _ } when 2 * io_ways > llc_ways ->
    finding "ddio io_ways (%d of %d) starve the CPU's LLC share" io_ways llc_ways
  | T.Hostconfig.Ddio_off | T.Hostconfig.Ddio_on _ -> ());
  (* tiny IOTLB *)
  (match config.T.Hostconfig.iommu with
  | T.Hostconfig.Iommu_on { iotlb_entries; _ } when iotlb_entries < 32 ->
    finding "iommu iotlb has only %d entries: translation thrash likely under multi-queue DMA"
      iotlb_entries
  | T.Hostconfig.Iommu_on _ | T.Hostconfig.Iommu_off -> ());
  (* small MPS on a gen4+ fabric *)
  let has_fast_pcie =
    List.exists
      (fun (l : T.Link.t) ->
        match l.T.Link.kind with
        | T.Link.Pcie p -> T.Pcie.gt_per_s p.T.Pcie.gen >= 16.0
        | _ -> false)
      (T.Topology.links topo)
  in
  if has_fast_pcie && config.T.Hostconfig.pcie_mps < 256 then
    finding "pcie MaxPayloadSize %d wastes >= 17%% of a gen4 link on TLP headers"
      config.T.Hostconfig.pcie_mps;
  if config.T.Hostconfig.acs then
    finding "acs enabled: peer-to-peer PCIe traffic detours through the root complex";
  if not config.T.Hostconfig.relaxed_ordering then
    finding "relaxed ordering disabled: DMA writes serialize across switch hops";
  if config.T.Hostconfig.interrupt_moderation > U.Units.us 10.0 then
    finding "interrupt moderation of %a penalizes latency-sensitive tenants"
      U.Units.pp_time config.T.Hostconfig.interrupt_moderation;
  (* oversubscribed PCIe switches *)
  List.iter
    (fun (d : T.Device.t) ->
      match d.T.Device.kind with
      | T.Device.Pcie_switch _ ->
        let up, down =
          List.fold_left
            (fun (up, down) ((l : T.Link.t), _) ->
              match T.Topology.pcie_position topo l with
              | `Upstream -> (up +. l.T.Link.capacity, down)
              | `Downstream -> (up, down +. l.T.Link.capacity)
              | `Not_pcie -> (up, down))
            (0.0, 0.0)
            (T.Topology.neighbors topo d.T.Device.id)
        in
        (* 3x oversubscription is the norm in commodity servers (three
           x16 endpoints behind one x16 uplink, as in Figure 1); flag
           only what exceeds it *)
        if up > 0.0 && down > 3.0 *. up then
          finding "pcie switch %s oversubscribed %.1fx (downstream %a vs upstream %a)"
            d.T.Device.name (down /. up) U.Units.pp_rate down U.Units.pp_rate up
      | _ -> ())
    (T.Topology.devices topo);
  List.rev !findings
