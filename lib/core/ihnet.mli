(** The [ihnet] library's front door.

    [ihnet] implements the monitoring system and holistic resource
    manager of {e Towards a Manageable Intra-Host Network} (HotOS
    2023) on a calibrated flow-level simulator of the network inside a
    server — PCIe fabric, memory buses, inter-socket links and the
    devices hanging off them.

    {!Host} is the managed-host handle most applications want:

    {[
      open Ihnet

      let host = Host.create Host.Two_socket in
      Host.run_for host (Units.ms 20.0);
      match
        Host.submit_intent host
          (Intent.pipe ~tenant:1 ~src:"ext" ~dst:"socket0" ~rate:(Units.gbps 4.0))
      with
      | Ok placements -> ...
      | Error e -> prerr_endline (Manager.error_to_string e)
    ]}

    The aliases below re-export the layer libraries so application
    code can reach everything through one [open Ihnet] (or fully
    qualified, [Ihnet.Units.gbps]); each layer remains independently
    usable under its own library name ([Ihnet_engine.Fabric], ...). *)

module Host = Host
(** Simulator + fabric + tenants + optional monitoring/management
    behind one handle. Start here. *)

(** {1 Utilities} *)

module Units = Ihnet_util.Units
(** Unit constructors and conversions ([gbps], [ms], [mib], ...);
    internal units are bytes/s and nanoseconds. *)

module Rng = Ihnet_util.Rng
(** Seeded splittable PRNG + distributions; all randomness flows from
    explicit seeds so every run is reproducible. *)

module Stats = Ihnet_util.Stats
(** Streaming statistics: mean/variance, EWMA, CUSUM. *)

module Sketch = Ihnet_util.Sketch
(** Fixed-geometry log-linear latency sketch with quantile queries:
    workload latencies, ping RTTs and the always-on plane all record
    into it. *)

module Pool = Ihnet_util.Pool
(** Fixed-size domain pool behind the fleet controller's host-shard
    phase ([Ihnet_fleet.Controller]). *)

(** {1 Topology (the intra-host network graph)} *)

module Device = Ihnet_topology.Device
module Link = Ihnet_topology.Link

module Pcie = Ihnet_topology.Pcie
(** PCIe bandwidth from a gen/lane/encoding/MaxPayloadSize model. *)

module Hostconfig = Ihnet_topology.Hostconfig
(** Host knobs: DDIO on/off, IOMMU mode, PCIe MPS. *)

module Topology = Ihnet_topology.Topology
module Path = Ihnet_topology.Path

module Routing = Ihnet_topology.Routing
(** Shortest and k-shortest pathway search over the fabric graph. *)

module Builder = Ihnet_topology.Builder
(** Canned servers: Figure-1 two-socket, DGX-like, EPYC-like,
    minimal, parametric. *)

module Spec = Ihnet_topology.Spec
(** Textual topology DSL ([ihnetctl spec] / [--topo-file]). *)

(** {1 Engine (the fabric "hardware")} *)

module Sim = Ihnet_engine.Sim
(** Discrete-event simulator core. *)

module Flow = Ihnet_engine.Flow

module Fabric = Ihnet_engine.Fabric
(** The fabric runtime: flows, weighted max-min allocation with
    floors/caps, DDIO coupling, faults, telemetry counters. *)

module Fault = Ihnet_engine.Fault
(** Link-level fault injection: degrade/down/lossy/delay. *)

module Sensorfault = Ihnet_engine.Sensorfault
(** Telemetry-plane fault injection — corrupts what detectors see,
    never what the fabric does. *)

(** {1 Workloads} *)

module Tenant = Ihnet_workload.Tenant
module Traffic = Ihnet_workload.Traffic
module Kvstore = Ihnet_workload.Kvstore
module Mltrain = Ihnet_workload.Mltrain
module Rdma = Ihnet_workload.Rdma
module Storage = Ihnet_workload.Storage
module Allreduce = Ihnet_workload.Allreduce
module Scenario = Ihnet_workload.Scenario

(** {1 Monitor (building block 1, §3.1)} *)

module Counter = Ihnet_monitor.Counter
(** Counter reads at a chosen fidelity (hardware-like, software
    interception, oracle). *)

module Telemetry = Ihnet_monitor.Telemetry
module Sampler = Ihnet_monitor.Sampler

module Heartbeat = Ihnet_monitor.Heartbeat
(** Probe mesh + coverage-discounted fault localization. *)

module Anomaly = Ihnet_monitor.Anomaly
module Multimodal = Ihnet_monitor.Multimodal
module Rootcause = Ihnet_monitor.Rootcause

module Diagnostics = Ihnet_monitor.Diagnostics
(** Intra-host ping / trace / perf / dump. *)

module Health = Ihnet_monitor.Health
module Fleet = Ihnet_monitor.Fleet

module Evidence = Ihnet_monitor.Evidence
(** Multi-modality corroboration gate for remediation actions. *)

(** {1 Manager (building block 2, §3.2)} *)

module Intent = Ihnet_manager.Intent
(** Tenant performance targets: pipes and hoses. *)

module Manager = Ihnet_manager.Manager
(** Interpreter → scheduler → arbiter behind one facade; admission
    errors are the typed {!Manager.error}. *)

module Placement = Ihnet_manager.Placement
module Scheduler = Ihnet_manager.Scheduler
module Arbiter = Ihnet_manager.Arbiter

module Vnet = Ihnet_manager.Vnet
(** Per-tenant virtualized view of the network. *)

module Slo = Ihnet_manager.Slo
module Planner = Ihnet_manager.Planner
module Policy = Ihnet_manager.Policy

module Remediation = Ihnet_manager.Remediation
(** Self-healing supervisor: detect → diagnose → act with an
    escalation ladder, flap damping and evidence gating. *)
