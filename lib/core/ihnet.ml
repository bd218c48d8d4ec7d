(** The [ihnet] library's front door.

    {!Host} wires a simulated host together; the aliases below re-export
    the layer libraries so application code can reach everything through
    one [open Ihnet] (or fully qualified, [Ihnet.Units.gbps]). *)

module Host = Host

(** {1 Layer aliases} *)

module Units = Ihnet_util.Units
module Rng = Ihnet_util.Rng
module Stats = Ihnet_util.Stats
module Sketch = Ihnet_util.Sketch
module Device = Ihnet_topology.Device
module Link = Ihnet_topology.Link
module Pcie = Ihnet_topology.Pcie
module Hostconfig = Ihnet_topology.Hostconfig
module Topology = Ihnet_topology.Topology
module Path = Ihnet_topology.Path
module Routing = Ihnet_topology.Routing
module Builder = Ihnet_topology.Builder
module Spec = Ihnet_topology.Spec
module Sim = Ihnet_engine.Sim
module Flow = Ihnet_engine.Flow
module Fabric = Ihnet_engine.Fabric
module Fault = Ihnet_engine.Fault
module Sensorfault = Ihnet_engine.Sensorfault
module Tenant = Ihnet_workload.Tenant
module Traffic = Ihnet_workload.Traffic
module Kvstore = Ihnet_workload.Kvstore
module Mltrain = Ihnet_workload.Mltrain
module Rdma = Ihnet_workload.Rdma
module Storage = Ihnet_workload.Storage
module Allreduce = Ihnet_workload.Allreduce
module Scenario = Ihnet_workload.Scenario
module Counter = Ihnet_monitor.Counter
module Telemetry = Ihnet_monitor.Telemetry
module Sampler = Ihnet_monitor.Sampler
module Heartbeat = Ihnet_monitor.Heartbeat
module Anomaly = Ihnet_monitor.Anomaly
module Multimodal = Ihnet_monitor.Multimodal
module Rootcause = Ihnet_monitor.Rootcause
module Diagnostics = Ihnet_monitor.Diagnostics
module Health = Ihnet_monitor.Health
module Fleet = Ihnet_monitor.Fleet
module Evidence = Ihnet_monitor.Evidence
module Intent = Ihnet_manager.Intent
module Manager = Ihnet_manager.Manager
module Placement = Ihnet_manager.Placement
module Scheduler = Ihnet_manager.Scheduler
module Arbiter = Ihnet_manager.Arbiter
module Vnet = Ihnet_manager.Vnet
module Slo = Ihnet_manager.Slo
module Planner = Ihnet_manager.Planner
module Policy = Ihnet_manager.Policy
module Remediation = Ihnet_manager.Remediation
module Pool = Ihnet_util.Pool
