let miss_rate ~entries ~working_set_pages =
  if entries <= 0 then
    invalid_arg (Printf.sprintf "Iommu.miss_rate: entries must be > 0 (got %d)" entries);
  if working_set_pages <= entries then 0.0
  else 1.0 -. (float_of_int entries /. float_of_int working_set_pages)

let expected_translation_latency iommu ~working_set_pages =
  match iommu with
  | Ihnet_topology.Hostconfig.Iommu_off -> 0.0
  | Ihnet_topology.Hostconfig.Iommu_on { iotlb_entries; hit_latency; miss_penalty } ->
    let m = miss_rate ~entries:iotlb_entries ~working_set_pages in
    hit_latency +. (m *. miss_penalty)

(* A transaction of [payload_bytes] that stalls [t_xlat] on translation
   wastes link-time worth [t_xlat × line_rate]; relative to the payload
   this is an extra consumption factor. We charge it only on the stalled
   fraction (misses), assuming hits are pipelined. *)
let bandwidth_overhead_factor iommu ~working_set_pages ~payload_bytes =
  match iommu with
  | Ihnet_topology.Hostconfig.Iommu_off -> 1.0
  | Ihnet_topology.Hostconfig.Iommu_on { iotlb_entries; miss_penalty; _ } ->
    let m = miss_rate ~entries:iotlb_entries ~working_set_pages in
    if m = 0.0 then 1.0
    else begin
      (* bytes a gen4 x16 link could move during one miss penalty *)
      let line_rate = 32e9 (* bytes/s, order of magnitude *) in
      let wasted = m *. (miss_penalty /. 1e9) *. line_rate in
      1.0 +. (wasted /. float_of_int payload_bytes /. 64.0)
      (* /64: modern root complexes keep ~64 translations in flight,
         hiding most of the walk latency; the residual matches the
         10-30% small-payload IOMMU tax measurement studies report *)
    end
