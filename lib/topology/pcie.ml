type gen = Gen1 | Gen2 | Gen3 | Gen4 | Gen5 | Gen6
type t = { gen : gen; lanes : int }

let v gen lanes =
  match lanes with
  | 1 | 2 | 4 | 8 | 16 -> { gen; lanes }
  | _ -> invalid_arg "Pcie.v: lanes must be one of 1,2,4,8,16"

let gt_per_s = function
  | Gen1 -> 2.5
  | Gen2 -> 5.0
  | Gen3 -> 8.0
  | Gen4 -> 16.0
  | Gen5 -> 32.0
  | Gen6 -> 64.0

let encoding_efficiency = function
  | Gen1 | Gen2 -> 0.8
  | Gen3 | Gen4 | Gen5 | Gen6 -> 128.0 /. 130.0

(* GT/s is 1e9 transfers/s of one bit per lane. *)
let raw_bandwidth t =
  gt_per_s t.gen *. 1e9 /. 8.0 *. float_of_int t.lanes *. encoding_efficiency t.gen

(* Conservative per-TLP overhead: 18 B framing/seq/CRC + 12 B header
   (3-DW, 32-bit addressing) ≈ 30 B with ECRC; we use 26 B, mid-range
   of the SIGCOMM'18 model. *)
let tlp_header_bytes = 26

let payload_efficiency ~mps =
  if mps <= 0 then invalid_arg (Printf.sprintf "Pcie.payload_efficiency: mps must be > 0 (got %d)" mps);
  float_of_int mps /. float_of_int (mps + tlp_header_bytes)

let gen_label = function
  | Gen1 -> "gen1"
  | Gen2 -> "gen2"
  | Gen3 -> "gen3"
  | Gen4 -> "gen4"
  | Gen5 -> "gen5"
  | Gen6 -> "gen6"

let label t = Printf.sprintf "%s x%d" (gen_label t.gen) t.lanes
let pp ppf t = Format.pp_print_string ppf (label t)
