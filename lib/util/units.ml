type ns = float
type bytes_per_s = float

let ns x = x
let us x = x *. 1e3
let ms x = x *. 1e6
let s x = x *. 1e9
let ns_to_us t = t /. 1e3

let gib x = x *. 1073741824.0
let mib x = x *. 1048576.0
let kib x = x *. 1024.0

let gbps x = x *. 1e9 /. 8.0
let gbytes_per_s x = x *. 1e9
let to_gbps r = r *. 8.0 /. 1e9

let pp_rate ppf r =
  if r >= 1e9 then Format.fprintf ppf "%.1f GB/s" (r /. 1e9)
  else if r >= 1e6 then Format.fprintf ppf "%.0f MB/s" (r /. 1e6)
  else if r >= 1e3 then Format.fprintf ppf "%.0f KB/s" (r /. 1e3)
  else Format.fprintf ppf "%.0f B/s" r

let pp_time ppf t =
  if t >= 1e9 then Format.fprintf ppf "%.2f s" (t /. 1e9)
  else if t >= 1e6 then Format.fprintf ppf "%.2f ms" (t /. 1e6)
  else if t >= 1e3 then Format.fprintf ppf "%.2f us" (t /. 1e3)
  else Format.fprintf ppf "%.0f ns" t

let pp_bytes ppf b =
  if b >= 1073741824.0 then Format.fprintf ppf "%.2f GiB" (b /. 1073741824.0)
  else if b >= 1048576.0 then Format.fprintf ppf "%.2f MiB" (b /. 1048576.0)
  else if b >= 1024.0 then Format.fprintf ppf "%.1f KiB" (b /. 1024.0)
  else Format.fprintf ppf "%.0f B" b
