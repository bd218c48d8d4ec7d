type t = { id : int; name : string; kind : kind }
and kind = Vm | Container | Infra

type registry = { mutable tenants : t list; mutable next_id : int }

let create_registry () =
  let infra = { id = 0; name = "infra"; kind = Infra } in
  { tenants = [ infra ]; next_id = 1 }

let register reg ~name ~kind =
  if List.exists (fun t -> t.name = name) reg.tenants then
    invalid_arg ("Tenant.register: duplicate name " ^ name);
  let t = { id = reg.next_id; name; kind } in
  reg.next_id <- reg.next_id + 1;
  reg.tenants <- t :: reg.tenants;
  t

let infra reg = List.find (fun t -> t.id = 0) reg.tenants
let find reg id = List.find_opt (fun t -> t.id = id) reg.tenants
let find_by_name reg name = List.find_opt (fun t -> t.name = name) reg.tenants
let count reg = List.length reg.tenants

let pp ppf t =
  let k = match t.kind with Vm -> "vm" | Container -> "container" | Infra -> "infra" in
  Format.fprintf ppf "%s#%d(%s)" t.name t.id k
