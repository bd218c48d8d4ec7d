(* Experiment runner: regenerates every table of EXPERIMENTS.md.

   Usage:
     dune exec bin/experiments.exe            # run everything
     dune exec bin/experiments.exe -- e4 e8   # run a subset
     dune exec bin/experiments.exe -- --list

   Exits 1 when an id is unknown or any experiment that ran reports a
   MISMATCH against the paper's claim. *)

let list_experiments () =
  List.iter (fun (id, _) -> print_endline id) Ihnet_experiments.Registry.all

let save_csvs out_dir (r : Ihnet_experiments.Common.result) =
  match out_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iteri
      (fun i table ->
        let path =
          Filename.concat dir
            (Printf.sprintf "%s%s.csv" (String.lowercase_ascii r.Ihnet_experiments.Common.id)
               (if i = 0 then "" else Printf.sprintf "-%d" (i + 1)))
        in
        let oc = open_out path in
        output_string oc (Ihnet_util.Table.to_csv table);
        close_out oc)
      r.Ihnet_experiments.Common.tables

(* runs each known id in order; [false] when some id was unknown *)
let run_ids out_dir ids =
  let known = ref true in
  let results =
    List.filter_map
      (fun id ->
        match Ihnet_experiments.Registry.find id with
        | Some run ->
          let r = run () in
          Ihnet_experiments.Common.print_result r;
          save_csvs out_dir r;
          Some r
        | None ->
          Printf.eprintf "unknown experiment %S (use --list)\n" id;
          known := false;
          None)
      ids
  in
  (results, !known)

open Cmdliner

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (E1..E16, A1..A3); all when omitted.")

let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Also write each table as CSV into DIR.")

(* exit 1 on an unknown id or when any verdict that ran says MISMATCH *)
let main list_flag out_dir ids =
  if list_flag then begin
    list_experiments ();
    0
  end
  else begin
    let results, known =
      if ids = [] then begin
        let rs = Ihnet_experiments.Registry.run_all () in
        List.iter (save_csvs out_dir) rs;
        (rs, true)
      end
      else run_ids out_dir ids
    in
    let mismatched =
      List.filter
        (fun (r : Ihnet_experiments.Common.result) ->
          Ihnet_experiments.Registry.contains_mismatch r.verdict)
        results
    in
    List.iter
      (fun (r : Ihnet_experiments.Common.result) ->
        Printf.eprintf "experiments: %s reports a MISMATCH\n" r.id)
      mismatched;
    if known && mismatched = [] then 0 else 1
  end

let cmd =
  let doc = "regenerate the ihnet paper-reproduction experiment tables" in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const main $ list_arg $ out_arg $ ids_arg)

let () = exit (Cmd.eval' cmd)
