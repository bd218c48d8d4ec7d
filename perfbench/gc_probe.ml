(* GC pauses of this process, read from its own Runtime_events ring.

   Used by the traced run only. Minor collections and major slices are
   the stop-the-world work an op can wait for; their intervals are
   merged (a slice may run inside a minor collection), so nested
   phases count once. The ring file lands in OCAML_RUNTIME_EVENTS_DIR,
   or the working directory when that is unset. *)

type t = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  pause_ns : int ref;  (** Merged pause time read so far. *)
  lost : int ref;  (** Events the ring overwrote before they were read. *)
}

let counted = function Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true | _ -> false

let start () =
  Runtime_events.start ();
  let pause_ns = ref 0 and lost = ref 0 and depth = ref 0 and opened = ref 0L in
  let ts = Runtime_events.Timestamp.to_int64 in
  let runtime_begin _ at phase =
    if counted phase then begin
      if !depth = 0 then opened := ts at;
      incr depth
    end
  in
  let runtime_end _ at phase =
    if counted phase && !depth > 0 then begin
      decr depth;
      if !depth = 0 then pause_ns := !pause_ns + Int64.to_int (Int64.sub (ts at) !opened)
    end
  in
  let lost_events _ n = lost := !lost + n in
  let callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events () in
  let t = { cursor = Runtime_events.create_cursor None; callbacks; pause_ns; lost } in
  (* drop what happened before the probe started *)
  ignore (Runtime_events.read_poll t.cursor t.callbacks None);
  pause_ns := 0;
  lost := 0;
  t

let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

(* total merged pause time so far, and events lost *)
let read t =
  poll t;
  (!(t.pause_ns), !(t.lost))
