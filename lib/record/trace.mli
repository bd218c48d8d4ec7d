(** Versioned JSON-lines trace format of the flight recorder.

    A trace is one header line followed by a stream of command lines
    (the external mutations applied to the fabric, in dispatch order),
    annotation lines (flow completions and remediation actions, used as
    conformance checks / forensics during replay) and digest lines
    (compact state fingerprints taken every [digest_every]-th
    reallocation epoch). All times are simulated nanoseconds relative
    to the moment the recorder attached; all flow ids are the recording
    fabric's ids.

    Every value round-trips exactly: floats are printed with 17
    significant digits (and [inf]/[-inf]/[nan] as tagged strings), so
    [line_of_string (line_to_string l) = Ok l] for every line a
    recorder writes (an op's time is always finite; see
    {!line_of_string}). The digest hashes are
    FNV-1a over the raw IEEE-754 bits, making a digest comparison an
    exact — not approximate — state equality check. *)

(** {1 Digests} *)

type digest = {
  d_at : float;  (** Clock at the digest point (shifted ns). *)
  d_epoch : int;  (** Reallocation epoch, relative to attach. *)
  d_flows : int;  (** Running flow count. *)
  d_alloc : int64;  (** Hash over sorted (flow id, rate bits). *)
  d_floor : int64;  (** Hash over sorted (flow id, floor bits), floor > 0. *)
  d_bytes : int64;  (** Hash over per-(link, dir) cumulative byte bits. *)
}

val fnv_basis : int64
val fnv_int : int64 -> int -> int64
val fnv_int64 : int64 -> int64 -> int64
(** Fold a full 64-bit word (byte at a time) — what the fleet
    controller uses to chain per-host {!Scanport} digests into one
    fleet fingerprint. *)

val fnv_float : int64 -> float -> int64
val fnv_string : int64 -> string -> int64

(** {2 Streaming FNV-1a}

    The same hash fed piece by piece into a mutable state:
    [fnv_value] after [fnv_add_string st s] on a fresh state equals
    [fnv_string fnv_basis s], and likewise for the other folds. The
    state is kept unboxed, so feeding it allocates nothing — what the
    scan port's digest-only read streams register paths and values
    into. *)

type fnv

val fnv_start : unit -> fnv
(** A fresh state at {!fnv_basis}. *)

val fnv_value : fnv -> int64
val fnv_add_char : fnv -> char -> unit
val fnv_add_int : fnv -> int -> unit
val fnv_add_float : fnv -> float -> unit
val fnv_add_string : fnv -> string -> unit

val fnv_add_floats : fnv -> float array -> unit
(** {!fnv_add_float} on each element in index order, without boxing
    one. *)

(** {1 Lines} *)

type flow_spec = {
  flow_id : int;
  tenant : int;
  cls : Ihnet_engine.Flow.cls;  (** Written as {!Ihnet_engine.Flow.cls_label}. *)
  weight : float;
  floor : float;
  cap : float;
  demand : float;
  payload_bytes : int;
  working_set_pages : int;
  llc_target : bool;
  size : float option;  (** [None] = unbounded. *)
  src : int;
  dst : int;
  hops : (int * int) list;  (** (link id, 0 = Fwd / 1 = Rev). *)
}

type op =
  | Start_flow of flow_spec
  | Stop_flow of int
  | Set_limits of { flow_id : int; weight : float; floor : float; cap : float }
  | Inject_fault of { link : int; fault : Ihnet_engine.Fault.link_fault }
  | Clear_fault of int
  | Clear_all_faults
  | Inject_sensor_fault of {
      starget : Ihnet_engine.Sensorfault.target;
      sf : Ihnet_engine.Sensorfault.sensor_fault;
    }
      (** Telemetry-plane fault (additive in version 1: older traces
          simply contain none; these ops are epoch-neutral — they never
          reallocate — so digest alignment is unaffected). *)
  | Clear_sensor_fault of Ihnet_engine.Sensorfault.target
  | Set_config of Ihnet_topology.Hostconfig.t
  | Sync  (** An observation-driven counter sync (see {!Ihnet_engine.Fabric.event}). *)
  | Batch_start
  | Batch_end

type header = {
  version : int;
  preset : string;  (** Topology preset name, used to rebuild the host. *)
  seed : int;
  label : string;
  digest_every : int;
  host_config : Ihnet_topology.Hostconfig.t;  (** Configuration at attach time. *)
}

type line =
  | Header of header
  | Op of { at : float; op : op }
  | Completed of { at : float; flow_id : int; transferred : float }
  | Action of { at : float; link : int; stage : string; detail : string }
  | Digest of digest
  | Final of digest

val version : int

val line_to_string : line -> string
(** One line of JSON, no trailing newline. *)

val line_of_string : string -> (line, string) result
(** Refuses an [op] line whose [at] is not finite, naming the field
    ([at must be finite (got nan)]): replay schedules each op at its
    [at]. The other lines' times are expectations replay compares
    against its own clock, so they keep the full float range. *)

(** {1 Whole traces} *)

type t = { header : header; lines : line list }
(** [lines] excludes the header and preserves file order. *)

val of_lines : line list -> (t, string) result
(** First line must be the header. *)

val parse : string -> (t, string) result
(** Parse a full JSON-lines document (blank lines ignored). *)

val load : string -> (t, string) result
(** Read and parse a trace file. *)

val fingerprint : t -> int64
(** FNV chain over every serialized line — a whole-trace identity used
    by the golden store. *)

(** {1 JSON model}

    The hand-rolled JSON the trace codec is built on, exposed so the
    golden store (and tools) can read and write small JSON documents
    with the same exact float round-tripping, without a dependency. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

val json_of_string : string -> json
(** @raise Parse_error on malformed input. *)

val json_to_string : json -> string
val jfloat : float -> json
(** Non-finite floats travel as tagged strings ("inf"/"-inf"/"nan"). *)

val jint : int -> json
val jhash : int64 -> json
val jstr : string -> json
val jbool : bool -> json

val jopt : ('a -> json) -> 'a option -> json
(** [None] travels as [Null]. *)

val jpair : string * string -> json
(** A two-string array. *)

val field : json -> string -> json
(** @raise Parse_error when missing or not an object. *)

val as_float : json -> float
val as_int : json -> int
val as_string : json -> string
val as_bool : json -> bool
val as_list : json -> json list
val as_hash : json -> int64

val opt_of : json -> (json -> 'a) -> 'a option
(** Inverse of {!jopt}: [Null] is [None]. *)

val pair_of : json -> string * string
(** Inverse of {!jpair}.
    @raise Parse_error on anything else. *)

val digest_to_json : digest -> json
val digest_of_json : json -> digest
