(** Golden-trace store: small deterministic scenarios recorded under
    fixed seeds, fingerprinted, and committed as compact JSON files.

    Each scenario drives a bare simulator + fabric (plus a manager and
    remediation supervisor where the scenario calls for one — never a
    {!Ihnet.Host}, whose monitors would inflate the trace) through a
    fixed workload with a flight recorder attached. The committed
    golden file holds only the trace's identity — line count, final
    digest, whole-trace fingerprint — not the trace itself: the
    regression test re-records the scenario and compares identities,
    then replays the fresh trace to prove conformance.

    Regenerate after an intentional engine change with
    [ihnetctl record --regen-golden test/golden]. *)

type scenario

val scenarios : scenario list
(** [e1] (figure-1 link classes), [e5] (DDIO on/off/on under load),
    [e17] (fault, remediation, flap). *)

val name : scenario -> string
val find : string -> scenario option

val record : ?tee:(Trace.line -> unit) -> scenario -> Trace.t
(** Drive the scenario from scratch and return the recorded trace.
    [tee] additionally receives every line as it is produced (used to
    stream the trace to a file). Deterministic: same scenario, same
    trace, bit for bit. *)

(** {1 Fingerprints} *)

type fingerprint = {
  g_scenario : string;
  g_seed : int;
  g_version : int;  (** Trace format version the golden was taken at. *)
  g_lines : int;  (** Line count including the header. *)
  g_final : Trace.digest;
  g_trace : int64;  (** {!Trace.fingerprint} of the whole trace. *)
}

val fingerprint_of : scenario -> Trace.t -> fingerprint
val fingerprint_to_string : fingerprint -> string
val fingerprint_of_string : string -> (fingerprint, string) result
val load_fingerprint : string -> (fingerprint, string) result

val diff : expected:fingerprint -> actual:fingerprint -> string list
(** Human-readable field-by-field differences; [[]] means identical. *)

val regenerate : dir:string -> (string * fingerprint) list
(** Re-record every scenario and rewrite [dir/<name>.json]; returns
    what was written. *)
