(** A uniform key-value adapter over the PM applications, so the serve
    handler and the YCSB load generator are app-agnostic.

    Keys and values are byte strings (the wire form). Redis stores them
    natively; P-CLHT is a word store, so strings are mapped through a
    deterministic FNV-1a hash onto nonzero machine words — GET then
    echoes the stored word, not the original bytes, but two variants fed
    identical op streams still produce comparable stores. Neither app
    supports ordered iteration, so the adapter has no scan: the serve
    handler answers a wire [Scan] with [Unsupported]. *)

open Hippo_pmir
open Hippo_pmcheck

type kind = Redis | Pclht

val kind_to_string : kind -> string

(** Which build is being served:
    - [Flush_free]: the Hippocrates repair input (Redis only — P-CLHT's
      bugs are injected, not stripped);
    - [Manual]: the hand-written baseline;
    - [Repaired]: the {!Hippo_core.Driver} pipeline output, verified
      effective and harm-free before serving;
    - [Optimized]: the flush/fence optimizer run over [Repaired]
      ({!Hippo_core.Driver.optimize}) — redundant persistence
      operations removed under the optimizer's do-no-harm gate. *)
type variant = Flush_free | Manual | Repaired | Optimized

val variant_to_string : variant -> string

type read_result = Found of string | Absent

type t = {
  name : string;  (** e.g. ["redis/manual"] *)
  interp : Machine.t;
      (** the session's machine; named [interp] because perfsuite/
          compiles against it *)
  insert : key:string -> value:string -> unit;
      (** Raises [Invalid_argument] on empty or over-capacity keys or
          values (Redis enforces its wire-buffer capacities). *)
  read : key:string -> read_result;
  delete : key:string -> bool;  (** true when a binding was removed *)
  count : unit -> int;
  check : unit -> bool;  (** the app's own recovery invariant *)
  cost_ns : unit -> float;  (** simulated ns accumulated so far *)
  echo : string -> string;
      (** what [read] answers for a stored value: identity for Redis,
          the FNV word image for P-CLHT *)
  reopen : pm_image:Bytes.t -> (t, string) result;
      (** restart the app over a crash image of its PM pool: the
          session's machine is restarted ({!Machine.restart}: same
          prepared program, config and PM allocator mark; memory,
          persistency state, cost and counters fresh) and the app's
          recovery path runs on it, with no initialization. The old
          session is left as the crash found it. O(bytes of
          [pm_image]): nothing is re-prepared. *)
}

(** The FNV-1a word image P-CLHT stores for a string key or value
    (deterministic, nonzero) — exposed so differential tests can replay
    an adapter-level op stream as raw [clht_*] calls. *)
val word_of_string : string -> int

(** Build the program for an (app, variant) pair. [Repaired] runs the
    full repair pipeline and fails if verification does. *)
val program : kind -> variant -> (Program.t, string) result

(** Wrap a fresh session of an already-built program (see {!program}) —
    callers that open many sessions of one variant build it once. *)
val wrap :
  ?config:Machine.config -> ?nbuckets:int -> kind -> variant ->
  Hippo_pmir.Program.t -> t

(** [make ?config ?nbuckets kind variant] builds the variant program and
    wraps a fresh machine session. The default config suits small
    smoke runs; million-key services should size [pm_size] and
    [nbuckets] to the expected record count and set a cost model for
    simulated-latency histograms. *)
val make :
  ?config:Machine.config -> ?nbuckets:int -> kind -> variant -> (t, string) result
