(** The network front end: a single-domain [Unix.select] event loop
    (the interpreter session serializes every op anyway), plus the
    synchronous RPC client used by the load generator.

    Complete frames are dispatched in arrival order; [Truncated] input
    waits for more bytes; [Oversized]/[Malformed] input earns an [Err]
    reply and the connection is closed, as does a client hanging up
    before reading its reply (SIGPIPE is ignored while serving). *)

(** Bind a Unix-domain listening socket (unlinking any stale path). *)
val listen_unix : path:string -> Unix.file_descr

(** Bind 127.0.0.1:[port]; port 0 picks an ephemeral port — read it
    back with {!port_of}. *)
val listen_tcp : port:int -> Unix.file_descr

val port_of : Unix.file_descr -> int

(** Run the accept/dispatch loop. With [expect_conns], return once that
    many connections have been accepted and closed (the test/bench
    lifetime bound); without it, loop forever. *)
val serve :
  app:Hippo_apps.App.t ->
  metrics:Metrics.t ->
  listen:Unix.file_descr ->
  ?expect_conns:int ->
  unit ->
  unit

module Client : sig
  type t

  val connect_unix : path:string -> t
  val connect_tcp : port:int -> t
  val close : t -> unit

  exception Protocol_error of Protocol.error
  exception Disconnected

  (** One synchronous round trip. *)
  val rpc : t -> Protocol.request -> Protocol.reply
end
