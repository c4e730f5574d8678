(** The network front end: a single-domain [Unix.select] event loop over
    a Unix-domain or TCP listening socket.

    One domain is deliberate: an interpreter session is not thread-safe
    and every op serializes on it anyway, so concurrency buys nothing —
    the loop multiplexes reads across connections and dispatches
    complete frames in arrival order. Each connection accumulates bytes
    in a buffer; frames are decoded greedily ([Truncated] simply waits
    for more bytes), and [Oversized]/[Malformed] input earns an [Err]
    reply followed by connection close. Replies are written
    synchronously — clients speak a synchronous RPC, so replies are one
    small frame each.

    [expect_conns] bounds the server's lifetime for tests and benches:
    the loop returns once that many connections have been accepted and
    have closed. *)

open Hippo_apps

(* [fd] once [setup fd] succeeds; when it raises, [fd] is closed first. *)
let set_up fd setup =
  match setup fd with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let listen_unix ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  set_up (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0) (fun fd ->
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64)

(** Binds 127.0.0.1; [port] 0 picks an ephemeral port — read it back
    with {!port_of}. *)
let listen_tcp ~port =
  set_up (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0) (fun fd ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64)

let port_of fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Listener.port_of: unix socket"

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let w = Unix.write_substring fd s off (n - off) in
      go (off + w)
  in
  go 0

(* Dispatch every complete frame in [c.buf]; returns [`Close] on a
   protocol violation (after sending an [Err] reply). *)
let drain ~app ~metrics c =
  let data = Buffer.contents c.buf in
  let rec go pos =
    match Protocol.decode_request data ~pos with
    | Ok (req, next) ->
        write_all c.fd (Protocol.encode_reply (Handler.handle ~app ~metrics req));
        go next
    | Error Protocol.Truncated ->
        Buffer.clear c.buf;
        Buffer.add_substring c.buf data pos (String.length data - pos);
        `Keep
    | Error e ->
        (try
           write_all c.fd
             (Protocol.encode_reply (Err (Fmt.str "%a" Protocol.pp_error e)))
         with Unix.Unix_error _ -> ());
        `Close
  in
  go 0

let serve ~(app : App.t) ~(metrics : Metrics.t) ~listen ?expect_conns () =
  let read_chunk = Bytes.create 65536 in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let closed = ref 0 in
  let close_conn c =
    Hashtbl.remove conns c.fd;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    incr closed
  in
  let finished () =
    match expect_conns with
    | Some n -> !closed >= n && Hashtbl.length conns = 0
    | None -> false
  in
  let accepting () =
    match expect_conns with
    | Some n -> !closed + Hashtbl.length conns < n
    | None -> true
  in
  while not (finished ()) do
    let fds =
      (if accepting () then [ listen ] else [])
      @ Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
    in
    let readable, _, _ = Unix.select fds [] [] (-1.0) in
    List.iter
      (fun fd ->
        if fd == listen then begin
          let cfd, _ = Unix.accept listen in
          Hashtbl.replace conns cfd { fd = cfd; buf = Buffer.create 4096 }
        end
        else
          match Hashtbl.find_opt conns fd with
          | None -> ()
          | Some c -> (
              match Unix.read fd read_chunk 0 (Bytes.length read_chunk) with
              | 0 -> close_conn c
              | n ->
                  Buffer.add_subbytes c.buf read_chunk 0 n;
                  if drain ~app ~metrics c = `Close then close_conn c
              | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
                  close_conn c))
      readable
  done

(* ------------------------------------------------------------------ *)
(* The synchronous RPC client (the load generator's side). *)

module Client = struct
  type t = { fd : Unix.file_descr; mutable pending : string }

  let of_fd fd = { fd; pending = "" }

  let connect_unix ~path =
    of_fd
      (set_up (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0) (fun fd ->
           Unix.connect fd (Unix.ADDR_UNIX path)))

  let connect_tcp ~port =
    of_fd
      (set_up (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0) (fun fd ->
           Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))))

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

  exception Protocol_error of Protocol.error
  exception Disconnected

  (* One synchronous round trip. *)
  let rpc t (req : Protocol.request) : Protocol.reply =
    write_all t.fd (Protocol.encode_request req);
    let chunk = Bytes.create 65536 in
    let rec await () =
      match Protocol.decode_reply t.pending ~pos:0 with
      | Ok (reply, next) ->
          t.pending <-
            String.sub t.pending next (String.length t.pending - next);
          reply
      | Error Protocol.Truncated -> (
          match Unix.read t.fd chunk 0 (Bytes.length chunk) with
          | 0 -> raise Disconnected
          | n ->
              t.pending <- t.pending ^ Bytes.sub_string chunk 0 n;
              await ())
      | Error e -> raise (Protocol_error e)
    in
    await ()
end
