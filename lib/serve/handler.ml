(** Request dispatch: one protocol request in, one reply out, over a
    uniform {!Hippo_apps.App} adapter.

    Per-op latency is the delta of the interpreter's simulated cost
    clock around the app call, recorded into the {!Metrics} histogram —
    deterministic for a given dispatch order. App-level argument
    rejections ([Invalid_argument], e.g. an over-capacity key) map to
    [Err] replies rather than killing the connection; protocol-level
    garbage never reaches this layer (the listener rejects it). *)

open Hippo_apps

let handle ~(app : App.t) ~(metrics : Metrics.t) (req : Protocol.request) :
    Protocol.reply =
  let kind = Protocol.kind_of_request req in
  let t0 = app.App.cost_ns () in
  let reply : Protocol.reply =
    try
      match req with
      | Set { key; value } ->
          app.App.insert ~key ~value;
          Ok_
      | Get { key } -> (
          match app.App.read ~key with
          | App.Found v -> Value v
          | App.Absent -> Not_found)
      | Del { key } -> Deleted (app.App.delete ~key)
      | Scan _ -> Unsupported (* neither app supports ordered iteration *)
      | Count -> Count_is (app.App.count ())
      | Stats ->
          (* reflects ops completed before this one *)
          Stats_are (Metrics.snapshot metrics)
    with Invalid_argument msg -> Err msg
  in
  let ns = int_of_float (app.App.cost_ns () -. t0) in
  Metrics.record metrics kind ~ns;
  reply

(** [handle_wire] round-trips the codec on both sides: the encoded
    request is decoded, handled, and the encoded reply returned — the
    exact server path minus the socket. The in-process driver uses this
    so CI exercises the same codec as the network listener. *)
let handle_wire ~app ~metrics (frame : string) : string =
  match Protocol.decode_request frame ~pos:0 with
  | Ok (req, next) ->
      if next <> String.length frame then
        Protocol.encode_reply (Err "trailing bytes after frame")
      else Protocol.encode_reply (handle ~app ~metrics req)
  | Error e -> Protocol.encode_reply (Err (Fmt.str "%a" Protocol.pp_error e))
