(* A guided tour of the hoisting heuristic (paper §4.3, Listing 6).

   Rebuilds the paper's example, prints the candidate fix locations with
   their alias scores under both oracles, and shows the decision and the
   resulting patch. *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_core
open Hippo_engine

let v = Value.reg
let i = Value.imm

let listing6 () =
  let b = Builder.create () in
  let open Builder in
  let _ =
    func b "update" [ "addr"; "idx"; "val" ] ~body:(fun fb ->
        at fb 3;
        let a = gep fb (v "addr") (v "idx") in
        store fb ~size:1 ~addr:a (v "val");
        ret_void fb)
  in
  let _ =
    func b "modify" [ "addr" ] ~body:(fun fb ->
        at fb 7;
        call_void fb "update" [ v "addr"; i 0; i 42 ];
        ret_void fb)
  in
  let _ =
    func b "foo" [] ~body:(fun fb ->
        let vol = call fb "malloc" [ i 64 ] in
        let pm = call fb "pm_alloc" [ i 64 ] in
        for_ fb "k" ~from:(i 0) ~below:(i 100) ~body:(fun _ ->
            at fb 12;
            call_void fb "modify" [ vol ]);
        at fb 15;
        call_void fb "modify" [ pm ];
        at fb 16;
        crash fb;
        ret_void fb)
  in
  Builder.program b

let pp_candidate prog ppf = function
  | Heuristic.At_store -> Fmt.string ppf "the PM-modifying store itself"
  | Heuristic.At_call { call_site; callee; depth } ->
      let loc =
        match Program.find_instr prog call_site with
        | Some ins -> Loc.to_string (Instr.loc ins)
        | None -> "?"
      in
      Fmt.pf ppf "call to @%s at %s (%d frame%s up)" callee loc depth
        (if depth = 1 then "" else "s")

let show_decision prog label (oracle : Hippo_alias.Oracle.t) bug =
  let d = Heuristic.decide oracle prog bug in
  Fmt.pr "@.%s (%s):@." label oracle.Hippo_alias.Oracle.name;
  List.iter
    (fun (c, score) ->
      Fmt.pr "  score %+d  %a@." score (pp_candidate prog) c)
    d.Heuristic.scores;
  Fmt.pr "  -> chosen: %a@." (pp_candidate prog) d.Heuristic.choice

let () =
  let prog = listing6 () in
  Fmt.pr "Listing 6 (the paper's scoring example):@.%s@."
    (Printer.to_string prog);
  (* run the bug finder *)
  let t = Interp.create Interp.default_config prog in
  ignore (Interp.call t "foo" []);
  Interp.exit_check t;
  let bug = List.hd (Interp.bugs t) in
  Fmt.pr "bug under repair: %a@." Report.pp_bug bug;
  (* candidates and scores under both oracles *)
  let full = Hippo_alias.Oracle.of_program prog in
  let trace = Hippo_alias.Oracle.trace_aa (Interp.site_stats t) in
  show_decision prog "static alias analysis" full bug;
  show_decision prog "dynamic trace observations" trace bug;
  (* the resulting repair, as a patch *)
  let r =
    Driver.repair ~name:"listing6"
      ~workload:(fun t -> ignore (Interp.call t "foo" []))
      prog
  in
  Fmt.pr "@.resulting patch:@.%s@."
    (Diff.report ~original:prog ~repaired:r.Driver.repaired);
  Fmt.pr "@.%a@." Driver.pp_summary r
