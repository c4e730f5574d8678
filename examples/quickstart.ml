(* Quickstart: repair the paper's Listing 5/6 program.

   [update] writes one byte through a pointer; [modify] wraps it. [foo]
   calls [modify] many times on volatile memory and once on persistent
   memory, then hits a crash point. The PM write is never flushed: a
   missing-flush&fence bug. Hippocrates should hoist the fix to the
   [modify(pm_addr)] call site (Listing 6 scores the candidates 0, 0, 1),
   creating [modify_PM]/[update_PM] clones — exactly Listing 5's output. *)

open Hippo_pmir
open Hippo_pmcheck
open Hippo_core

let listing5 () =
  let b = Builder.create () in
  let open Builder in
  let _ =
    func b "update" [ "addr"; "idx"; "val" ] ~body:(fun fb ->
        let a = gep fb (Value.reg "addr") (Value.reg "idx") in
        store fb ~size:1 ~addr:a (Value.reg "val");
        ret_void fb)
  in
  let _ =
    func b "modify" [ "addr" ] ~body:(fun fb ->
        call_void fb "update" [ Value.reg "addr"; Value.imm 0; Value.imm 42 ];
        ret_void fb)
  in
  let _ =
    func b "foo" [] ~body:(fun fb ->
        let vol = call fb "malloc" [ Value.imm 64 ] in
        let pm = call fb "pm_alloc" [ Value.imm 64 ] in
        for_ fb "i" ~from:(Value.imm 0) ~below:(Value.imm 1000) ~body:(fun _ ->
            call_void fb "modify" [ vol ]);
        call_void fb "modify" [ pm ];
        crash fb;
        ret_void fb)
  in
  Builder.program b

let () =
  let prog = listing5 () in
  Validate.check_exn prog;
  Fmt.pr "=== Original program ===@.%s@." (Printer.to_string prog);
  let workload t = ignore (Compile.call t "foo" []) in
  let result = Driver.repair ~name:"listing5" ~workload prog in
  Fmt.pr "=== Bugs found ===@.";
  List.iter (fun b -> Fmt.pr "  %a@." Report.pp_bug b) result.Driver.bugs;
  Fmt.pr "=== Fix plan ===@.";
  List.iter (fun f -> Fmt.pr "  %a@." Fix.pp f) result.Driver.plan.Fix.fixes;
  Fmt.pr "=== Repaired program ===@.%s@."
    (Printer.to_string result.Driver.repaired);
  Fmt.pr "=== Summary ===@.%a@." Driver.pp_summary result
