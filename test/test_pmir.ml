(* Unit and property tests for the PMIR substrate: values, identities,
   the builder's structured control flow, the validator, the textual
   printer/parser round-trip, totality on mutated real programs, and
   function cloning. *)

open Hippo_pmir

let v = Value.reg
let i = Value.imm

(* ------------------------------------------------------------------ *)
(* Loc / Iid / Value *)

let test_loc_basics () =
  let l = Loc.make ~file:"a.c" ~line:3 in
  Alcotest.(check string) "to_string" "a.c:3" (Loc.to_string l);
  Alcotest.(check bool) "equal" true (Loc.equal l (Loc.make ~file:"a.c" ~line:3));
  Alcotest.(check bool) "not equal" false (Loc.equal l Loc.none);
  Alcotest.(check bool) "none" true (Loc.is_none Loc.none);
  Alcotest.(check int) "compare same" 0 (Loc.compare l l);
  Alcotest.(check bool) "ordered by file then line" true
    (Loc.compare (Loc.make ~file:"a.c" ~line:9) (Loc.make ~file:"b.c" ~line:1) < 0)

let test_iid_uniqueness () =
  let a = Iid.fresh ~func:"f" and b = Iid.fresh ~func:"f" in
  Alcotest.(check bool) "fresh ids differ" false (Iid.equal a b);
  Alcotest.(check bool) "same id equal" true (Iid.equal a a);
  let c = Iid.in_func a "g" in
  Alcotest.(check string) "rebound function" "g" (Iid.func c);
  Alcotest.(check int) "serial preserved" (Iid.serial a) (Iid.serial c);
  Alcotest.(check bool) "rebound differs" false (Iid.equal a c);
  let d = Iid.of_serial ~func:"f" (Iid.serial a) in
  Alcotest.(check bool) "of_serial reconstitutes" true (Iid.equal a d)

let test_value_forms () =
  Alcotest.(check bool) "reg equal" true (Value.equal (v "x") (v "x"));
  Alcotest.(check bool) "reg differs" false (Value.equal (v "x") (v "y"));
  Alcotest.(check bool) "imm vs null" false (Value.equal (i 0) Value.null);
  Alcotest.(check (list string)) "uses of reg" [ "x" ] (Value.uses (v "x"));
  Alcotest.(check (list string)) "uses of imm" [] (Value.uses (i 7));
  Alcotest.(check string) "pp global" "@g" (Value.to_string (Value.global "g"));
  Alcotest.(check string) "pp reg" "%x" (Value.to_string (v "x"))

(* ------------------------------------------------------------------ *)
(* Builder *)

let build_one ~body =
  let b = Builder.create () in
  let _ = Builder.func b "f" [ "p" ] ~body in
  Builder.program b

let test_builder_entry_first () =
  let p =
    build_one ~body:(fun fb ->
        Builder.block fb "other";
        Builder.ret_void fb)
  in
  let f = Program.find_exn p "f" in
  Alcotest.(check string) "entry block first" "entry" (Func.entry f).Func.label

let test_builder_if_truncates_dead_jump () =
  (* a then-branch ending in ret must not leave a trailing jump *)
  let p =
    build_one ~body:(fun fb ->
        Builder.if_ fb (v "p")
          ~then_:(fun () -> Builder.ret fb (i 1))
          ();
        Builder.ret fb (i 0))
  in
  Alcotest.(check (list Alcotest.reject)) "validates" [] (Validate.check p)

let test_builder_while_loop_shape () =
  let p =
    build_one ~body:(fun fb ->
        Builder.for_ fb "k" ~from:(i 0) ~below:(i 10) ~body:(fun _ -> ());
        Builder.ret_void fb)
  in
  let f = Program.find_exn p "f" in
  Alcotest.(check bool) "has >= 4 blocks" true (List.length (Func.blocks f) >= 4);
  Alcotest.(check (list Alcotest.reject)) "validates" [] (Validate.check p)

let test_builder_locations_monotonic () =
  let p =
    build_one ~body:(fun fb ->
        Builder.store fb ~addr:(v "p") (i 1);
        Builder.store fb ~addr:(v "p") (i 2);
        Builder.ret_void fb)
  in
  let f = Program.find_exn p "f" in
  match Func.instrs f with
  | [ a; b; _ ] ->
      Alcotest.(check bool) "lines increase" true
        (Loc.line (Instr.loc a) < Loc.line (Instr.loc b))
  | _ -> Alcotest.fail "unexpected shape"

let test_builder_at_pins_location () =
  let p =
    build_one ~body:(fun fb ->
        Builder.at fb 99;
        Builder.store fb ~addr:(v "p") (i 1);
        Builder.ret_void fb)
  in
  let f = Program.find_exn p "f" in
  match Func.instrs f with
  | s :: _ -> Alcotest.(check int) "pinned line" 99 (Loc.line (Instr.loc s))
  | _ -> Alcotest.fail "no instrs"

(* ------------------------------------------------------------------ *)
(* Func / Program *)

let sample_program () =
  let b = Builder.create () in
  Builder.global b "g" 16;
  let _ =
    Builder.func b "leaf" [ "x" ] ~body:(fun fb ->
        Builder.store fb ~addr:(v "x") (i 5);
        Builder.ret_void fb)
  in
  let _ =
    Builder.func b "main" [] ~body:(fun fb ->
        let p = Builder.call fb "pm_alloc" [ i 64 ] in
        Builder.call_void fb "leaf" [ p ];
        Builder.ret_void fb)
  in
  Builder.program b

let test_program_lookup () =
  let p = sample_program () in
  Alcotest.(check bool) "mem leaf" true (Program.mem p "leaf");
  Alcotest.(check bool) "no ghost" false (Program.mem p "ghost");
  Alcotest.(check (list string)) "order" [ "leaf"; "main" ] (Program.func_names p);
  Alcotest.(check int) "globals" 1 (List.length (Program.globals p));
  Alcotest.(check int) "size counts instrs" 5 (Program.size p)

let test_find_instr_by_iid () =
  let p = sample_program () in
  let f = Program.find_exn p "leaf" in
  let first = List.hd (Func.instrs f) in
  match Program.find_instr p (Instr.iid first) with
  | Some found ->
      Alcotest.(check bool) "same instr" true
        (Instr.op_equal (Instr.op found) (Instr.op first))
  | None -> Alcotest.fail "find_instr missed"

let test_call_sites () =
  let p = sample_program () in
  let f = Program.find_exn p "main" in
  let sites = Func.call_sites f in
  Alcotest.(check int) "two call sites" 2 (List.length sites);
  let _, callee, _ = List.nth sites 1 in
  Alcotest.(check string) "second is leaf" "leaf" callee

let test_map_instrs_replaces () =
  let p = sample_program () in
  let f = Program.find_exn p "leaf" in
  let doubled =
    Func.map_instrs
      (fun ins ->
        if Instr.is_store ins then [ ins; ins ] else [ ins ])
      f
  in
  Alcotest.(check int) "store duplicated" 3 (List.length (Func.instrs doubled))

(* ------------------------------------------------------------------ *)
(* Validator *)

let mk_func ?(params = []) name blocks = Func.make ~name ~params ~blocks

let raw_instr op = Instr.make ~iid:(Iid.fresh ~func:"f") ~loc:Loc.none op

let test_validator_rejects_missing_terminator () =
  let f =
    mk_func "f"
      [ { Func.label = "entry"; instrs = [ raw_instr (Instr.Fence { kind = Instr.Sfence }) ] } ]
  in
  let p = Program.of_funcs [ f ] in
  Alcotest.(check bool) "invalid" false (Validate.is_valid p)

let test_validator_rejects_undefined_register () =
  let f =
    mk_func "f"
      [
        {
          Func.label = "entry";
          instrs =
            [
              raw_instr (Instr.Store { addr = v "ghost"; value = i 1; size = 8; nontemporal = false });
              raw_instr (Instr.Ret None);
            ];
        };
      ]
  in
  Alcotest.(check bool) "invalid" false (Validate.is_valid (Program.of_funcs [ f ]))

let test_validator_rejects_bad_branch () =
  let f =
    mk_func "f"
      [ { Func.label = "entry"; instrs = [ raw_instr (Instr.Br { target = "nowhere" }) ] } ]
  in
  Alcotest.(check bool) "invalid" false (Validate.is_valid (Program.of_funcs [ f ]))

let test_validator_rejects_bad_callee_and_arity () =
  let callee_missing =
    mk_func "f"
      [
        {
          Func.label = "entry";
          instrs =
            [ raw_instr (Instr.Call { dst = None; callee = "nope"; args = [] });
              raw_instr (Instr.Ret None) ];
        };
      ]
  in
  Alcotest.(check bool) "undefined callee" false
    (Validate.is_valid (Program.of_funcs [ callee_missing ]));
  let p = sample_program () in
  let f = Program.find_exn p "main" in
  let bad_arity =
    Func.map_instrs
      (fun ins ->
        match Instr.op ins with
        | Instr.Call { dst; callee = "leaf"; _ } ->
            [ Instr.with_op ins (Instr.Call { dst; callee = "leaf"; args = [] }) ]
        | _ -> [ ins ])
      f
  in
  Alcotest.(check bool) "bad arity" false
    (Validate.is_valid (Program.update p bad_arity))

let test_validator_rejects_bad_size_and_global () =
  let f =
    mk_func "f"
      [
        {
          Func.label = "entry";
          instrs =
            [
              raw_instr (Instr.Store { addr = i 100; value = i 1; size = 3; nontemporal = false });
              raw_instr (Instr.Store { addr = Value.global "nog"; value = i 1; size = 8; nontemporal = false });
              raw_instr (Instr.Ret None);
            ];
        };
      ]
  in
  let errors = Validate.check (Program.of_funcs [ f ]) in
  Alcotest.(check int) "two errors" 2 (List.length errors)

let test_validator_rejects_duplicate_iids () =
  let id = Iid.fresh ~func:"f" in
  let ins op = Instr.make ~iid:id ~loc:Loc.none op in
  let f =
    mk_func "f"
      [
        {
          Func.label = "entry";
          instrs = [ ins (Instr.Fence { kind = Instr.Sfence }); ins (Instr.Ret None) ];
        };
      ]
  in
  Alcotest.(check bool) "duplicate iids rejected" false
    (Validate.is_valid (Program.of_funcs [ f ]))

(* One message of every kind the validator reports, byte for byte, in
   report order. *)
let test_validator_messages () =
  let at line op =
    Instr.make ~iid:(Iid.fresh ~func:"f") ~loc:(Loc.make ~file:"v.c" ~line) op
  in
  let store line ~addr ~size =
    at line (Instr.Store { addr; value = i 1; size; nontemporal = false })
  in
  let f =
    mk_func "f"
      [
        {
          Func.label = "entry";
          instrs =
            [
              store 1 ~addr:(v "ghost") ~size:8;
              store 2 ~addr:(Value.global "nog") ~size:8;
              store 3 ~addr:(i 100) ~size:3;
              at 4 (Instr.Alloca { dst = "a"; size = 0 });
              at 5 (Instr.Call { dst = None; callee = "nope"; args = [] });
              at 6 (Instr.Call { dst = None; callee = "h"; args = [ i 1 ] });
              at 6 (Instr.Call { dst = None; callee = "pm_alloc"; args = [] });
              at 7 (Instr.Br { target = "nowhere" });
              at 8 (Instr.Ret None);
            ];
        };
        { Func.label = "entry"; instrs = [ at 9 (Instr.Ret None) ] };
        { Func.label = "empty"; instrs = [] };
        {
          Func.label = "open";
          instrs = [ at 10 (Instr.Fence { kind = Instr.Sfence }) ];
        };
      ]
  in
  let g = mk_func "g" [] in
  let id = Iid.fresh ~func:"h" in
  let h =
    mk_func "h"
      [
        {
          Func.label = "entry";
          instrs =
            [
              Instr.make ~iid:id ~loc:Loc.none
                (Instr.Fence { kind = Instr.Sfence });
              Instr.make ~iid:id ~loc:Loc.none (Instr.Ret None);
            ];
        };
      ]
  in
  let messages =
    List.map (Fmt.str "%a" Validate.pp_error)
      (Validate.check (Program.of_funcs [ f; g; h ]))
  in
  Alcotest.(check (list string)) "messages"
    [
      Printf.sprintf "h: duplicate instruction identity h#%d" (Iid.serial id);
      {|f: duplicate block label "entry"|};
      "f at v.c:1: use of undefined register %ghost";
      "f at v.c:2: reference to undefined global @nog";
      "f at v.c:3: invalid access size 3";
      "f at v.c:4: non-positive alloca size 0";
      "f at v.c:5: call to undefined function @nope";
      "f at v.c:6: call to @h with 1 arguments (expects 0)";
      "f at v.c:6: call to @pm_alloc with 0 arguments (expects 1)";
      {|f at v.c:7: branch to undefined label "nowhere"|};
      "f at v.c:7: terminator is not the last instruction of its block";
      {|f: block "empty" is empty (needs a terminator)|};
      {|f: block "open" does not end in a terminator|};
      "g: function has no blocks";
    ]
    messages

(* Allocation guard: validating flush-free Redis costs walking its
   instructions, not a formatted location per instruction (about 420
   minor words each when every location was formatted). *)
let test_validator_allocation_guard () =
  let prog = Hippo_apps.Redis_mini.build Hippo_apps.Redis_mini.Flush_free in
  Gc.minor ();
  let before = Gc.minor_words () in
  let errors = Validate.check prog in
  Gc.minor ();
  let per_instr =
    (Gc.minor_words () -. before) /. float_of_int (Program.size prog)
  in
  Alcotest.(check int) "valid" 0 (List.length errors);
  if per_instr >= 150. then
    Alcotest.failf "Validate.check allocated %.1f minor words per instruction"
      per_instr

let test_validator_accepts_builder_output () =
  Alcotest.(check (list Alcotest.reject)) "sample ok" [] (Validate.check (sample_program ()))

(* ------------------------------------------------------------------ *)
(* Printer / Parser round trip *)

let test_roundtrip_sample () =
  let p = sample_program () in
  let p' = Parser.program (Printer.to_string p) in
  Alcotest.(check bool) "round trip" true (Program.equal_modulo_iid p p')

let test_parser_locations () =
  let src =
    "func @f(%p) {\nentry:\n  store.i64 1 -> %p @ \"x.c\":42\n  ret\n}\n"
  in
  let p = Parser.program src in
  let f = Program.find_exn p "f" in
  match Func.instrs f with
  | s :: _ ->
      Alcotest.(check string) "file" "x.c" (Loc.file (Instr.loc s));
      Alcotest.(check int) "line" 42 (Loc.line (Instr.loc s))
  | _ -> Alcotest.fail "no instrs"

let test_parser_comments_and_negatives () =
  let src =
    "; leading comment\nfunc @f() {\nentry: ; trailing\n  %x = mov -7\n  ret %x\n}\n"
  in
  let p = Parser.program src in
  Alcotest.(check bool) "valid" true (Validate.is_valid p)

let test_parser_errors () =
  let bad = [ "func f() {"; "func @f( {"; "func @f() {\nentry:\n  frob\n}" ] in
  List.iter
    (fun src ->
      match Parser.program src with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.fail ("accepted bad input: " ^ src))
    bad

(* qcheck: random straight-line programs round-trip through the text. *)

let gen_program : Program.t QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = oneofl [ "a"; "b"; "c"; "p" ] in
  let value =
    oneof [ map Value.reg reg; map Value.imm (int_range (-100) 100); return Value.null ]
  in
  let size = oneofl [ 1; 2; 4; 8 ] in
  let nsteps = int_range 0 12 in
  let* n = nsteps in
  let* steps =
    list_repeat n
      (oneof
         [
           (let* d = reg and* a = value in
            return (`Load (d, a)));
           (let* a = value and* vl = value and* sz = size in
            return (`Store (a, vl, sz)));
           (let* a = value in
            return (`Flush a));
           return `Fence;
           (let* d = reg and* l = value and* r = value in
            return (`Add (d, l, r)));
           (let* d = reg and* s = value in
            return (`Mov (d, s)));
         ])
  in
  return
    (let b = Builder.create () in
     let _ =
       Builder.func b "main" [] ~body:(fun fb ->
           (* define every register first so uses always validate *)
           List.iter
             (fun r -> ignore (Builder.set fb r (Value.imm 0)))
             [ "a"; "b"; "c"; "p" ];
           List.iter
             (function
               | `Load (d, a) ->
                   ignore (Builder.set fb d (Builder.load fb a))
               | `Store (a, vl, sz) -> Builder.store fb ~size:sz ~addr:a vl
               | `Flush a -> Builder.flush fb a
               | `Fence -> Builder.fence fb ()
               | `Add (d, l, r) -> ignore (Builder.set fb d (Builder.add fb l r))
               | `Mov (d, s) -> ignore (Builder.set fb d s))
             steps;
           Builder.ret_void fb)
     in
     Builder.program b)

let arb_program =
  QCheck.make gen_program ~print:(fun p -> Printer.to_string p)

let prop_roundtrip =
  QCheck.Test.make ~name:"printer/parser round-trip" ~count:200 arb_program
    (fun p -> Program.equal_modulo_iid p (Parser.program (Printer.to_string p)))

let prop_builder_validates =
  QCheck.Test.make ~name:"builder output validates" ~count:200 arb_program
    Validate.is_valid

(* qcheck: near misses of real programs. Every PMIR input is outside
   input, so a mutant must fail to parse with [Parse_error] or, once it
   parses and validates, run through the static checker and both
   execution tiers without an untyped exception, the tiers agreeing. *)

let mutation_subjects =
  lazy
    (Array.of_list
       (List.map
          (fun (c : Hippo_pmdk_mini.Case.t) ->
            Printer.to_string (Lazy.force c.Hippo_pmdk_mini.Case.program))
          Hippo_pmdk_mini.Bugs.all
       @ [
           Printer.to_string
             (Hippo_apps.Redis_mini.build Hippo_apps.Redis_mini.Flush_free);
         ]))

let token_alphabet =
  [|
    "%"; "@"; ":"; ","; "("; ")"; "{"; "}"; "="; "\""; "-"; ">"; " "; "\n";
    "0"; "1"; "64"; "-1"; "x"; "main"; "entry"; "func"; "ret"; "br"; "call";
    "crash"; "gep"; "load.i64"; "store.i8"; "flush.clwb"; "fence.sfence";
  |]

(* 1-4 single bytes of one subject, each replaced by an alphabet token *)
let gen_mutant st =
  let subjects = Lazy.force mutation_subjects in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let text = ref (pick subjects) in
  for _ = 1 to 1 + Random.State.int st 4 do
    let n = String.length !text in
    let pos = Random.State.int st n in
    text :=
      String.sub !text 0 pos ^ pick token_alphabet
      ^ String.sub !text (pos + 1) (n - pos - 1)
  done;
  !text

(* what the tiers must agree on: the result or trap message, the bug
   count and the output *)
let tier_outcome run =
  let open Hippo_pmcheck in
  match run () with
  | t, ret -> Ok (ret, List.length (Machine.bugs t), Machine.output t)
  | exception Mem.Trap m -> Error m

let prop_mutants_total =
  QCheck.Test.make ~count:1000
    ~name:"mutated programs: parse errors typed, checker and tiers total"
    (QCheck.make ~print:Fun.id gen_mutant)
    (fun text ->
      match Parser.program text with
      | exception Parser.Parse_error _ -> true
      | prog when not (Validate.is_valid prog) -> true
      | prog -> (
          ignore (Hippo_staticcheck.Checker.check prog);
          match Program.func_names prog with
          | [] -> true
          | first :: _ ->
              let open Hippo_pmcheck in
              let entry = if Program.mem prog "main" then "main" else first in
              let config =
                { Machine.default_config with fuel = 200_000; trace = false }
              in
              let interp () = Interp.run ~config prog ~entry ~args:[] in
              let compiled () = Compile.run ~config prog ~entry ~args:[] in
              tier_outcome interp = tier_outcome compiled))

(* ------------------------------------------------------------------ *)
(* Clone *)

let test_clone_mapping () =
  let p = sample_program () in
  let f = Program.find_exn p "leaf" in
  let clone, mapping = Clone.func ~new_name:"leaf_PM" f in
  Alcotest.(check string) "renamed" "leaf_PM" (Func.name clone);
  Alcotest.(check int) "same instr count"
    (List.length (Func.instrs f))
    (List.length (Func.instrs clone));
  Alcotest.(check bool) "body equal mod iid" true
    (Func.equal_modulo_iid
       (Func.make ~name:"x" ~params:(Func.params f) ~blocks:(Func.blocks f))
       (Func.make ~name:"x" ~params:(Func.params clone) ~blocks:(Func.blocks clone)));
  List.iter
    (fun ins ->
      match Iid.Tbl.find_opt mapping (Instr.iid ins) with
      | Some cloned_id ->
          Alcotest.(check string) "clone iid in clone func" "leaf_PM"
            (Iid.func cloned_id)
      | None -> Alcotest.fail "instruction missing from mapping")
    (Func.instrs f)

let test_retarget_calls () =
  let p = sample_program () in
  let f = Program.find_exn p "main" in
  let f' =
    Clone.retarget_calls f ~rename:(function
      | "leaf" -> Some "leaf_PM"
      | _ -> None)
  in
  let callees =
    List.filter_map
      (fun ins ->
        match Instr.op ins with
        | Instr.Call { callee; _ } -> Some callee
        | _ -> None)
      (Func.instrs f')
  in
  Alcotest.(check (list string)) "retargeted" [ "pm_alloc"; "leaf_PM" ] callees

let suite =
  [
    ("loc basics", `Quick, test_loc_basics);
    ("iid uniqueness", `Quick, test_iid_uniqueness);
    ("value forms", `Quick, test_value_forms);
    ("builder entry first", `Quick, test_builder_entry_first);
    ("builder dead jump truncation", `Quick, test_builder_if_truncates_dead_jump);
    ("builder loop shape", `Quick, test_builder_while_loop_shape);
    ("builder locations monotonic", `Quick, test_builder_locations_monotonic);
    ("builder location pinning", `Quick, test_builder_at_pins_location);
    ("program lookup", `Quick, test_program_lookup);
    ("find instr by iid", `Quick, test_find_instr_by_iid);
    ("call sites", `Quick, test_call_sites);
    ("map_instrs", `Quick, test_map_instrs_replaces);
    ("validator: missing terminator", `Quick, test_validator_rejects_missing_terminator);
    ("validator: undefined register", `Quick, test_validator_rejects_undefined_register);
    ("validator: bad branch", `Quick, test_validator_rejects_bad_branch);
    ("validator: bad callee/arity", `Quick, test_validator_rejects_bad_callee_and_arity);
    ("validator: bad size/global", `Quick, test_validator_rejects_bad_size_and_global);
    ("validator: duplicate iids", `Quick, test_validator_rejects_duplicate_iids);
    ("validator: messages", `Quick, test_validator_messages);
    ("validator: allocation guard", `Quick, test_validator_allocation_guard);
    ("validator: accepts builder output", `Quick, test_validator_accepts_builder_output);
    ("roundtrip sample", `Quick, test_roundtrip_sample);
    ("parser locations", `Quick, test_parser_locations);
    ("parser comments/negatives", `Quick, test_parser_comments_and_negatives);
    ("parser errors", `Quick, test_parser_errors);
    ("clone mapping", `Quick, test_clone_mapping);
    ("retarget calls", `Quick, test_retarget_calls);
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_builder_validates;
    QCheck_alcotest.to_alcotest prop_mutants_total;
  ]
