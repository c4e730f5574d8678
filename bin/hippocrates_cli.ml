(* The hippocrates command-line tool, mirroring the artifact's workflow:

     hippocrates check prog.pmir --entry main --trace-out prog.trace
     hippocrates fix prog.pmir --trace prog.trace -o prog.fixed.pmir
     hippocrates fix prog.pmir --entry main -o prog.fixed.pmir
     hippocrates run prog.pmir --entry main
     hippocrates corpus

   `check` runs the pmemcheck-style bug finder over a textual PMIR program
   and writes an on-disk trace (events + site statistics + bug reports);
   `fix` consumes either that trace or re-runs the finder itself, applies
   Hippocrates, verifies, and writes the repaired program. *)

open Cmdliner
open Hippo_pmir
open Hippo_pmcheck
open Hippo_core

let ( let* ) = Result.bind

let read_program path =
  try Ok (Parser.program_of_file path) with
  | Parser.Parse_error { line; msg } ->
      Error (Fmt.str "%s:%d: %s" path line msg)
  | Sys_error e -> Error e

(* An output path is outside input like a program file: an unwritable one
   is [Error "<path>: <message>"] (a [Sys_error] message starts with the
   path), never an exception. [writing] wraps the library writers. *)
let writing f = try Ok (f ()) with Sys_error m -> Error m

let write_file path output =
  writing (fun () -> Out_channel.with_open_text path output)

let validate_or_die prog =
  match Validate.check prog with
  | [] -> Ok ()
  | errors ->
      Error
        (Fmt.str "@[<v>invalid program:@,%a@]"
           (Fmt.list Validate.pp_error) errors)

let parse_args (args : string list) =
  try Ok (List.map int_of_string args)
  with Failure _ -> Error "entry arguments must be integers"

(* Every command that executes [entry] checks it first, so an undefined
   entry is an error before anything runs, not a trap during the run. *)
let require_entry prog entry =
  if Program.mem prog entry then Ok ()
  else Error (Fmt.str "no function @%s in the program" entry)

(* A program that traps, aborts or runs out of fuel stops execution:
   [Error cause], never an exception. *)
let stopping f =
  try Ok (f ()) with
  | Mem.Trap m -> Error (Fmt.str "trap: %s" m)
  | Machine.Aborted -> Error "abort() called"
  | Machine.Out_of_fuel -> Error "out of fuel"

(* A repair or a crash sweep that executes [entry] fails when the program
   stops, naming the entry function and the cause. *)
let executing ~entry f =
  Result.map_error (Fmt.str "%s() stopped: %s" entry) (stopping f)

let run_workload prog ~trace ~entry ~args =
  let t =
    Machine.create { Machine.default_config with Machine.trace } prog
  in
  let ret = stopping (fun () -> Compile.call t entry args) in
  Machine.exit_check t;
  (t, ret)

(* ------------------------------------------------------------------ *)

let prog_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"PROGRAM" ~doc:"Textual PMIR program file.")

let entry_arg =
  Arg.(
    value & opt string "main"
    & info [ "entry" ] ~docv:"FUNC" ~doc:"Entry function to execute.")

let entry_args_arg =
  Arg.(
    value & opt_all string []
    & info [ "arg" ] ~docv:"INT" ~doc:"Integer argument for the entry call.")

let exits = [ Cmd.Exit.info 1 ~doc:"on failure" ]

(* Every command body returns [Ok exit_code] or [Error message]; an error
   prints as "error: <message>" on stderr and exits 1. *)
let exit_code = function
  | Ok code -> code
  | Error e ->
      Fmt.epr "error: %s@." e;
      1

let command info term = Cmd.v info Term.(const exit_code $ term)

(* Count flags parse through these, so a value the workload code cannot
   take is a usage error (exit 124) before anything runs. *)
let int_at_least ~min ~kind =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ -> Error (`Msg (Fmt.str "expected %s, got %S" kind s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least ~min:1 ~kind:"a positive integer"
let non_negative_int = int_at_least ~min:0 ~kind:"a non-negative integer"

let jobs_arg =
  Arg.(
    value
    & opt positive_int (Hippo_parallel.Pool.default_domains ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Domain budget for parallel phases (verification and crash \
              sweeps). Defaults to $(b,HIPPO_JOBS) when set, otherwise the \
              machine's recommended domain count. $(b,--jobs 1) is fully \
              serial, with byte-identical output.")

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Root RNG seed for randomized modes (fuzzing, crash-point \
              sampling). Every worker derives its own substream from this \
              one value, so results are reproducible at any $(b,--jobs).")

let format_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("pmemcheck", Tracefile.Pmemcheck); ("pmtest", Tracefile.Pmtest) ])
        Tracefile.Pmemcheck
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"Trace dialect: $(b,pmemcheck) (native, with site statistics) \
              or $(b,pmtest) (assertion-log style; Full-AA repairs only).")

(* check ------------------------------------------------------------- *)

(* Static entry points: the --entry function when the program defines it,
   the checker's own root inference otherwise. *)
let static_entries prog ~entry =
  if Program.mem prog entry then Some [ entry ] else None

let check_cmd =
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the PM operation trace, site statistics and bug \
                reports to $(docv).")
  in
  let static_flag =
    Arg.(
      value & flag
      & info [ "static" ]
          ~doc:"Use the static durability analyzer instead of executing a \
                workload: abstract interpretation from $(b,--entry) (or \
                the program's roots), no trace events or site statistics.")
  in
  let crash_sweep_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "crash-sweep" ] ~docv:"CHECKER"
          ~doc:"After the bug scan, enumerate every crash point of the \
                workload; for each, recover the pessimistic (durable) and \
                lucky (fully-evicted) crash images by calling $(docv) — a \
                function in the program that returns nonzero when the \
                recovered state satisfies the application invariant. Crash \
                points are independent scenarios and fan out across \
                $(b,--jobs) worker domains.")
  in
  let crash_sample_arg =
    Arg.(
      value & opt non_negative_int 0
      & info [ "crash-sample" ] ~docv:"K"
          ~doc:"With $(b,--crash-sweep), check only $(docv) crash points \
                sampled uniformly (seeded by $(b,--seed)) instead of every \
                one — a bounded probe for workloads with many crash \
                points.")
  in
  let run prog_path entry args trace_out format static crash_sweep
      crash_sample seed jobs =
    let write_trace path file =
      write_file path (fun oc ->
          output_string oc (Tracefile.to_string format file))
    in
    let sampled_sweep prog ~setup ~checker =
      let n = Crashsim.count_crash_points prog ~setup in
      let k = min crash_sample n in
      Fmt.pr "seed: %d (sampling %d of %d crash points)@." seed k n;
      let rand = Hippo_parallel.Stream.state ~seed [ 2 ] in
      let chosen = Hashtbl.create 16 in
      while Hashtbl.length chosen < k do
        Hashtbl.replace chosen (1 + Random.State.int rand n) ()
      done;
      let indices = List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) chosen []) in
      ( List.map
          (fun crash_index ->
            Crashsim.check_crash prog ~setup ~checker ~checker_args:[]
              ~crash_index)
          indices,
        None )
    in
    let crash_sweep_check prog ~args =
      match crash_sweep with
      | None -> Ok 0
      | Some checker when not (Program.mem prog checker) ->
          Error (Fmt.str "--crash-sweep: no function %S in the program" checker)
      | Some checker ->
          let* verdicts, stats =
            executing ~entry (fun () ->
                if crash_sample > 0 then
                  sampled_sweep prog ~setup:[ (entry, args) ] ~checker
                else
                  let v, s =
                    Crashsim.sweep_with_stats ~jobs prog
                      ~setup:[ (entry, args) ] ~checker ~checker_args:[]
                  in
                  (v, Some s))
          in
          List.iter
            (fun (v : Crashsim.verdict) ->
              Fmt.pr "  crash point %2d: pessimistic %s, lucky %s@."
                v.Crashsim.crash_index
                (if v.Crashsim.pessimistic_ok then "recovers" else "LOST")
                (if v.Crashsim.lucky_ok then "recovers" else "LOST"))
            verdicts;
          (match stats with
          | Some stats ->
              Fmt.pr
                "crash images: %d distinct of %d captured; recovery runs: \
                 %d (%d memoized)@."
                stats.Crashsim.distinct_images
                (2 * stats.Crashsim.crash_points)
                stats.Crashsim.recovery_runs stats.Crashsim.memo_hits
          | None -> ());
          let ok = List.filter Crashsim.consistent verdicts in
          Fmt.pr "crash consistent: %s (%d/%d crash points recover)@."
            (if List.length ok = List.length verdicts then "yes" else "NO")
            (List.length ok) (List.length verdicts);
          Ok (if List.length ok = List.length verdicts then 0 else 1)
    in
    let static_check prog =
      let r =
        Hippo_staticcheck.Checker.check ?entries:(static_entries prog ~entry)
          prog
      in
      Fmt.pr "static analysis: %d entr%s, %d summaries (%d reused)@."
        (List.length r.Hippo_staticcheck.Checker.stats.entries)
        (if List.length r.Hippo_staticcheck.Checker.stats.entries = 1 then "y"
         else "ies")
        r.Hippo_staticcheck.Checker.stats.summaries_computed
        r.Hippo_staticcheck.Checker.stats.summary_hits;
      let bugs = r.Hippo_staticcheck.Checker.bugs in
      Fmt.pr "durability bugs: %d@." (List.length bugs);
      List.iter (fun b -> Fmt.pr "  %a@." Report.pp_bug b) bugs;
      let* () =
        match trace_out with
        | Some path ->
            (* bug reports only: there is no execution, hence no events or
               site statistics; `fix --trace` accepts the file (Full-AA) *)
            let* () =
              write_trace path
                { Tracefile.events = []; stats = Sitestats.create (); bugs }
            in
            Fmt.pr "reports written to %s@." path;
            Ok ()
        | None -> Ok ()
      in
      Ok (if bugs = [] then 0 else 1)
    in
    let* prog = read_program prog_path in
    let* () = validate_or_die prog in
    let* () =
      if static && crash_sweep <> None then
        Error "--crash-sweep needs a dynamic workload; drop --static"
      else Ok ()
    in
    if static then static_check prog
    else
    let* () = require_entry prog entry in
    let* args = parse_args args in
    (* the event trace is only materialized when it is written out *)
    let t, ret = run_workload prog ~trace:(trace_out <> None) ~entry ~args in
    (match ret with
    | Ok r -> Fmt.pr "%s(%a) returned %d@." entry Fmt.(list ~sep:comma int) args r
    | Error e -> Fmt.pr "execution stopped: %s@." e);
    let bugs = Machine.bugs t in
    let ps = Machine.pstate t in
    Fmt.pr "PM stores: %d, flushes: %d, fences: %d@." (Pstate.stores ps)
      (Pstate.flushes ps) (Pstate.fences ps);
    Fmt.pr "durability bugs: %d@." (List.length bugs);
    List.iter (fun b -> Fmt.pr "  %a@." Report.pp_bug b) bugs;
    let* () =
      match trace_out with
      | Some path ->
          let* () =
            write_trace path
              {
                Tracefile.events = Machine.trace t;
                stats = Machine.site_stats t;
                bugs = Machine.raw_bugs t;
              }
          in
          Fmt.pr "trace written to %s@." path;
          Ok ()
      | None -> Ok ()
    in
    let* sweep_code = crash_sweep_check prog ~args in
    Ok (if bugs = [] && sweep_code = 0 then 0 else 1)
  in
  command
    (Cmd.info "check" ~exits
       ~doc:"Run the pmemcheck-style durability bug finder (or, with \
             $(b,--static), the workload-free static analyzer); optionally \
             follow with a crash-point recovery sweep ($(b,--crash-sweep)).")
    Term.(
      const run $ prog_arg $ entry_arg $ entry_args_arg $ trace_out
      $ format_arg $ static_flag $ crash_sweep_arg $ crash_sample_arg
      $ seed_arg $ jobs_arg)

(* fix --------------------------------------------------------------- *)

(* A trace file is outside input like a program file: an unreadable or
   malformed one is [Error "<file>: <message>"], never an exception. *)
let load_trace_file ~format path =
  match In_channel.with_open_bin path In_channel.input_all with
  | content -> (
      try Ok (Tracefile.of_string format content)
      with Trace.Bad_trace m -> Error (Fmt.str "%s: %s" path m))
  | exception Sys_error m ->
      (* open errors already name the file; read errors do not *)
      let prefix = path ^ ": " in
      Error (if String.starts_with ~prefix m then m else prefix ^ m)

let fix_cmd =
  let trace_in =
    Arg.(
      value & opt (some file) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Bug-finder trace produced by $(b,check --trace-out); when \
                absent the finder is run in-process on $(b,--entry).")
  in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the repaired program to $(docv) (default: stdout).")
  in
  let no_hoist =
    Arg.(
      value & flag
      & info [ "no-hoist" ]
          ~doc:"Disable Phase 3 (interprocedural hoisting); produce only \
                intraprocedural fixes.")
  in
  let oracle_choice =
    Arg.(
      value
      & opt (enum [ ("full-aa", Driver.Full_aa); ("trace-aa", Driver.Trace_aa) ])
          Driver.Full_aa
      & info [ "oracle" ] ~docv:"ORACLE"
          ~doc:"Alias oracle for the heuristic: $(b,full-aa) (whole-program \
                Andersen) or $(b,trace-aa) (dynamic observations only).")
  in
  let diff_flag =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:"Print a patch-style summary of the inserted fixes to \
                stderr.")
  in
  let portable_flag =
    Arg.(
      value & flag
      & info [ "portable" ]
          ~doc:"Emit fixes as libpmem-style pmem_flush/pmem_drain calls \
                (runtime-dispatched, PMDK developer style) instead of raw \
                clwb/sfence; requires the program to link the runtime.")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the engine's structured per-pass events (timings, \
                counters, fix provenance) to $(docv) as JSON-lines, and \
                print a per-phase timing breakdown to stderr.")
  in
  let detector_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("dynamic", Driver.Dynamic);
               ("static", Driver.Static);
               ("both", Driver.Both);
             ])
          Driver.Dynamic
      & info [ "detector" ] ~docv:"DETECTOR"
          ~doc:"Where bug reports come from: $(b,dynamic) (execute \
                $(b,--entry) under the bug finder), $(b,static) (the \
                workload-free analyzer; verification is static too) or \
                $(b,both) (union of the two). Ignored with $(b,--trace).")
  in
  let optimize_flag =
    Arg.(
      value & flag
      & info [ "optimize" ]
          ~doc:"After repair, run the Bent\xc5\x8d-style flush/fence \
                optimizer over the repaired program: deletions must be \
                provably redundant on every path, and the whole rewrite \
                is reverted if the static bug reports change at all.")
  in
  let run prog_path entry args trace_in output no_hoist oracle_choice format
      portable diff detector optimize trace_out jobs =
    let* prog = read_program prog_path in
    let* () = validate_or_die prog in
    let* args = parse_args args in
    Fmt.epr "input:    %a@."
      Hippo_perfmodel.Timed.pp_static_counts
      (Hippo_perfmodel.Timed.static_counts prog);
    let collected = ref [] in
    let trace e = collected := e :: !collected in
    let options =
      {
        Driver.default_options with
        hoisting = not no_hoist;
        oracle = oracle_choice;
        style = (if portable then Apply.Portable else Apply.Direct);
        jobs;
      }
    in
    let* repaired, report =
      match trace_in with
      | Some path ->
          let* file = load_trace_file ~format path in
          let bugs = Report.dedup file.Tracefile.bugs in
          let oracle =
            match oracle_choice with
            | Driver.Full_aa -> Hippo_alias.Oracle.of_program prog
            | Driver.Trace_aa ->
                Hippo_alias.Oracle.trace_aa file.Tracefile.stats
          in
          let plan, _, eliminated =
            Driver.plan ~options ~trace ~oracle prog bugs
          in
          let repaired, stats' =
            Apply.apply ~style:options.Driver.style ~oracle prog plan
          in
          Ok
            ( repaired,
              Fmt.str
                "bugs: %d; fixes: %d (%d intra, %d inter); reduction \
                 eliminated %d; clones: %d"
                (List.length bugs)
                (List.length plan.Fix.fixes)
                (Fix.count_intra plan) (Fix.count_hoisted plan) eliminated
                stats'.Apply.clones_created )
      | None when detector = Driver.Static ->
          let r =
            Driver.repair_static ~options ~trace
              ?entries:(static_entries prog ~entry)
              ~name:prog_path prog
          in
          if r.Driver.s_residual <> [] then
            Error
              (Fmt.str
                 "verification failed: %d static bug(s) remain after \
                  repair"
                 (List.length r.Driver.s_residual))
          else
            Ok (r.Driver.s_repaired, Fmt.str "%a" Driver.pp_static_summary r)
      | None ->
          let* () = require_entry prog entry in
          let workload t = ignore (Compile.call t entry args) in
          let* r =
            executing ~entry (fun () ->
                Driver.repair ~options ~detector ~trace
                  ?static_entries:(static_entries prog ~entry)
                  ~name:prog_path ~workload prog)
          in
          if not (Verify.effective r.Driver.verification) then
            Error "verification failed: residual bugs after repair"
          else if not (Verify.harm_free r.Driver.verification) then
            Error "verification failed: repaired program diverges"
          else
            Ok (r.Driver.repaired, Fmt.str "%a" Driver.pp_summary r)
    in
    Fmt.epr "repaired: %a@."
      Hippo_perfmodel.Timed.pp_static_counts
      (Hippo_perfmodel.Timed.static_counts repaired);
    Fmt.epr "%s@." report;
    let repaired =
      if not optimize then repaired
      else begin
        let r =
          Driver.optimize
            ?entries:(static_entries repaired ~entry)
            ~name:prog_path repaired
        in
        Fmt.epr "%a@." Driver.pp_opt_summary r;
        r.Driver.t_outcome.Hippo_engine.Optimize.o_prog
      end
    in
    let* () =
      match trace_out with
      | Some path ->
          let events = List.rev !collected in
          let* () =
            writing (fun () -> Hippo_engine.Event.write_jsonl path events)
          in
          Fmt.epr "%d engine events written to %s@." (List.length events)
            path;
          Fmt.epr "%a" Hippo_engine.Event.pp_table events;
          Ok ()
      | None -> Ok ()
    in
    if diff then
      Fmt.epr "%s@." (Diff.report ~original:prog ~repaired);
    let text = Printer.to_string repaired in
    let* () =
      match output with
      | Some path -> write_file path (fun oc -> output_string oc text)
      | None ->
          print_string text;
          Ok ()
    in
    Ok 0
  in
  command
    (Cmd.info "fix" ~exits ~doc:"Repair durability bugs with Hippocrates.")
    Term.(
      const run $ prog_arg $ entry_arg $ entry_args_arg $ trace_in $ output
      $ no_hoist $ oracle_choice $ format_arg $ portable_flag $ diff_flag
      $ detector_arg $ optimize_flag $ trace_out $ jobs_arg)

(* optimize ---------------------------------------------------------- *)

let optimize_cmd =
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the optimized program to $(docv) (default: stdout).")
  in
  let removals_flag =
    Arg.(
      value & flag
      & info [ "removals" ]
          ~doc:"List every deleted instruction (function, location, rule) \
                on stderr.")
  in
  let run prog_path entry output removals =
    let* prog = read_program prog_path in
    let* () = validate_or_die prog in
    Fmt.epr "input:    %a@."
      Hippo_perfmodel.Timed.pp_static_counts
      (Hippo_perfmodel.Timed.static_counts prog);
    let r =
      Driver.optimize
        ?entries:(static_entries prog ~entry)
        ~name:prog_path prog
    in
    Fmt.epr "%a@." Driver.pp_opt_summary r;
    if removals then
      List.iter
        (fun rm -> Fmt.epr "  %a@." Hippo_engine.Optimize.pp_removal rm)
        r.Driver.t_outcome.Hippo_engine.Optimize.o_removals;
    let text =
      Printer.to_string r.Driver.t_outcome.Hippo_engine.Optimize.o_prog
    in
    let* () =
      match output with
      | Some path -> write_file path (fun oc -> output_string oc text)
      | None ->
          print_string text;
          Ok ()
    in
    Ok (if r.Driver.t_outcome.Hippo_engine.Optimize.o_reverted then 1 else 0)
  in
  command
    (Cmd.info "optimize" ~exits
       ~doc:"Remove provably-redundant flushes and fences (Bent\xc5\x8d-style), \
             reverting wholesale if the static bug reports change at all.")
    Term.(const run $ prog_arg $ entry_arg $ output $ removals_flag)

(* run --------------------------------------------------------------- *)

let run_cmd =
  let run prog_path entry args =
    let* prog = read_program prog_path in
    let* () = validate_or_die prog in
    let* () = require_entry prog entry in
    let* args = parse_args args in
    (* plain execution: nothing reads the event trace, so keep it off *)
    let t, ret = run_workload prog ~trace:false ~entry ~args in
    (match ret with
    | Ok r -> Fmt.pr "returned %d@." r
    | Error e -> Fmt.pr "execution stopped: %s@." e);
    (match Machine.output t with
    | [] -> ()
    | out -> Fmt.pr "output: %a@." Fmt.(list ~sep:comma int) out);
    Ok (match ret with Ok _ -> 0 | Error _ -> 1)
  in
  command
    (Cmd.info "run" ~exits ~doc:"Execute a PMIR program.")
    Term.(const run $ prog_arg $ entry_arg $ entry_args_arg)

(* fuzz -------------------------------------------------------------- *)

let fuzz_cmd =
  let time_arg =
    Arg.(
      value & opt float 0.
      & info [ "time" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget. A time-bounded run executes a \
                scheduling-dependent number of candidates; use \
                $(b,--execs) for bit-reproducible runs.")
  in
  let execs_arg =
    Arg.(
      value & opt (some non_negative_int) None
      & info [ "execs" ] ~docv:"N"
          ~doc:"Guided-execution budget (the coverage-blind baseline adds \
                as many again). Default: 64 with $(b,--smoke), else 256 \
                unless $(b,--time) is given.")
  in
  let corpus_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Save the retained corpus ($(docv)/corpus/*.pmir) and \
                shrunk reproducers + oracle transcripts \
                ($(docv)/reproducers/).")
  in
  let smoke_flag =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI smoke mode: small fixed budget, fully deterministic \
                output for a given $(b,--seed) at any $(b,--jobs).")
  in
  let run time execs seed corpus_dir smoke jobs =
    let max_execs =
      match execs with
      | Some e -> e
      | None -> if smoke then 64 else if time > 0. then max_int else 256
    in
    let cfg =
      {
        Hippo_fuzz.Fuzzer.seed;
        jobs;
        max_execs;
        max_time = time;
        corpus_dir;
      }
    in
    Fmt.pr "fuzz: seed %d, budget %s@." seed
      (if max_execs < max_int then Fmt.str "%d execs" max_execs
       else Fmt.str "%.0fs" time);
    (* the run saves the corpus under [corpus_dir] *)
    let* s = writing (fun () -> Hippo_fuzz.Fuzzer.run cfg) in
    Fmt.pr "%a" Hippo_fuzz.Fuzzer.pp_summary s;
    (match corpus_dir with
    | Some dir -> Fmt.pr "corpus and reproducers saved under %s/@." dir
    | None -> ());
    Ok (if s.Hippo_fuzz.Fuzzer.found = [] then 0 else 1)
  in
  command
    (Cmd.info "fuzz" ~exits
       ~doc:"Coverage-guided differential fuzzing of the detectors, the \
             repair pipeline and the crash sweeps over generated PMIR; \
             violations are delta-debugged to minimal $(b,.pmir) \
             reproducers.")
    Term.(
      const run $ time_arg $ execs_arg $ seed_arg $ corpus_dir_arg
      $ smoke_flag $ jobs_arg)

(* serve / loadgen ---------------------------------------------------- *)

let app_arg =
  Arg.(
    value
    & opt (enum [ ("redis", Hippo_apps.App.Redis); ("pclht", Hippo_apps.App.Pclht) ])
        Hippo_apps.App.Redis
    & info [ "app" ] ~docv:"APP"
        ~doc:"Application to serve: $(b,redis) (string KV, the §6.3 \
              subject) or $(b,pclht) (word-keyed hash table, §6.1).")

let variant_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("flush-free", Hippo_apps.App.Flush_free);
             ("manual", Hippo_apps.App.Manual);
             ("repaired", Hippo_apps.App.Repaired);
             ("optimized", Hippo_apps.App.Optimized);
           ])
        Hippo_apps.App.Manual
    & info [ "variant" ] ~docv:"VARIANT"
        ~doc:"Build to serve: $(b,flush-free) (the repair input; redis \
              only), $(b,manual) (the hand-written baseline), \
              $(b,repaired) (the Hippocrates pipeline output, verified \
              before serving) or $(b,optimized) (the repaired build \
              after the flush/fence optimizer).")

let workload_arg =
  Arg.(
    value
    & opt
        (enum
           (List.map
              (fun k ->
                (String.lowercase_ascii (Hippo_ycsb.Workload.kind_to_string k), k))
              Hippo_ycsb.Workload.all_kinds))
        Hippo_ycsb.Workload.A
    & info [ "workload" ] ~docv:"KIND"
        ~doc:"YCSB workload for the run phase: $(b,a)-$(b,f) or $(b,load).")

let records_arg =
  Arg.(
    value & opt positive_int 10_000
    & info [ "records" ] ~docv:"N"
        ~doc:"Records loaded before the run phase (across all workers).")

let ops_arg =
  Arg.(
    value & opt non_negative_int 10_000
    & info [ "ops" ] ~docv:"N"
        ~doc:"Run-phase operations (across all workers).")

let workers_arg =
  Arg.(
    value & opt positive_int 4
    & info [ "workers" ] ~docv:"N"
        ~doc:"Logical load-generator workers. Each owns a disjoint \
              keyspace slice and a seed substream, so results are \
              identical at any $(b,--jobs).")

(* Each load-generator worker owns a disjoint, nonempty slice of the
   records, so [records < workers] is refused before anything runs or
   connects. *)
let too_few_records ~records ~workers =
  Fmt.str "--records (%d) must be at least --workers (%d)" records workers

let unix_arg =
  Arg.(
    value & opt (some string) None
    & info [ "unix" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(
    value & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port on 127.0.0.1.")

(* A socket that cannot be bound or reached is outside input like a file:
   [Error "<path or 127.0.0.1:PORT>: <message>"], never an exception. *)
let on_socket where f =
  try Ok (f ())
  with Unix.Unix_error (e, _, _) ->
    Error (Fmt.str "%s: %s" where (Unix.error_message e))

let tcp_name port = Fmt.str "127.0.0.1:%d" port

let serve_cmd =
  let inproc_flag =
    Arg.(
      value & flag
      & info [ "inproc" ]
          ~doc:"No sockets: run the load generator against the handler \
                in-process (same codec, same dispatch) and print the \
                outcome. The CI mode.")
  in
  let smoke_flag =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"With $(b,--inproc): run the manual baseline, the \
                repaired build and the optimized build over the same \
                deterministic traffic, print all three outcomes (no \
                wall-clock fields) and exit nonzero unless every verdict, \
                the final count and the store digest agree. \
                Byte-identical output at any $(b,--jobs).")
  in
  let expect_conns_arg =
    Arg.(
      value & opt (some int) None
      & info [ "expect-conns" ] ~docv:"N"
          ~doc:"Exit after $(docv) connections have come and gone (for \
                tests and benches); default: serve forever.")
  in
  let run app variant workload records ops workers inproc smoke unix_path
      port expect_conns seed jobs =
    let kind_name = Hippo_apps.App.kind_to_string app in
    if (inproc || smoke) && records < workers then
      Error (too_few_records ~records ~workers)
    else if inproc || smoke then
      Hippo_parallel.Pool.run ~domains:jobs (fun pool ->
          let run_variant variant =
            Hippo_serve.Drive.run_inproc ~pool ~app ~variant ~workload
              ~records ~ops ~workers ~seed ()
          in
          if smoke then begin
            let* manual = run_variant Hippo_apps.App.Manual in
            let* repaired = run_variant Hippo_apps.App.Repaired in
            let* optimized = run_variant Hippo_apps.App.Optimized in
            Fmt.pr "%a@.%a@.%a@." Hippo_serve.Drive.pp_outcome manual
              Hippo_serve.Drive.pp_outcome repaired
              Hippo_serve.Drive.pp_outcome optimized;
            if
              Hippo_serve.Drive.agrees manual repaired
              && Hippo_serve.Drive.agrees repaired optimized
            then begin
              Fmt.pr "serve smoke: %s manual, repaired and optimized agree@."
                kind_name;
              Ok 0
            end
            else begin
              Fmt.pr "serve smoke: %s VARIANTS DISAGREE@." kind_name;
              Ok 1
            end
          end
          else
            let* o = run_variant variant in
            Fmt.pr "%a@." Hippo_serve.Drive.pp_outcome o;
            Fmt.pr "load: %.1f kops/s, run: %.1f kops/s (wall)@."
              (float_of_int o.Hippo_serve.Drive.load_reqs
              /. o.Hippo_serve.Drive.wall_load_s /. 1e3)
              (float_of_int o.Hippo_serve.Drive.run_reqs
              /. o.Hippo_serve.Drive.wall_run_s /. 1e3);
            Ok 0)
    else
      let* listen =
        match (unix_path, port) with
        | Some path, None ->
            on_socket path (fun () -> Hippo_serve.Listener.listen_unix ~path)
        | None, Some port ->
            on_socket (tcp_name port) (fun () ->
                Hippo_serve.Listener.listen_tcp ~port)
        | None, None -> Error "serve: need --unix, --port or --inproc"
        | Some _, Some _ -> Error "serve: --unix and --port are exclusive"
      in
      (* capacity hint: socket-mode traffic is bounded by the client's
         --records/--ops, which the server mirrors here *)
      let config =
        Hippo_serve.Drive.serve_config ~final_records:(records + ops) ()
      in
      let nbuckets =
        Hippo_serve.Drive.serve_nbuckets ~final_records:(records + ops)
      in
      let* served = Hippo_apps.App.make ~config ~nbuckets app variant in
      (match port with
      | Some 0 ->
          Fmt.pr "listening on port %d@." (Hippo_serve.Listener.port_of listen)
      | _ -> ());
      let metrics = Hippo_serve.Metrics.create () in
      Hippo_serve.Listener.serve ~app:served ~metrics ~listen ?expect_conns ();
      Fmt.pr "served %s: %a@." served.Hippo_apps.App.name
        Hippo_serve.Metrics.pp metrics;
      Ok 0
  in
  command
    (Cmd.info "serve" ~exits
       ~doc:"Serve a PM application over the binary KV protocol (Unix or \
             TCP socket), or drive it in-process ($(b,--inproc)) for CI.")
    Term.(
      const run $ app_arg $ variant_arg $ workload_arg $ records_arg
      $ ops_arg $ workers_arg $ inproc_flag $ smoke_flag $ unix_arg
      $ port_arg $ expect_conns_arg $ seed_arg $ jobs_arg)

let loadgen_cmd =
  let skip_load_flag =
    Arg.(
      value & flag
      & info [ "skip-load" ]
          ~doc:"Skip the load phase (the server is already populated).")
  in
  let run workload records ops workers unix_path port skip_load seed jobs =
    let* where, connect =
      match (unix_path, port) with
      | _ when records < workers -> Error (too_few_records ~records ~workers)
      | Some path, None ->
          Ok (path, fun () -> Hippo_serve.Listener.Client.connect_unix ~path)
      | None, Some port ->
          Ok
            ( tcp_name port,
              fun () -> Hippo_serve.Listener.Client.connect_tcp ~port )
      | None, None -> Error "loadgen: need --unix or --port"
      | Some _, Some _ -> Error "loadgen: --unix and --port are exclusive"
    in
    let* r =
      on_socket where (fun () ->
          Hippo_parallel.Pool.run ~domains:jobs (fun pool ->
              Hippo_serve.Loadgen.run_sockets ~connect ~pool ~kind:workload
                ~records ~ops ~workers ~seed ~skip_load ()))
    in
    Fmt.pr "load: %d reqs (%a)@." r.Hippo_serve.Loadgen.load_reqs
      Hippo_serve.Loadgen.pp_verdicts r.Hippo_serve.Loadgen.load_verdicts;
    Fmt.pr "run: %d reqs (%a)@." r.Hippo_serve.Loadgen.run_reqs
      Hippo_serve.Loadgen.pp_verdicts r.Hippo_serve.Loadgen.run_verdicts;
    Fmt.pr "%.1f kops/s (wall)@."
      (float_of_int
         (r.Hippo_serve.Loadgen.load_reqs + r.Hippo_serve.Loadgen.run_reqs)
      /. r.Hippo_serve.Loadgen.wall_s /. 1e3);
    Ok
      (if r.Hippo_serve.Loadgen.run_verdicts.Hippo_serve.Loadgen.errors = 0
       then 0
       else 1)
  in
  command
    (Cmd.info "loadgen" ~exits
       ~doc:"Stream YCSB traffic at a running $(b,hippocrates serve) over \
             its socket: one connection per logical worker, deterministic \
             per-worker op substreams.")
    Term.(
      const run $ workload_arg $ records_arg $ ops_arg $ workers_arg
      $ unix_arg $ port_arg $ skip_load_flag $ seed_arg $ jobs_arg)

(* sim ---------------------------------------------------------------- *)

let sim_cmd =
  let mode_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("quick", Hippo_sim.Harness.Quick);
               ("standard", Hippo_sim.Harness.Standard);
               ("chaos", Hippo_sim.Harness.Chaos);
             ])
          Hippo_sim.Harness.Standard
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Fault-rate preset: $(b,quick) (fault-free shadow \
                checking), $(b,standard) (crashes and recovery chains at \
                the pessimistic image) or $(b,chaos) (adds torn cache \
                lines, reordered write-back drain and deeper re-crash \
                chains).")
  in
  let scenarios_arg =
    Arg.(
      value & opt non_negative_int 16
      & info [ "scenarios" ] ~docv:"N"
          ~doc:"Independent scenarios to play. Each derives its own seed \
                substream, so the run digest is byte-identical at any \
                $(b,--jobs).")
  in
  let sim_ops_arg =
    Arg.(
      value & opt non_negative_int 120
      & info [ "ops" ] ~docv:"N" ~doc:"Operations per scenario.")
  in
  let keyspace_arg =
    Arg.(
      value & opt positive_int 32
      & info [ "keyspace" ] ~docv:"N"
          ~doc:"Distinct keys the workload draws from.")
  in
  let nbuckets_arg =
    Arg.(
      value & opt positive_int 16
      & info [ "nbuckets" ] ~docv:"N"
          ~doc:"Hash-table buckets per session (small tables force \
                overflow chains).")
  in
  let out_arg =
    Arg.(
      value & opt string "sim-out"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for seed-stamped reproducers of violating \
                scenarios (created on first violation).")
  in
  let no_differential_flag =
    Arg.(
      value & flag
      & info [ "no-differential" ]
          ~doc:"Skip the lockstep repair-input baseline that \
                $(b,--variant repaired) otherwise drives through the \
                identical op and fault schedule.")
  in
  let smoke_flag =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI smoke preset: 4 scenarios of 60 ops over 24 keys; \
                fully deterministic output for a given $(b,--seed) at any \
                $(b,--jobs).")
  in
  let run app variant mode scenarios ops keyspace nbuckets out
      no_differential smoke seed jobs =
    let scenarios, ops, keyspace =
      if smoke then (4, 60, 24) else (scenarios, ops, keyspace)
    in
    let cfg =
      {
        Hippo_sim.Harness.kind = app;
        variant;
        mode;
        seed;
        scenarios;
        ops;
        keyspace;
        nbuckets;
        jobs;
        differential = not no_differential;
      }
    in
    Fmt.pr "sim: %s/%s mode=%s seed=%d scenarios=%d ops=%d@."
      (Hippo_apps.App.kind_to_string app)
      (Hippo_apps.App.variant_to_string variant)
      (Hippo_sim.Harness.mode_to_string mode)
      seed scenarios ops;
    let* r = Hippo_sim.Harness.run cfg in
    Fmt.pr "crashes: %d, recoveries: %d, reordered: %d, torn: %d@."
      r.Hippo_sim.Harness.crashes r.Hippo_sim.Harness.recoveries
      r.Hippo_sim.Harness.reordered r.Hippo_sim.Harness.torn;
    Fmt.pr "virtual time: %.3f ms@." (r.Hippo_sim.Harness.clock_ns /. 1e6);
    Fmt.pr "digest: %s@." r.Hippo_sim.Harness.digest;
    (match r.Hippo_sim.Harness.baseline_violating with
    | [] -> ()
    | idx ->
        Fmt.pr "baseline violations in scenarios: %a@."
          Fmt.(list ~sep:(any ",") int)
          idx);
    let violating = r.Hippo_sim.Harness.violating in
    if violating = [] then begin
      Fmt.pr "sim: OK (0 violations)@.";
      Ok 0
    end
    else begin
      Fmt.pr "violations: %d in scenarios: %a@."
        (List.length r.Hippo_sim.Harness.violations)
        Fmt.(list ~sep:(any ",") int)
        violating;
      List.iteri
        (fun i (v : Hippo_sim.Scenario.violation) ->
          if i < 5 then
            Fmt.pr "  step %d %s: %s@." v.Hippo_sim.Scenario.step
              v.Hippo_sim.Scenario.kind v.Hippo_sim.Scenario.detail)
        r.Hippo_sim.Harness.violations;
      let* paths =
        writing (fun () -> Hippo_sim.Harness.save_reproducers ~dir:out cfg r)
      in
      List.iter (fun p -> Fmt.pr "reproducer: %s@." p) paths;
      Fmt.pr "replay: %s@." (Hippo_sim.Harness.replay_cmdline cfg);
      Fmt.pr "sim: FAIL@.";
      Ok 1
    end
  in
  command
    (Cmd.info "sim" ~exits
       ~doc:"Deterministic fault-injecting scenario simulation of the PM \
             applications: seeded workloads, crashes at arbitrary crash \
             points, torn cache lines, reordered write-back drain and \
             recovery-then-re-crash chains, judged against a shadow state \
             and the apps' recovery invariants. Violations emit a \
             seed-stamped reproducer.")
    Term.(
      const run $ app_arg $ variant_arg $ mode_arg $ scenarios_arg
      $ sim_ops_arg $ keyspace_arg $ nbuckets_arg $ out_arg
      $ no_differential_flag $ smoke_flag $ seed_arg $ jobs_arg)

(* corpus ------------------------------------------------------------ *)

let corpus_cmd =
  let run () =
    let cases =
      Hippo_pmdk_mini.Bugs.all @ Hippo_apps.Pclht.cases
      @ Hippo_apps.Memcached_mini.cases
    in
    List.iter
      (fun (c : Hippo_pmdk_mini.Case.t) ->
        Fmt.pr "%-12s %-14s %-55s %a@." c.Hippo_pmdk_mini.Case.id c.system
          c.title Hippo_pmdk_mini.Case.pp_shape c.expected_shape)
      cases;
    Ok 0
  in
  command
    (Cmd.info "corpus" ~exits ~doc:"List the reproduced bug corpus.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "hippocrates" ~version:"1.0.0"
      ~doc:"Automatically fix persistent-memory durability bugs"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            check_cmd;
            fix_cmd;
            optimize_cmd;
            run_cmd;
            fuzz_cmd;
            serve_cmd;
            loadgen_cmd;
            sim_cmd;
            corpus_cmd;
          ]))
