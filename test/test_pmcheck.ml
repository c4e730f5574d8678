(* Tests for the bug-finder substrate: the simulated memory, the
   persistency state machine, the interpreter, trace serialization and
   crash simulation. *)

open Hippo_pmir
open Hippo_pmcheck

let v = Value.reg
let i = Value.imm

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_layout_regions () =
  Alcotest.(check bool) "pm" true (Layout.is_pm Layout.pm_base);
  Alcotest.(check bool) "vol not pm" false (Layout.is_pm Layout.vol_base);
  Alcotest.(check bool) "vol ptr" true (Layout.is_volatile_ptr Layout.stack_base);
  Alcotest.(check bool) "global ptr" true (Layout.is_volatile_ptr Layout.global_base);
  Alcotest.(check bool) "small int is no ptr" false (Layout.is_volatile_ptr 42);
  Alcotest.(check bool) "pm is not volatile" false
    (Layout.is_volatile_ptr (Layout.pm_base + 100));
  Alcotest.(check int) "line base" (Layout.pm_base)
    (Layout.line_base (Layout.pm_base + 63));
  Alcotest.(check int) "line of addr" (Layout.pm_base / 64 + 1)
    (Layout.line_of_addr (Layout.pm_base + 64))

(* ------------------------------------------------------------------ *)
(* Mem *)

let mk_mem () = Mem.create []

(* Images are trimmed at their last nonzero byte; zero-extend one to the
   default PM segment to read it at an absolute offset. *)
let zero_extended img =
  let full = Bytes.make (1 lsl 24) '\000' in
  Bytes.blit img 0 full 0 (Bytes.length img);
  full

let test_mem_load_store_sizes () =
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  List.iter
    (fun (size, value) ->
      Mem.store m ~addr:a ~size value;
      Alcotest.(check int)
        (Printf.sprintf "size %d" size)
        value
        (Mem.load m ~addr:a ~size))
    [ (1, 0xAB); (2, 0xBEEF); (4, 0xDEADBEE); (8, 0x1122334455667788) ]

let test_mem_little_endian () =
  let m = mk_mem () in
  let a = Mem.alloc_vol m 16 in
  Mem.store m ~addr:a ~size:8 0x0807060504030201;
  Alcotest.(check int) "byte 0" 0x01 (Mem.load m ~addr:a ~size:1);
  Alcotest.(check int) "byte 7" 0x08 (Mem.load m ~addr:(a + 7) ~size:1)

let test_mem_regions_disjoint () =
  let m = mk_mem () in
  let pm = Mem.alloc_pm m 8 and vol = Mem.alloc_vol m 8 in
  Mem.store m ~addr:pm ~size:8 1;
  Mem.store m ~addr:vol ~size:8 2;
  Alcotest.(check int) "pm" 1 (Mem.load m ~addr:pm ~size:8);
  Alcotest.(check int) "vol" 2 (Mem.load m ~addr:vol ~size:8)

let test_mem_traps () =
  let m = mk_mem () in
  let trap f = match f () with
    | exception Mem.Trap _ -> ()
    | _ -> Alcotest.fail "expected trap"
  in
  trap (fun () -> Mem.load m ~addr:0 ~size:8);
  trap (fun () -> Mem.load m ~addr:0x9999_9999 ~size:8);
  trap (fun () -> Mem.load m ~addr:(Layout.pm_base - 1) ~size:8);
  trap (fun () -> Mem.store m ~addr:(Layout.pm_base + (1 lsl 24) - 4) ~size:8 0)

let test_mem_pm_alloc_alignment () =
  let m = mk_mem () in
  let a = Mem.alloc_pm m 10 and b = Mem.alloc_pm m 10 in
  Alcotest.(check int) "line aligned" 0 (a mod 64);
  Alcotest.(check int) "next line" 64 (b - a)

let test_mem_globals () =
  let m = Mem.create [ ("g1", 8); ("g2", 100) ] in
  let a1 = Mem.global_addr m "g1" and a2 = Mem.global_addr m "g2" in
  Alcotest.(check bool) "distinct" true (a1 <> a2);
  Alcotest.(check bool) "in globals region" true
    (Layout.region_of_addr a1 = Layout.Globals);
  (match Mem.global_addr m "nope" with
  | exception Mem.Trap _ -> ()
  | _ -> Alcotest.fail "expected trap")

let test_mem_persist_and_crash_image () =
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  Mem.store m ~addr:a ~size:8 7;
  let img0 = zero_extended (Mem.crash_image m) in
  Alcotest.(check int) "not persisted yet" 0
    (Int64.to_int (Bytes.get_int64_le img0 (a - Layout.pm_base)));
  Mem.persist_range m ~addr:a ~size:8;
  let img1 = zero_extended (Mem.crash_image m) in
  Alcotest.(check int) "persisted" 7
    (Int64.to_int (Bytes.get_int64_le img1 (a - Layout.pm_base)))

let test_mem_string_roundtrip () =
  let m = mk_mem () in
  let a = Mem.alloc_vol m 32 in
  Mem.write_string m ~addr:a "hello pm";
  Alcotest.(check string) "roundtrip" "hello pm"
    (Mem.read_string m ~addr:a ~len:8)

(* ------------------------------------------------------------------ *)
(* Lazily backed segments: a fresh Mem backs no segment, yet each one
   behaves as if eagerly zeroed to its full size. *)

let trap_message f =
  match f () with exception Mem.Trap m -> m | _ -> "no trap"

(* (name, base, size) of each segment of a default [Mem.create] *)
let default_segments =
  [
    ("vol", Layout.vol_base, 1 lsl 24);
    ("stack", Layout.stack_base, 1 lsl 22);
    ("globals", Layout.global_base, 1 lsl 20);
    ("pm", Layout.pm_base, 1 lsl 24);
  ]

let test_lazy_segment_boundaries () =
  List.iter
    (fun (name, base, size) ->
      let m = mk_mem () in
      let last = base + size - 8 in
      let check_int what = Alcotest.(check int) (name ^ ": " ^ what) in
      check_int "last word loads 0" 0 (Mem.load m ~addr:last ~size:8);
      check_int "last word loads 0 via load8" 0 (Mem.load8 m last);
      Mem.store m ~addr:last ~size:8 0x0123_4567_89AB_CDEF;
      check_int "store/load" 0x0123_4567_89AB_CDEF
        (Mem.load m ~addr:last ~size:8);
      Mem.store8 m last 0x7654_3210;
      check_int "store8/load8" 0x7654_3210 (Mem.load8 m last);
      let oob =
        Printf.sprintf "out-of-bounds access at 0x%x (size 8)" (last + 1)
      in
      List.iter
        (fun (what, f) ->
          Alcotest.(check string) (name ^ ": " ^ what) oob (trap_message f))
        [
          ( "load past the end",
            fun () -> ignore (Mem.load m ~addr:(last + 1) ~size:8) );
          ( "store past the end",
            fun () -> Mem.store m ~addr:(last + 1) ~size:8 1 );
          ("load8 past the end", fun () -> ignore (Mem.load8 m (last + 1)));
          ("store8 past the end", fun () -> Mem.store8 m (last + 1) 1);
        ])
    default_segments;
  (* images are trimmed at their last nonzero byte: a fresh one is
     empty, and a nonzero last PM byte makes it span the segment *)
  let m = mk_mem () in
  Alcotest.(check int) "fresh working image" 0
    (Bytes.length (Mem.working_image m));
  Mem.store m ~addr:(Layout.pm_base + (1 lsl 24) - 8) ~size:8 (1 lsl 56);
  Alcotest.(check int) "working image spans the segment" (1 lsl 24)
    (Bytes.length (Mem.working_image m));
  Alcotest.(check int) "crash image still empty" 0
    (Bytes.length (Mem.crash_image m));
  (* the allocators run out at the break eagerly backed segments did *)
  List.iter
    (fun (what, alloc, size, grain, base, msg) ->
      let m = mk_mem () in
      ignore (alloc m (size - grain));
      Alcotest.(check int) (what ^ " last block") (base + size - grain)
        (alloc m grain);
      Alcotest.(check string) (what ^ " exhausted") msg
        (trap_message (fun () -> alloc m 1)))
    [
      ("alloc_vol", Mem.alloc_vol, 1 lsl 24, 8, Layout.vol_base,
       "volatile heap exhausted");
      ("alloc_pm", Mem.alloc_pm, 1 lsl 24, 64, Layout.pm_base,
       "persistent heap exhausted");
      ("alloc_stack", Mem.alloc_stack, 1 lsl 22, 8, Layout.stack_base,
       "stack overflow");
    ];
  Alcotest.(check string) "global segment overflow" "global segment overflow"
    (trap_message (fun () -> Mem.create [ ("g", (1 lsl 20) + 1) ]))

(* Differential: random operations on a paged Mem against an eager model
   made of full-size [Bytes]. Segment sizes sit around the 4 KB page, so a
   last page may be short; offsets cluster at segment ends, at 4096·2^k
   and at every 4 KB multiple inside each segment, where an access may
   cross a page boundary; and the PM may start from a seed image of any
   length up to the segment. *)

type mop =
  | M_store of { seg : int; off : int; size : int; v : int; fast : bool }
  | M_load of { seg : int; off : int; size : int; fast : bool }
  | M_write_string of { seg : int; off : int; s : string }
  | M_read_string of { seg : int; off : int; len : int }
  | M_persist_range of { off : int; size : int }
  | M_persist_string of { off : int; s : string }

type mcase = {
  sizes : int array;  (** vol, stack, globals, pm *)
  seed : string option;  (** PM seed image *)
  mops : mop list;
}

let seg_bases =
  [| Layout.vol_base; Layout.stack_base; Layout.global_base; Layout.pm_base |]

let pm_seg = 3

let mop_to_string = function
  | M_store { seg; off; size; v; fast } ->
      Printf.sprintf "store%s %d+%d/%d<-%d" (if fast then "N" else "") seg off
        size v
  | M_load { seg; off; size; fast } ->
      Printf.sprintf "load%s %d+%d/%d" (if fast then "N" else "") seg off size
  | M_write_string { seg; off; s } -> Printf.sprintf "write %d+%d %S" seg off s
  | M_read_string { seg; off; len } ->
      Printf.sprintf "read %d+%d/%d" seg off len
  | M_persist_range { off; size } -> Printf.sprintf "persist %d/%d" off size
  | M_persist_string { off; s } -> Printf.sprintf "persist_string %d %S" off s

let gen_mcase =
  let open QCheck.Gen in
  let* sizes =
    let* v = oneofl [ 4096; 5000; 12288; 40000 ] in
    let* st = oneofl [ 4096; 4104; 9000 ] in
    let* g = oneofl [ 1000; 4096; 8200 ] in
    let* p = oneofl [ 4096; 4100; 8192; 20000; 65536 ] in
    return [| v; st; g; p |]
  in
  let gen_off size =
    frequency
      [
        (2, int_bound (size - 1));
        (3, map (fun d -> max 0 (size - 1 - d)) (int_bound 16));
        (1, int_bound 16);
        ( 2,
          map2
            (fun k d -> min (size - 1) (max 0 ((4096 lsl k) - 8 + d)))
            (int_bound 3) (int_bound 16) );
        ( 2,
          map2
            (fun j d -> min (size - 1) (max 0 ((4096 * j) - 8 + d)))
            (int_bound (size / 4096))
            (int_bound 16) );
      ]
  in
  let gen_str =
    string_size
      ~gen:(frequency [ (1, return '\000'); (3, char) ])
      (int_bound 24)
  in
  let gen_at f =
    let* seg = int_bound 3 in
    let* off = gen_off sizes.(seg) in
    f seg off
  in
  let gen_mop =
    frequency
      [
        ( 4,
          gen_at (fun seg off ->
              let* size = oneofl [ 1; 2; 4; 8 ] in
              let* v = frequency [ (3, int); (1, int_range 0 255) ] in
              let* fast = bool in
              return (M_store { seg; off; size; v; fast })) );
        ( 4,
          gen_at (fun seg off ->
              let* size = oneofl [ 1; 2; 4; 8 ] in
              let* fast = bool in
              return (M_load { seg; off; size; fast })) );
        ( 2,
          gen_at (fun seg off ->
              map (fun s -> M_write_string { seg; off; s }) gen_str) );
        ( 2,
          gen_at (fun seg off ->
              map
                (fun len -> M_read_string { seg; off; len })
                (int_bound 24)) );
        ( 2,
          map2
            (fun off size -> M_persist_range { off; size })
            (gen_off sizes.(pm_seg)) (int_bound 80) );
        ( 1,
          map2
            (fun off s -> M_persist_string { off; s })
            (gen_off sizes.(pm_seg)) gen_str );
      ]
  in
  let pm = sizes.(pm_seg) in
  let* seed =
    option
      (let* len = oneof [ return 0; int_bound 64; int_bound pm; return pm ] in
       let* pokes =
         list_size (int_bound 8)
           (pair (int_bound (max 0 (len - 1))) (int_range 1 255))
       in
       let b = Bytes.make len '\000' in
       if len > 0 then List.iter (fun (o, v) -> Bytes.set_uint8 b o v) pokes;
       return (Bytes.to_string b))
  in
  let* mops = list_size (int_range 1 60) gen_mop in
  return { sizes; seed; mops }

let arb_mcase =
  QCheck.make gen_mcase ~print:(fun c ->
      Printf.sprintf "sizes=[%s] seed=%s\n%s"
        (String.concat ";" (Array.to_list (Array.map string_of_int c.sizes)))
        (match c.seed with
        | None -> "none"
        | Some s -> Printf.sprintf "%d bytes" (String.length s))
        (String.concat "\n" (List.map mop_to_string c.mops)))

let oob_trap seg off size =
  Printf.sprintf "trap out-of-bounds access at 0x%x (size %d)"
    (seg_bases.(seg) + off) size

(* The model: every segment a full-size buffer. Returns the outcome of
   each op and the final working and durable PM images. *)
let run_model c =
  let segs = Array.map (fun n -> Bytes.make n '\000') c.sizes in
  Option.iter
    (fun s -> Bytes.blit_string s 0 segs.(pm_seg) 0 (String.length s))
    c.seed;
  let dur = Bytes.copy segs.(pm_seg) and pm_size = c.sizes.(pm_seg) in
  let outcome = function
    | M_store { seg; off; size; v; _ } ->
        if off + size > c.sizes.(seg) then oob_trap seg off size
        else begin
          let b = segs.(seg) in
          (match size with
          | 1 -> Bytes.set_uint8 b off (v land 0xFF)
          | 2 -> Bytes.set_uint16_le b off (v land 0xFFFF)
          | 4 -> Bytes.set_int32_le b off (Int32.of_int v)
          | _ ->
              Bytes.set_int64_le b off
                (Int64.logand (Int64.of_int v) 0x7FFF_FFFF_FFFF_FFFFL));
          "ok"
        end
    | M_load { seg; off; size; _ } ->
        if off + size > c.sizes.(seg) then oob_trap seg off size
        else
          let b = segs.(seg) in
          "ok "
          ^ string_of_int
              (match size with
              | 1 -> Bytes.get_uint8 b off
              | 2 -> Bytes.get_uint16_le b off
              | 4 -> Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
              | _ -> Int64.to_int (Bytes.get_int64_le b off))
    | M_write_string { seg; off; s } ->
        (* a range leaving its segment writes the prefix, then traps *)
        let room = c.sizes.(seg) - off in
        let n = min room (String.length s) in
        Bytes.blit_string s 0 segs.(seg) off n;
        if n < String.length s then oob_trap seg c.sizes.(seg) 1 else "ok"
    | M_read_string { seg; off; len } ->
        if off + len > c.sizes.(seg) then oob_trap seg c.sizes.(seg) 1
        else "ok " ^ Bytes.sub_string segs.(seg) off len
    | M_persist_range { off; size } ->
        if off + size > pm_size then
          Printf.sprintf "trap persist_range outside PM at 0x%x"
            (Layout.pm_base + off)
        else begin
          Bytes.blit segs.(pm_seg) off dur off size;
          "ok"
        end
    | M_persist_string { off; s } ->
        if off + String.length s > pm_size then
          Printf.sprintf "trap persist_string outside PM at 0x%x"
            (Layout.pm_base + off)
        else begin
          Bytes.blit_string s 0 dur off (String.length s);
          "ok"
        end
  in
  let outcomes = List.map outcome c.mops in
  (outcomes, segs, dur)

let run_mem ~track c =
  let m =
    Mem.create ~vol_size:c.sizes.(0) ~stack_size:c.sizes.(1)
      ~global_size:c.sizes.(2) ~pm_size:c.sizes.(pm_seg)
      ?pm_image:(Option.map Bytes.of_string c.seed)
      ~track_images:track []
  in
  let outcome op =
    match
      match op with
      | M_store { seg; off; size; v; fast } ->
          let addr = seg_bases.(seg) + off in
          (* the unchecked-tracker stores are only legal untracked *)
          if fast && not track then
            (match size with
            | 1 -> Mem.store1
            | 2 -> Mem.store2
            | 4 -> Mem.store4
            | _ -> Mem.store8)
              m addr v
          else Mem.store m ~addr ~size v;
          "ok"
      | M_load { seg; off; size; fast } ->
          let addr = seg_bases.(seg) + off in
          "ok "
          ^ string_of_int
              (if fast then
                 (match size with
                 | 1 -> Mem.load1
                 | 2 -> Mem.load2
                 | 4 -> Mem.load4
                 | _ -> Mem.load8)
                   m addr
               else Mem.load m ~addr ~size)
      | M_write_string { seg; off; s } ->
          Mem.write_string m ~addr:(seg_bases.(seg) + off) s;
          "ok"
      | M_read_string { seg; off; len } ->
          "ok " ^ Mem.read_string m ~addr:(seg_bases.(seg) + off) ~len
      | M_persist_range { off; size } ->
          Mem.persist_range m ~addr:(Layout.pm_base + off) ~size;
          "ok"
      | M_persist_string { off; s } ->
          Mem.persist_string m ~addr:(Layout.pm_base + off) s;
          "ok"
    with
    | r -> r
    | exception Mem.Trap msg -> "trap " ^ msg
  in
  let outcomes = List.map outcome c.mops in
  (outcomes, m)

let prop_lazy_matches_eager =
  QCheck.Test.make ~name:"lazily backed Mem matches an eager model" ~count:400
    ~long_factor:25 arb_mcase (fun c ->
      let want, segs, dur = run_model c in
      let pm_size = c.sizes.(pm_seg) in
      let trimmed img =
        Bytes.length img = 0 || Bytes.get img (Bytes.length img - 1) <> '\000'
      in
      let extend img =
        let full = Bytes.make pm_size '\000' in
        Bytes.blit img 0 full 0 (Bytes.length img);
        full
      in
      List.for_all
        (fun track ->
          let got, m = run_mem ~track c in
          let mode = if track then "tracked" else "untracked" in
          List.iteri
            (fun k (w, g) ->
              if w <> g then
                QCheck.Test.fail_reportf "%s op %d (%s): model %S, mem %S" mode
                  k
                  (mop_to_string (List.nth c.mops k))
                  w g)
            (List.combine want got);
          let images_agree () =
            let w = Mem.working_image m and d = Mem.crash_image m in
            trimmed w && trimmed d
            && Bytes.equal (extend w) segs.(pm_seg)
            && Bytes.equal (extend d) dur
          in
          let digests_agree () =
            (not track)
            || Imghash.equal_digest (Mem.working_digest m)
                 (Imghash.digest (Imghash.of_bytes segs.(pm_seg)))
               && Imghash.equal_digest (Mem.durable_digest m)
                    (Imghash.digest (Imghash.of_bytes dur))
          in
          (* reading every segment whole backs it fully; the images must
             come out trimmed and equal all the same *)
          let segments_agree () =
            Array.for_all2
              (fun base b ->
                Mem.read_string m ~addr:base ~len:(Bytes.length b)
                = Bytes.to_string b)
              seg_bases segs
          in
          let fail what = QCheck.Test.fail_reportf "%s: %s" mode what in
          (images_agree () || fail "images differ")
          && (digests_agree () || fail "digests differ")
          && (segments_agree () || fail "segments differ")
          && (images_agree () || fail "images differ once fully backed"))
        [ false; true ])

(* Guard: a PM image costs the pages the program touched. One word stored
   and persisted every 2 MB of a 32 MB segment backs 16 pages of each
   image and a page table for each, where a buffer holding a prefix of
   the segment backs 30 MB of both. *)
let test_pm_pages_cost_what_is_touched () =
  let m = Mem.create ~pm_size:(1 lsl 25) [] in
  let addrs = List.init 16 (fun k -> Layout.pm_base + (k lsl 21)) in
  Gc.compact ();
  let before = (Gc.stat ()).live_words in
  List.iteri
    (fun k addr ->
      Mem.store m ~addr ~size:8 (k + 1);
      Mem.persist_range m ~addr ~size:8)
    addrs;
  Gc.compact ();
  let grown = (Gc.stat ()).live_words - before in
  let page_words = (4096 / 8) + 2 and table_words = (1 lsl 25) / 4096 in
  List.iteri
    (fun k addr ->
      Alcotest.(check int) "word reads back" (k + 1) (Mem.load8 m addr))
    addrs;
  if grown > (40 * page_words) + (2 * table_words) then
    Alcotest.failf "live heap grew by %d words for 16 words stored" grown

(* Allocation guard: building a machine, and running a small workload on
   it, costs what the program touches, not the segments' 54 MB. OCaml
   5.1's counters credit minor-heap words only when a minor collection
   runs, so the minor heap is emptied on both sides of the measured
   call: before, to keep earlier allocation out of the count, and after,
   to bring all of the call's own in. *)
let allocated_bytes f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor ();
  Gc.allocated_bytes () -. before

let test_machine_allocation_guard () =
  List.iter
    (fun (case : Hippo_pmdk_mini.Case.t) ->
      let prog = Lazy.force case.Hippo_pmdk_mini.Case.program in
      let under_1mb what bytes =
        if bytes >= 1e6 then
          Alcotest.failf "%s: %s allocated %.0f bytes"
            case.Hippo_pmdk_mini.Case.id what bytes
      in
      under_1mb "Machine.create"
        (allocated_bytes (fun () -> Machine.create Machine.default_config prog));
      under_1mb "create, workload and exit check"
        (allocated_bytes (fun () ->
             let t = Machine.create Machine.default_config prog in
             case.Hippo_pmdk_mini.Case.workload t;
             Machine.exit_check t)))
    Hippo_pmdk_mini.Bugs.all

(* ------------------------------------------------------------------ *)
(* Pstate *)

let dummy_iid () = Iid.fresh ~func:"t"
let dloc = Loc.make ~file:"t.c" ~line:1

let crash_at_exit : Report.crash_info =
  { crash_iid = None; crash_loc = dloc; crash_stack = [] }

let test_pstate_store_flush_fence () =
  let ps = Pstate.create () in
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  Mem.store m ~addr:a ~size:8 42;
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:0);
  Alcotest.(check int) "dirty" 1 (Pstate.unpersisted_count ps);
  let moved = Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clwb ~addr:a in
  Alcotest.(check int) "flushed one" 1 moved;
  Alcotest.(check int) "pending" 1 (Pstate.pending_count ps);
  let drained = Pstate.fence ps m ~seq:2 in
  Alcotest.(check int) "one line drained" 1 drained;
  Alcotest.(check int) "all durable" 0 (Pstate.unpersisted_count ps);
  Alcotest.(check int) "durable content" 42
    (Int64.to_int (Bytes.get_int64_le (zero_extended (Mem.crash_image m))
       (a - Layout.pm_base)))

let test_pstate_clflush_immediate () =
  let ps = Pstate.create () in
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  Mem.store m ~addr:a ~size:8 9;
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:0);
  ignore (Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clflush ~addr:a);
  Alcotest.(check int) "durable without fence" 0 (Pstate.unpersisted_count ps);
  Alcotest.(check int) "content" 9
    (Int64.to_int (Bytes.get_int64_le (zero_extended (Mem.crash_image m))
       (a - Layout.pm_base)))

let test_pstate_clflush_drains_pending_writeback () =
  (* clwb queues a write-back of value 1; the line is re-stored with 2 and
     clflush'd. Write-backs to one line complete in order, so the fence
     must not let the stale clwb snapshot overwrite the clflush'd bytes. *)
  let ps = Pstate.create () in
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  Mem.store m ~addr:a ~size:8 1;
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:0);
  ignore (Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clwb ~addr:a);
  Mem.store m ~addr:a ~size:8 2;
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:1);
  ignore (Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clflush ~addr:a);
  Alcotest.(check int) "nothing in flight" 0 (Pstate.pending_count ps);
  Alcotest.(check int) "all durable" 0 (Pstate.unpersisted_count ps);
  ignore (Pstate.fence ps m ~seq:2);
  Alcotest.(check int) "newest value survives the fence" 2
    (Int64.to_int (Bytes.get_int64_le (zero_extended (Mem.crash_image m))
       (a - Layout.pm_base)))

let test_pstate_nt_store () =
  let ps = Pstate.create () in
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  Mem.store m ~addr:a ~size:8 5;
  Pstate.store_nt ps m ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:0;
  Alcotest.(check int) "pending, no flush needed" 1 (Pstate.pending_count ps);
  ignore (Pstate.fence ps m ~seq:1);
  Alcotest.(check int) "durable" 0 (Pstate.unpersisted_count ps)

let test_pstate_flush_snapshot_semantics () =
  (* a store issued after the flush but before the fence is NOT covered *)
  let ps = Pstate.create () in
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  Mem.store m ~addr:a ~size:8 1;
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:0);
  ignore (Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clwb ~addr:a);
  (* overwrite the same range post-flush *)
  Mem.store m ~addr:a ~size:8 2;
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:1);
  ignore (Pstate.fence ps m ~seq:2);
  Alcotest.(check int) "crash sees the flushed snapshot" 1
    (Int64.to_int (Bytes.get_int64_le (zero_extended (Mem.crash_image m))
       (a - Layout.pm_base)));
  Alcotest.(check int) "newer store still tracked" 1 (Pstate.unpersisted_count ps)

let test_pstate_supersede () =
  let ps = Pstate.create () in
  let m = mk_mem () in
  let a = Mem.alloc_pm m 64 in
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:0);
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:1);
  Alcotest.(check int) "newest only" 1 (Pstate.unpersisted_count ps)

let test_pstate_classification () =
  let ps = Pstate.create () in
  let m = mk_mem () in
  let a = Mem.alloc_pm m 256 in
  (* store 1: never flushed, fence follows -> missing-flush *)
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:(Loc.make ~file:"t.c" ~line:1) ~stack:[] ~addr:a ~size:8 ~seq:0);
  ignore (Pstate.fence ps m ~seq:1);
  (* store 2: flushed, never fenced -> missing-fence *)
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:(Loc.make ~file:"t.c" ~line:2) ~stack:[] ~addr:(a + 64) ~size:8 ~seq:2);
  ignore (Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clwb ~addr:(a + 64));
  (* store 3: no flush, no subsequent fence -> missing-flush&fence *)
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:(Loc.make ~file:"t.c" ~line:3) ~stack:[] ~addr:(a + 128) ~size:8 ~seq:3);
  let bugs = Pstate.unpersisted_bugs ps ~crash:crash_at_exit in
  let kinds = List.map (fun (b : Report.bug) -> b.Report.kind) bugs in
  Alcotest.(check (list string)) "classified in line order"
    [ "missing-flush"; "missing-fence"; "missing-flush&fence" ]
    (List.map Report.kind_to_string kinds);
  (* the missing-fence bug records its ordering flush *)
  let mf = List.nth bugs 1 in
  Alcotest.(check bool) "ordering flush recorded" true
    (mf.Report.ordering_flush <> None)

let test_pstate_flush_cross_line_record () =
  (* an 8-byte store straddling two lines is flushed from either line *)
  let ps = Pstate.create () in
  let m = mk_mem () in
  let base = Mem.alloc_pm m 128 in
  let a = base + 60 in
  Mem.store m ~addr:a ~size:8 77;
  ignore (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr:a ~size:8 ~seq:0);
  ignore (Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clwb ~addr:(base + 64));
  Alcotest.(check int) "record pending via second line" 1 (Pstate.pending_count ps)

let test_pstate_fence_counts_start_lines () =
  (* the cost model charges one fence_drain_line_ns per line in which a
     drained record starts, so a record straddling two lines counts once *)
  let ps = Pstate.create () in
  let m = mk_mem () in
  let base = Mem.alloc_pm m 192 in
  let seq = ref 0 in
  let store addr =
    Mem.store m ~addr ~size:8 (!seq + 1);
    ignore
      (Pstate.store ps ~iid:(dummy_iid ()) ~loc:dloc ~stack:[] ~addr ~size:8
         ~seq:!seq);
    incr seq
  in
  let clwb addr =
    ignore (Pstate.flush ps m ~iid:(dummy_iid ()) ~kind:Instr.Clwb ~addr)
  in
  store (base + 60);
  clwb base;
  clwb (base + 64);
  Alcotest.(check int) "straddling record: one line" 1
    (Pstate.fence ps m ~seq:!seq);
  incr seq;
  store base;
  store (base + 128);
  clwb base;
  clwb (base + 128);
  Alcotest.(check int) "records in two lines: two" 2
    (Pstate.fence ps m ~seq:!seq)

(* Guard: durable lines leave the index. With both images already backed
   under every line, 100 000 store/clwb/fence cycles on distinct lines
   leave the live heap where it was. *)
let test_pstate_index_holds_only_live_lines () =
  let ps = Pstate.create () in
  let m = mk_mem () in
  let lines = 100_000 in
  let base = Mem.alloc_pm m (lines * 64) in
  let last = base + ((lines - 1) * 64) in
  for k = 0 to lines - 1 do
    let addr = base + (k * 64) in
    Mem.store m ~addr ~size:8 1;
    Mem.persist_range m ~addr ~size:8
  done;
  let iid = dummy_iid () in
  Gc.compact ();
  let before = (Gc.stat ()).live_words in
  for k = 0 to lines - 1 do
    let addr = base + (k * 64) in
    Mem.store m ~addr ~size:8 (k + 1);
    ignore
      (Pstate.store ps ~iid ~loc:dloc ~stack:[] ~addr ~size:8 ~seq:(2 * k));
    ignore (Pstate.flush ps m ~iid ~kind:Instr.Clwb ~addr);
    ignore (Pstate.fence ps m ~seq:((2 * k) + 1))
  done;
  Gc.compact ();
  let grown = (Gc.stat ()).live_words - before in
  Alcotest.(check int) "all durable" 0 (Pstate.unpersisted_count ps);
  Alcotest.(check int) "last line stored" lines
    (Mem.load m ~addr:last ~size:8);
  if grown >= 1_000 then
    Alcotest.failf "live heap grew by %d words over %d durable lines" grown
      lines

(* Allocation guard on a served update's write path: a 12-word value
   written back word by word, the 8-byte field recording it, and a
   fence. *)
let test_pstate_update_cycle_allocation () =
  let ps = Pstate.create () in
  let m = mk_mem () in
  let base = Mem.alloc_pm m 192 in
  let iid = dummy_iid () and seq = ref 0 in
  let store_clwb addr =
    incr seq;
    Mem.store m ~addr ~size:8 !seq;
    ignore (Pstate.store ps ~iid ~loc:dloc ~stack:[] ~addr ~size:8 ~seq:!seq);
    ignore (Pstate.flush ps m ~iid ~kind:Instr.Clwb ~addr)
  in
  let cycle () =
    for w = 0 to 11 do
      store_clwb (base + 16 + (8 * w))
    done;
    store_clwb (base + 128);
    incr seq;
    Pstate.fence ps m ~seq:!seq
  in
  Alcotest.(check int) "lines drained" 3 (cycle ());
  let words = allocated_bytes cycle /. float_of_int (Sys.word_size / 8) in
  if words > 1_200. then
    Alcotest.failf "an update cycle allocated %.0f words" words

(* ------------------------------------------------------------------ *)
(* Interp *)

let build_prog emit =
  let b = Builder.create () in
  emit b;
  let p = Builder.program b in
  Validate.check_exn p;
  p

let test_interp_arith_and_flow () =
  (* iterative factorial through a loop *)
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "fact" [ "n" ] ~body:(fun fb ->
              ignore (Builder.set fb "acc" (i 1));
              Builder.while_ fb
                ~cond:(fun () -> Builder.gt fb (v "n") (i 1))
                ~body:(fun () ->
                  ignore (Builder.set fb "acc" (Builder.mul fb (v "acc") (v "n")));
                  ignore (Builder.set fb "n" (Builder.sub fb (v "n") (i 1))));
              Builder.ret fb (v "acc"))
        in
        ())
  in
  let t = Machine.create Machine.default_config p in
  Alcotest.(check int) "5! = 120" 120 (Interp.call t "fact" [ 5 ]);
  Alcotest.(check int) "0! = 1" 1 (Interp.call t "fact" [ 0 ])

let test_interp_recursion () =
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "fib" [ "n" ] ~body:(fun fb ->
              Builder.if_ fb
                (Builder.lt fb (v "n") (i 2))
                ~then_:(fun () -> Builder.ret fb (v "n"))
                ();
              let a = Builder.call fb "fib" [ Builder.sub fb (v "n") (i 1) ] in
              let c = Builder.call fb "fib" [ Builder.sub fb (v "n") (i 2) ] in
              Builder.ret fb (Builder.add fb a c))
        in
        ())
  in
  let t = Machine.create Machine.default_config p in
  Alcotest.(check int) "fib 10" 55 (Interp.call t "fib" [ 10 ])

let test_interp_division_traps () =
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "d" [ "x" ] ~body:(fun fb ->
              Builder.ret fb (Builder.div fb (i 10) (v "x")))
        in
        ())
  in
  let t = Machine.create Machine.default_config p in
  Alcotest.(check int) "10/2" 5 (Interp.call t "d" [ 2 ]);
  match Interp.call t "d" [ 0 ] with
  | exception Mem.Trap _ -> ()
  | _ -> Alcotest.fail "expected division trap"

let test_interp_intrinsics_and_output () =
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "main" [] ~body:(fun fb ->
              let pm = Builder.call fb "pm_alloc" [ i 64 ] in
              let base = Builder.call fb "pm_base" [] in
              Builder.call_void fb "emit" [ Builder.eq fb pm base ];
              let m1 = Builder.call fb "malloc" [ i 8 ] in
              Builder.call_void fb "free" [ m1 ];
              Builder.call_void fb "emit" [ i 7 ];
              Builder.ret_void fb)
        in
        ())
  in
  let t = Machine.create Machine.default_config p in
  ignore (Interp.call t "main" []);
  Alcotest.(check (list int)) "emitted" [ 1; 7 ] (Machine.output t)

let test_interp_abort_and_fuel () =
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "boom" [] ~body:(fun fb ->
              Builder.call_void fb "abort" [];
              Builder.ret_void fb)
        in
        let _ =
          Builder.func b "spin" [] ~body:(fun fb ->
              Builder.while_ fb ~cond:(fun () -> i 1) ~body:(fun () -> ());
              Builder.ret_void fb)
        in
        ())
  in
  let t = Machine.create Machine.default_config p in
  (match Interp.call t "boom" [] with
  | exception Machine.Aborted -> ()
  | _ -> Alcotest.fail "expected abort");
  let t2 = Machine.create { Machine.default_config with fuel = 1000 } p in
  match Interp.call t2 "spin" [] with
  | exception Machine.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected out of fuel"

let test_interp_alloca_stack_release () =
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "leaf" [] ~body:(fun fb ->
              let a = Builder.alloca fb 1024 in
              Builder.store fb ~addr:a (i 1);
              Builder.ret fb a)
        in
        let _ =
          Builder.func b "main" [] ~body:(fun fb ->
              Builder.for_ fb "k" ~from:(i 0) ~below:(i 100) ~body:(fun _ ->
                  ignore (Builder.call fb "leaf" []));
              Builder.ret_void fb)
        in
        ())
  in
  let t = Machine.create { Machine.default_config with stack_size = 8192 } p in
  (* without per-frame stack release this would overflow *)
  ignore (Interp.call t "main" [])

let buggy_store_prog () =
  build_prog (fun b ->
      let _ =
        Builder.func b "main" [] ~body:(fun fb ->
            let pm = Builder.call fb "pm_alloc" [ i 64 ] in
            Builder.store fb ~addr:pm (i 123);
            Builder.ret_void fb)
      in
      ())

let test_interp_detects_bug_at_exit () =
  let t, _ = Interp.run (buggy_store_prog ()) ~entry:"main" ~args:[] in
  let bugs = Machine.bugs t in
  Alcotest.(check int) "one bug" 1 (List.length bugs);
  Alcotest.(check string) "flush&fence" "missing-flush&fence"
    (Report.kind_to_string (List.hd bugs).Report.kind)

let test_interp_stop_at_crash () =
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "main" [] ~body:(fun fb ->
              let pm = Builder.call fb "pm_alloc" [ i 64 ] in
              Builder.store fb ~addr:pm (i 1);
              Builder.crash fb;
              Builder.flush fb pm;
              Builder.fence fb ();
              Builder.crash fb;
              Builder.call_void fb "emit" [ i 99 ];
              Builder.ret_void fb)
        in
        ())
  in
  let t = Machine.create Machine.default_config p in
  Machine.arm_crash t ~at:1;
  (match Interp.call t "main" [] with
  | exception Machine.Stopped_at_crash -> ()
  | _ -> Alcotest.fail "expected stop");
  Alcotest.(check (list int)) "stopped before emit" [] (Machine.output t);
  Alcotest.(check int) "bug recorded at crash 1" 1 (List.length (Machine.bugs t))

let test_interp_cost_accounting () =
  let run cost prog =
    let cfg = { Machine.default_config with cost = Some cost; trace = false } in
    let t = Machine.create cfg prog in
    ignore (Interp.call t "main" []);
    Machine.cost_ns t
  in
  let flush_free = buggy_store_prog () in
  let with_persist =
    build_prog (fun b ->
        let _ =
          Builder.func b "main" [] ~body:(fun fb ->
              let pm = Builder.call fb "pm_alloc" [ i 64 ] in
              Builder.store fb ~addr:pm (i 123);
              Builder.flush fb pm;
              Builder.fence fb ();
              Builder.ret_void fb)
        in
        ())
  in
  let c0 = run Cost.default flush_free and c1 = run Cost.default with_persist in
  Alcotest.(check bool) "persistence costs more" true (c1 > c0);
  let c2 = run Cost.fence_heavy with_persist in
  Alcotest.(check bool) "fence-heavy model costs more" true (c2 > c1)

let test_interp_global_values () =
  let p =
    build_prog (fun b ->
        Builder.global b "slot" 8;
        let _ =
          Builder.func b "main" [] ~body:(fun fb ->
              Builder.store fb ~addr:(Value.global "slot") (i 31);
              let x = Builder.load fb (Value.global "slot") in
              Builder.call_void fb "emit" [ x ];
              Builder.ret_void fb)
        in
        ())
  in
  let t = Machine.create Machine.default_config p in
  ignore (Interp.call t "main" []);
  Alcotest.(check (list int)) "global round trip" [ 31 ] (Machine.output t)

let restart_prog () =
  build_prog (fun b ->
      let _ =
        Builder.func b "main" [ "x" ] ~body:(fun fb ->
            let a = Builder.call fb "pm_alloc" [ i 64 ] in
            Builder.store fb ~addr:a (v "x");
            Builder.flush fb a;
            Builder.fence fb ();
            (* unflushed: working and durable images differ *)
            let c = Builder.call fb "pm_alloc" [ i 64 ] in
            Builder.store fb ~addr:c (Builder.add fb (v "x") (i 1));
            Builder.crash fb;
            Builder.call_void fb "emit" [ v "x" ];
            Builder.ret fb a)
      in
      ())

(* [Machine.restart] boots the machine a crash reboots into: the prepared
   and compiled program and the PM allocator mark carry over, every
   counter and accumulator starts fresh, and the crashed machine is left
   alone. *)
let test_machine_restart () =
  let p = restart_prog () in
  let cfg = { Machine.default_config with cost = Some Cost.default } in
  let t = Machine.create cfg p in
  ignore (Compile.call t "main" [ 7 ]);
  let steps = Machine.steps t and cost = Machine.cost_ns t in
  let image = Machine.crash_image t in
  let brk = Mem.pm_brk (Machine.mem t) in
  Alcotest.(check bool) "old machine ran" true
    (steps > 0 && cost > 0. && Machine.raw_bugs t <> []);
  let t' = Machine.restart ~pm_image:image t in
  Alcotest.(check bool) "prepared code is shared" true
    (t'.Machine.pfuncs == t.Machine.pfuncs);
  Alcotest.(check bool) "compiled code is shared" true
    (t'.Machine.compiled == t.Machine.compiled);
  Alcotest.(check int) "steps" 0 (Machine.steps t');
  Alcotest.(check (float 0.)) "cost" 0. (Machine.cost_ns t');
  Alcotest.(check int) "crash points" 0 (Machine.crash_points_hit t');
  Alcotest.(check int) "bugs" 0 (List.length (Machine.raw_bugs t'));
  Alcotest.(check int) "trace" 0 (List.length (Machine.trace t'));
  Alcotest.(check (list int)) "output" [] (Machine.output t');
  Alcotest.(check int) "allocator mark" brk (Mem.pm_brk (Machine.mem t'));
  Alcotest.(check bytes) "durable image" image (Machine.crash_image t');
  Alcotest.(check bytes) "working image" image
    (Mem.working_image (Machine.mem t'));
  let a' = Compile.call t' "main" [ 9 ] in
  Alcotest.(check bool) "allocation resumes past the mark" true
    (a' >= Layout.pm_base + brk);
  Alcotest.(check bool) "new machine ran" true
    (Machine.steps t' > 0 && Machine.crash_points_hit t' = 1);
  Alcotest.(check (list int)) "new output" [ 9 ] (Machine.output t');
  Alcotest.(check int) "old steps" steps (Machine.steps t);
  Alcotest.(check (float 0.)) "old cost" cost (Machine.cost_ns t);
  Alcotest.(check bytes) "old crash image" image (Machine.crash_image t);
  Alcotest.(check (list int)) "old output" [ 7 ] (Machine.output t);
  (* The two machines share their compiled code but nothing they run
     on: calling the old one again compiles nothing and moves only its
     own output, steps, cost and images, and so does calling the new one
     after it. *)
  let filled () =
    Array.fold_left
      (fun n c -> if Option.is_some c then n + 1 else n)
      0 t.Machine.compiled
  in
  let compiled = filled () in
  let images m = (Machine.crash_image m, Mem.working_image (Machine.mem m)) in
  let steps' = Machine.steps t' and cost' = Machine.cost_ns t' in
  let images' = images t' in
  ignore (Compile.call t "main" [ 11 ]);
  Alcotest.(check int) "calling the old machine compiles nothing" compiled
    (filled ());
  Alcotest.(check (list int)) "old output grows" [ 7; 11 ] (Machine.output t);
  Alcotest.(check int) "old steps grow by one run" (2 * steps)
    (Machine.steps t);
  Alcotest.(check bool) "old cost grows" true (Machine.cost_ns t > cost);
  Alcotest.(check bool) "old crash image moves" false
    (Bytes.equal image (Machine.crash_image t));
  Alcotest.(check (list int)) "new output kept" [ 9 ] (Machine.output t');
  Alcotest.(check int) "new steps kept" steps' (Machine.steps t');
  Alcotest.(check (float 0.)) "new cost kept" cost' (Machine.cost_ns t');
  Alcotest.(check (pair bytes bytes)) "new images kept" images' (images t');
  let steps = Machine.steps t and cost = Machine.cost_ns t in
  let images_old = images t in
  ignore (Compile.call t' "main" [ 13 ]);
  Alcotest.(check (list int)) "new output grows" [ 9; 13 ] (Machine.output t');
  Alcotest.(check int) "new steps grow by one run" (2 * steps')
    (Machine.steps t');
  Alcotest.(check bool) "new cost grows" true (Machine.cost_ns t' > cost');
  Alcotest.(check (list int)) "old output kept" [ 7; 11 ] (Machine.output t);
  Alcotest.(check int) "old steps kept" steps (Machine.steps t);
  Alcotest.(check (float 0.)) "old cost kept" cost (Machine.cost_ns t);
  Alcotest.(check (pair bytes bytes)) "old images kept" images_old (images t);
  Alcotest.(check int) "still nothing new compiled" compiled (filled ())

(* A crash image spanning four pages, with a word straddling each page
   boundary, survives a restart: the restarted machine reads back every
   word, both its images equal the seed, and with image tracking on both
   live digests match the images. *)
let test_machine_restart_paged_image () =
  let words = List.init 1538 (fun k -> Layout.pm_base + 4 + (8 * k)) in
  let value a = ((a - Layout.pm_base) * 0x0101_0101) + 1 in
  List.iter
    (fun track_images ->
      let cfg = { Machine.default_config with track_images } in
      let t = Machine.create cfg (restart_prog ()) in
      let m = Machine.mem t in
      List.iter
        (fun a ->
          Mem.store m ~addr:a ~size:8 (value a);
          Mem.persist_range m ~addr:a ~size:8)
        words;
      let image = Machine.crash_image t in
      Alcotest.(check bool) "image spans four pages" true
        (Bytes.length image > 3 * 4096);
      let t' = Machine.restart ~pm_image:image t in
      let m' = Machine.mem t' in
      List.iter
        (fun a ->
          Alcotest.(check int) "load8" (value a) (Mem.load8 m' a);
          Alcotest.(check int) "load" (value a) (Mem.load m' ~addr:a ~size:8))
        words;
      Alcotest.(check bytes) "durable image" image (Machine.crash_image t');
      Alcotest.(check bytes) "working image" image (Mem.working_image m');
      if track_images then begin
        let digest = Imghash.digest (Imghash.of_bytes image) in
        Alcotest.(check bool) "working digest" true
          (Imghash.equal_digest digest (Mem.working_digest m'));
        Alcotest.(check bool) "durable digest" true
          (Imghash.equal_digest digest (Mem.durable_digest m'))
      end)
    [ false; true ]

(* A host call into a sibling from inside a run, here from the crash
   hook, borrows the binding the chain's compiled code runs through and
   hands it back: the interrupted run finishes on its own machine, and
   both machines end exactly as under the interpreter. *)
let test_machine_nested_sibling_call () =
  let p = restart_prog () in
  let cfg = { Machine.default_config with cost = Some Cost.default } in
  let run call =
    let t = Machine.create cfg p in
    ignore (call t "main" [ 7 ]);
    let t' = Machine.restart ~pm_image:(Machine.crash_image t) t in
    Machine.set_crash_hook t (fun () -> ignore (call t' "main" [ 9 ]));
    ignore (call t "main" [ 11 ]);
    List.map
      (fun m ->
        ( (Machine.output m, Machine.steps m, Machine.cost_ns m),
          (Machine.crash_image m, Mem.working_image (Machine.mem m)) ))
      [ t; t' ]
  in
  let interp = run Interp.call and compiled = run Compile.call in
  Alcotest.(check (list (list int))) "outputs" [ [ 7; 11 ]; [ 9 ] ]
    (List.map (fun ((o, _, _), _) -> o) compiled);
  Alcotest.(check bool) "tiers agree" true (interp = compiled)

(* ------------------------------------------------------------------ *)
(* Trace serialization *)

let trace_of_buggy () =
  let p =
    build_prog (fun b ->
        let _ =
          Builder.func b "w" [ "p" ] ~body:(fun fb ->
              Builder.store fb ~addr:(v "p") (i 5);
              Builder.flush fb (v "p");
              Builder.fence fb ();
              Builder.ret_void fb)
        in
        let _ =
          Builder.func b "main" [] ~body:(fun fb ->
              let pm = Builder.call fb "pm_alloc" [ i 64 ] in
              Builder.call_void fb "w" [ pm ];
              Builder.crash fb;
              Builder.ret_void fb)
        in
        ())
  in
  let t, _ = Interp.run p ~entry:"main" ~args:[] in
  Machine.trace t

let test_trace_roundtrip () =
  let tr = trace_of_buggy () in
  Alcotest.(check bool) "nonempty" true (List.length tr >= 5);
  let file events =
    Tracefile.to_string Tracefile.Pmemcheck
      { Tracefile.events; stats = Sitestats.create (); bugs = [] }
  in
  let tr' =
    (Tracefile.of_string Tracefile.Pmemcheck (file tr)).Tracefile.events
  in
  Alcotest.(check int) "same length" (List.length tr) (List.length tr');
  Alcotest.(check string) "identical after reserialize" (file tr) (file tr')

let test_trace_stacks () =
  let tr = trace_of_buggy () in
  let store_ev =
    List.find (function Trace.Store _ -> true | _ -> false) tr
  in
  let stack = Trace.stack_of store_ev in
  Alcotest.(check int) "two frames" 2 (List.length stack);
  Alcotest.(check string) "inner frame" "w" (List.hd stack).Trace.func;
  Alcotest.(check bool) "inner has call site" true
    ((List.hd stack).Trace.callsite <> None);
  Alcotest.(check bool) "outer is host entry" true
    ((List.nth stack 1).Trace.callsite = None)

let test_sitestats_roundtrip () =
  let stats = Sitestats.create () in
  let s1 = Iid.fresh ~func:"f" in
  Sitestats.observe stats ~site:s1 ~arg:(-1) Trace.Pm_ptr;
  Sitestats.observe stats ~site:s1 ~arg:(-1) Trace.Vol_ptr;
  Sitestats.observe stats ~site:s1 ~arg:0 Trace.Pm_ptr;
  Sitestats.observe stats ~site:s1 ~arg:1 Trace.Not_ptr;
  let lines = Sitestats.to_lines stats in
  Alcotest.(check int) "not-ptr ignored" 2 (List.length lines);
  let stats' = Sitestats.of_lines lines in
  (match Sitestats.find stats' ~site:s1 ~arg:(-1) with
  | Some o ->
      Alcotest.(check int) "pm obs" 1 o.Sitestats.pm;
      Alcotest.(check int) "vol obs" 1 o.Sitestats.vol
  | None -> Alcotest.fail "missing stat");
  Alcotest.(check bool) "arg 1 absent" true
    (Sitestats.find stats' ~site:s1 ~arg:1 = None)

let test_pmtest_format_roundtrip () =
  let t, _ = Interp.run (buggy_store_prog ()) ~entry:"main" ~args:[] in
  let events = Machine.trace t and bugs = Machine.raw_bugs t in
  let text =
    Tracefile.to_string Tracefile.Pmtest
      { Tracefile.events; stats = Machine.site_stats t; bugs }
  in
  let file = Tracefile.of_string Tracefile.Pmtest text in
  let bugs' = file.Tracefile.bugs in
  Alcotest.(check int) "event count" (List.length events)
    (List.length file.Tracefile.events);
  Alcotest.(check int) "bug count" (List.length bugs) (List.length bugs');
  Alcotest.(check int) "no site statistics" 0
    (List.length (Sitestats.to_lines file.Tracefile.stats));
  Alcotest.(check string) "stable reserialization" text
    (Tracefile.to_string Tracefile.Pmtest file);
  (* parsed reports must re-key onto the same instructions *)
  List.iter2
    (fun (a : Report.bug) (b : Report.bug) ->
      Alcotest.(check bool) "same store identity" true
        (Iid.equal a.Report.store.iid b.Report.store.iid))
    bugs bugs'

let test_report_line_roundtrip () =
  let t, _ = Interp.run (buggy_store_prog ()) ~entry:"main" ~args:[] in
  List.iter
    (fun b ->
      let b' = Report.of_line (Report.to_line b) in
      Alcotest.(check string) "bug line roundtrip" (Report.to_line b)
        (Report.to_line b'))
    (Machine.raw_bugs t)

(* ------------------------------------------------------------------ *)
(* Crashsim *)

let counter_prog ~bug =
  (* a persistent counter with a recovery invariant: value == shadow *)
  build_prog (fun b ->
      let _ =
        Builder.func b "init" [] ~body:(fun fb ->
            let c = Builder.call fb "pm_alloc" [ i 128 ] in
            Builder.store fb ~addr:c (i 0);
            Builder.store fb ~addr:(Builder.gep fb c (i 64)) (i 0);
            Builder.flush fb c;
            Builder.flush fb (Builder.gep fb c (i 64));
            Builder.fence fb ();
            Builder.ret fb c)
      in
      let _ =
        Builder.func b "bump" [] ~body:(fun fb ->
            let c = Builder.call fb "pm_base" [] in
            let s = Builder.gep fb c (i 64) in
            let x = Builder.add fb (Builder.load fb c) (i 1) in
            Builder.store fb ~addr:c x;
            Builder.flush fb c;
            Builder.fence fb ();
            Builder.store fb ~addr:s x;
            (* the injected bug: the shadow copy is never flushed *)
            if not bug then Builder.flush fb s;
            Builder.fence fb ();
            Builder.crash fb;
            Builder.ret_void fb)
      in
      let _ =
        Builder.func b "check" [] ~body:(fun fb ->
            let c = Builder.call fb "pm_base" [] in
            let s = Builder.gep fb c (i 64) in
            Builder.ret fb (Builder.eq fb (Builder.load fb c) (Builder.load fb s)))
      in
      ())

let setup = [ ("init", []); ("bump", []); ("bump", []); ("bump", []) ]

let test_crashsim_correct_program_consistent () =
  let ok =
    List.for_all Crashsim.consistent
      (Crashsim.sweep (counter_prog ~bug:false) ~setup ~checker:"check"
         ~checker_args:[])
  in
  Alcotest.(check bool) "consistent" true ok

let test_crashsim_buggy_program_detected () =
  let verdicts =
    Crashsim.sweep (counter_prog ~bug:true) ~setup ~checker:"check"
      ~checker_args:[]
  in
  Alcotest.(check int) "three crash points" 3 (List.length verdicts);
  Alcotest.(check bool) "some pessimistic failure" true
    (List.exists (fun v -> not v.Crashsim.pessimistic_ok) verdicts);
  Alcotest.(check bool) "lucky image always recovers" true
    (List.for_all (fun v -> v.Crashsim.lucky_ok) verdicts)

let suite =
  [
    ("layout regions", `Quick, test_layout_regions);
    ("mem load/store sizes", `Quick, test_mem_load_store_sizes);
    ("mem little endian", `Quick, test_mem_little_endian);
    ("mem regions disjoint", `Quick, test_mem_regions_disjoint);
    ("mem traps", `Quick, test_mem_traps);
    ("mem pm alloc alignment", `Quick, test_mem_pm_alloc_alignment);
    ("mem globals", `Quick, test_mem_globals);
    ("mem persist + crash image", `Quick, test_mem_persist_and_crash_image);
    ("mem string roundtrip", `Quick, test_mem_string_roundtrip);
    ("mem lazy segment boundaries", `Quick, test_lazy_segment_boundaries);
    QCheck_alcotest.to_alcotest prop_lazy_matches_eager;
    ( "mem pm pages cost what is touched",
      `Quick,
      test_pm_pages_cost_what_is_touched );
    ("machine allocation guard", `Quick, test_machine_allocation_guard);
    ("machine restart", `Quick, test_machine_restart);
    ( "machine restart from a paged image",
      `Quick,
      test_machine_restart_paged_image );
    ("machine nested sibling call", `Quick, test_machine_nested_sibling_call);
    ("pstate store/flush/fence", `Quick, test_pstate_store_flush_fence);
    ("pstate clflush immediate", `Quick, test_pstate_clflush_immediate);
    ( "pstate clflush drains pending",
      `Quick,
      test_pstate_clflush_drains_pending_writeback );
    ("pstate nt store", `Quick, test_pstate_nt_store);
    ("pstate flush snapshot", `Quick, test_pstate_flush_snapshot_semantics);
    ("pstate supersede", `Quick, test_pstate_supersede);
    ("pstate classification", `Quick, test_pstate_classification);
    ("pstate cross-line flush", `Quick, test_pstate_flush_cross_line_record);
    ( "pstate fence counts start lines",
      `Quick,
      test_pstate_fence_counts_start_lines );
    ( "pstate index holds only live lines",
      `Quick,
      test_pstate_index_holds_only_live_lines );
    ( "pstate update cycle allocation",
      `Quick,
      test_pstate_update_cycle_allocation );
    ("interp arith and flow", `Quick, test_interp_arith_and_flow);
    ("interp recursion", `Quick, test_interp_recursion);
    ("interp division traps", `Quick, test_interp_division_traps);
    ("interp intrinsics/output", `Quick, test_interp_intrinsics_and_output);
    ("interp abort and fuel", `Quick, test_interp_abort_and_fuel);
    ("interp alloca release", `Quick, test_interp_alloca_stack_release);
    ("interp bug at exit", `Quick, test_interp_detects_bug_at_exit);
    ("interp stop at crash", `Quick, test_interp_stop_at_crash);
    ("interp cost accounting", `Quick, test_interp_cost_accounting);
    ("interp globals", `Quick, test_interp_global_values);
    ("trace roundtrip", `Quick, test_trace_roundtrip);
    ("trace stacks", `Quick, test_trace_stacks);
    ("sitestats roundtrip", `Quick, test_sitestats_roundtrip);
    ("report line roundtrip", `Quick, test_report_line_roundtrip);
    ("pmtest format roundtrip", `Quick, test_pmtest_format_roundtrip);
    ("crashsim: correct program", `Quick, test_crashsim_correct_program_consistent);
    ("crashsim: buggy program", `Quick, test_crashsim_buggy_program_detected);
  ]
