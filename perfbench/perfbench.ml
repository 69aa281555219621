(* perfbench: the deck-to-verdict benchmark executable.

   One process, one closed-loop client: generate the workload's decks
   from the seed, do the untimed set-up and one discarded warm-up op,
   then run timed ops back to back for the given number of seconds,
   checking every op's output after its timed interval. The last line of
   standard output is one JSON object with the result.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the metrics are the end-to-end ones; with --trace 1
   every other op is traced and the metrics are the per-layer ones. *)

module W = Workloads
module S = Spans

let now () = Unix.gettimeofday ()

let median = function [] -> 0. | xs -> Numerics.Stats.median (Array.of_list xs)

(* ------------------------------------------------------------------ *)
(* Peak resident memory of the timed ops                               *)

(* Writing "5" to clear_refs resets the kernel's VmHWM to the current
   RSS, so the high-water mark read after an op covers that op only. *)
let reset_hwm () =
  try
    Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc ->
        Out_channel.output_string oc "5")
  with Sys_error _ -> ()

let hwm_mb () =
  let status = In_channel.with_open_bin "/proc/self/status" In_channel.input_all in
  let kb =
    String.split_on_char '\n' status
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some kb)
           | _ -> None)
  in
  float_of_int (Option.value kb ~default:0) /. 1024.

(* ------------------------------------------------------------------ *)
(* Scratch directory                                                   *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let run_root = Filename.concat "perfbench" "_run"
let out_root = Filename.concat "perfbench" "_out"

(* ------------------------------------------------------------------ *)
(* One timed op                                                        *)

type op_record = {
  index : int;
  traced : bool;
  wall : float;
  cpu : float;
  segments : float;
  peak_mb : float;
  minor_gcs : int;
  major_gcs : int;
  failures : string list;
}

let run_op (inst : W.instance) ~traced i =
  inst.W.prepare i;
  Gc.full_major ();
  reset_hwm ();
  S.enabled := traced;
  S.current_op := i;
  let g0 = Gc.quick_stat () in
  let c0 = S.cpu_s () in
  let t0 = now () in
  let result = try Ok (S.with_span "op" (fun () -> inst.W.op i)) with e -> Error e in
  let t1 = now () in
  let c1 = S.cpu_s () in
  let g1 = Gc.quick_stat () in
  let peak_mb = hwm_mb () in
  S.enabled := false;
  let failures, segments =
    match result with
    | Ok r -> (
      (try r.W.check () with e -> [ "check raised " ^ Printexc.to_string e ]),
      r.W.segments )
    | Error e -> ([ "op raised " ^ Printexc.to_string e ], 0.)
  in
  {
    index = i;
    traced;
    wall = t1 -. t0;
    cpu = c1 -. c0;
    segments;
    peak_mb;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    failures;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric = { name : string; unit : string; value : float }

let end_to_end ~setup_s ops =
  let ok = List.filter (fun o -> o.failures = []) ops in
  let ok = if ok = [] then ops else ok in
  let walls = List.map (fun o -> o.wall) ok in
  [
    { name = "op_s"; unit = "s"; value = median walls };
    { name = "segments_per_s"; unit = "1/s";
      value = median (List.map (fun o -> o.segments /. o.wall) ok) };
    { name = "cpu_s"; unit = "s"; value = median (List.map (fun o -> o.cpu) ok) };
    { name = "peak_rss_mb"; unit = "MB";
      value = List.fold_left (fun m o -> Float.max m o.peak_mb) 0. ops };
    { name = "setup_s"; unit = "s"; value = setup_s };
  ]

(* Per-layer figures: each is computed per traced op from that op's
   spans, then the median over traced ops is reported. *)
let per_layer ~jobs ops spans =
  let traced = List.filter (fun o -> o.traced && o.failures = []) ops in
  let of_op o = List.filter (fun (s : S.span) -> s.S.op = o.index) spans in
  let per_op f = median (List.map (fun o -> f (of_op o)) traced) in
  let named n ss = List.filter (fun (s : S.span) -> String.equal s.S.name n) ss in
  let wall n ss = List.fold_left (fun a (s : S.span) -> a +. (s.S.dur_us /. 1e6)) 0. (named n ss) in
  let alloc n ss = List.fold_left (fun a (s : S.span) -> a +. (s.S.alloc_w /. 1e6)) 0. (named n ss) in
  let cpu n ss = List.fold_left (fun a (s : S.span) -> a +. s.S.cpu_s) 0. (named n ss) in
  let count n k ss =
    List.fold_left
      (fun a (s : S.span) -> a +. Option.value (List.assoc_opt k s.S.counts) ~default:0.)
      0. (named n ss)
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  let m name unit f = { name; unit; value = per_op f } in
  let op_span ss = List.find_opt (fun (s : S.span) -> String.equal s.S.name "op") ss in
  let coverage ss =
    match op_span ss with
    | None -> 0.
    | Some root ->
      let children =
        List.fold_left
          (fun a (s : S.span) -> if s.S.parent = Some root.S.id then a +. s.S.dur_us else a)
          0. ss
      in
      ratio children root.S.dur_us
  in
  let self ss =
    match op_span ss with None -> 0. | Some root -> S.self_us ss root /. 1e6
  in
  let untraced = List.filter (fun o -> (not o.traced) && o.failures = []) ops in
  let med_wall l = median (List.map (fun o -> o.wall) l) in
  [
    m "parser.wall_s" "s" (wall "parser");
    m "parser.alloc_mw" "Mw" (alloc "parser");
    m "parser.elements" "count" (count "parser" "elements");
    m "parser.mb_per_s" "MB/s" (fun ss ->
        ratio (count "parser" "bytes" ss /. 1e6) (wall "parser" ss));
    m "checker.wall_s" "s" (wall "checker");
    m "checker.findings" "count" (count "checker" "findings");
    m "mna.wall_s" "s" (wall "mna");
    m "mna.alloc_mw" "Mw" (alloc "mna");
    m "mna.cg_iterations" "count" (count "mna" "cg_iterations");
    m "mna.residual" "ratio" (count "mna" "residual");
    m "extract.wall_s" "s" (wall "extract");
    m "extract.alloc_mw" "Mw" (alloc "extract");
    m "extract.structures" "count" (count "extract" "structures");
    m "extract.segments" "count" (count "extract" "segments");
    m "em_flow.wall_s" "s" (wall "em_flow");
    m "em_flow.alloc_mw" "Mw" (alloc "em_flow");
    m "em_flow.failed_structures" "count" (count "em_flow" "failed_structures");
    m "report.wall_s" "s" (wall "report");
    m "report.alloc_mw" "Mw" (alloc "report");
    m "variation.wall_s" "s" (wall "variation");
    m "variation.cpu_s" "s" (cpu "variation");
    m "variation.alloc_mw" "Mw" (alloc "variation");
    m "variation.segment_samples" "count" (count "variation" "segment_samples");
    m "variation.samples_failed" "count" (count "variation" "samples_failed");
    m "variation.parallel_efficiency" "ratio" (fun ss ->
        ratio (cpu "variation" ss) (float_of_int jobs *. wall "variation" ss));
    m "ledger.entries_s" "s" (wall "ledger.entries");
    m "ledger.entries_alloc_mw" "Mw" (alloc "ledger.entries");
    m "ledger.append_s" "s" (wall "ledger.append");
    m "ledger.load_s" "s" (wall "ledger.load");
    m "ledger.diff_s" "s" (wall "ledger.diff");
    m "ledger.bytes" "bytes" (count "ledger.append" "bytes");
    m "ledger.changed_structures" "count" (count "ledger.diff" "changed_structures");
    { name = "gc.minor_collections"; unit = "count";
      value = median (List.map (fun o -> float_of_int o.minor_gcs) traced) };
    { name = "gc.major_collections"; unit = "count";
      value = median (List.map (fun o -> float_of_int o.major_gcs) traced) };
    m "op.self_s" "s" self;
    m "trace.coverage" "ratio" coverage;
    { name = "trace.overhead_s"; unit = "s";
      value = (if untraced = [] then 0. else med_wall traced -. med_wall untraced) };
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_json ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      Obs.Jsonx.add_string b m.name;
      Printf.bprintf b ": {\"value\": %s, \"unit\": " (json_number m.value);
      Obs.Jsonx.add_string b m.unit;
      Buffer.add_char b '}')
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

(* Set-ups per run; [setup_s] is their median. *)
let setup_rounds = 3

type setup_round = {
  total : float;
  decks_s : float;
  pre_s : float;
  warm_up_s : float;
  ok : bool;  (* the round's warm-up op passed its output check *)
}

let failed_round = { total = nan; decks_s = nan; pre_s = nan; warm_up_s = nan; ok = false }

let usage =
  "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scale X] \
   [--inject none|verdict|residual|drift] [--deck-digest]\nworkloads: "
  ^ String.concat ", " (List.map (fun w -> w.W.name) W.all)

let () =
  let workload = ref "" and seed = ref W.default_seed and seconds = ref 10.
  and trace = ref 0 and scale = ref 1. and inject = ref "none"
  and deck_digest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N deck and Monte-Carlo seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 traced run: report per-layer metrics");
      ("--scale", Arg.Set_float scale, "X deck scale (1 = documented sizes)");
      ("--inject", Arg.Set_string inject, "FAULT corrupt every op's output (tests)");
      ("--deck-digest", Arg.Set deck_digest, " print the decks' MD5 and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
      prerr_endline usage;
      exit 2
  in
  let inject =
    match !inject with
    | "none" -> W.No_fault
    | "verdict" -> W.Corrupt_verdict
    | "residual" -> W.Corrupt_residual
    | "drift" -> W.Drifted_residual
    | s ->
      prerr_endline ("unknown --inject " ^ s);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let traced_run = !trace = 1 in
  let dir =
    Filename.concat run_root
      (Printf.sprintf "%s-s%d-%d" w.W.name !seed (Unix.getpid ()))
  in
  mkdir_p dir;
  let round_dir round = Filename.concat dir (Printf.sprintf "setup-%d" round) in
  let cfg round =
    mkdir_p (round_dir round);
    { W.seed = !seed; scale = !scale; dir = round_dir round; inject }
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  if !deck_digest then
    print_endline
      (Digest.to_hex
         (Digest.string (String.concat "" (List.map Digest.file (w.W.decks (cfg 0))))))
  else
  (* Set-up: decks from the seed, untimed pre-work, one warm-up op. It is
     done [setup_rounds] times from the same fresh process state, each in
     a fresh directory, and [setup_s] is the median. All rounds but the
     last run in forked children, so their heaps never count towards the
     timed ops' [peak_rss_mb]; the timed ops use the last round's
     instance. *)
  let set_up round =
    let cfg = cfg round in
    let t_setup = now () in
    let decks = w.W.decks cfg in
    let t_decks = now () in
    let inst = w.W.setup cfg decks in
    let t_pre = now () in
    let warm_up = run_op inst ~traced:false (-1) in
    List.iter (fun f -> Printf.eprintf "warm-up op: %s\n%!" f) warm_up.failures;
    ( {
        total = now () -. t_setup;
        decks_s = t_decks -. t_setup;
        pre_s = t_pre -. t_decks;
        warm_up_s = warm_up.wall;
        ok = warm_up.failures = [];
      },
      inst )
  in
  let in_child round =
    flush_all ();
    let r, wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
      Unix.close r;
      let res =
        try fst (set_up round)
        with e ->
          Printf.eprintf "set-up %d raised %s\n%!" round (Printexc.to_string e);
          failed_round
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc (res : setup_round) [];
      close_out oc;
      Unix._exit 0
    | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr r in
      let res =
        try (Marshal.from_channel ic : setup_round) with End_of_file | Failure _ -> failed_round
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      rm_rf (round_dir round);
      res
  in
  let children = List.init (setup_rounds - 1) in_child in
  let last, inst = set_up (setup_rounds - 1) in
  let rounds = children @ [ last ] in
  List.iteri
    (fun i r ->
      Printf.printf "  set-up %d: %.3fs (decks %.3fs, pre-work %.3fs, warm-up op %.3fs)\n" i
        r.total r.decks_s r.pre_s r.warm_up_s)
    rounds;
  let warm_ups_ok = List.for_all (fun r -> r.ok) rounds in
  let setup_s = median (List.map (fun r -> r.total) rounds) in
  (* Timed ops, closed loop. A traced run alternates traced and untraced
     ops so the tracing overhead can be measured. *)
  let min_ops = if traced_run then 2 else 1 in
  let t_start = now () in
  let rec loop i acc =
    if i >= min_ops && now () -. t_start >= !seconds then List.rev acc
    else begin
      let o = run_op inst ~traced:(traced_run && i mod 2 = 0) i in
      List.iter (fun f -> Printf.eprintf "op %d: %s\n%!" i f) o.failures;
      loop (i + 1) (o :: acc)
    end
  in
  let ops = loop 0 [] in
  let attempted = List.length ops in
  let failed = List.length (List.filter (fun o -> o.failures <> []) ops) in
  let e2e = end_to_end ~setup_s ops in
  Printf.printf "perfbench %s seed=%d scale=%g ops=%d failed=%d\n" w.W.name !seed
    !scale attempted failed;
  let print_metric m = Printf.printf "  %-28s %14.6g %s\n" m.name m.value m.unit in
  Printf.printf "  op walls: %s\n"
    (String.concat " " (List.map (fun o -> Printf.sprintf "%.3f" o.wall) ops));
  Printf.printf "  op peak MB: %s\n"
    (String.concat " " (List.map (fun o -> Printf.sprintf "%.1f" o.peak_mb) ops));
  List.iter print_metric e2e;
  print_metric
    { name = "failed_share"; unit = "ratio";
      value = float_of_int failed /. float_of_int attempted };
  let metrics =
    if not traced_run then e2e
    else begin
      let spans = S.spans () in
      mkdir_p out_root;
      let path =
        Filename.concat out_root (Printf.sprintf "trace-%s-s%d.json" w.W.name !seed)
      in
      S.write_chrome path spans;
      Printf.printf "trace: %s (%d spans)\n" path (List.length spans);
      let layers = per_layer ~jobs:inst.W.jobs ops spans in
      List.iter print_metric layers;
      layers
    end
  in
  let correct = failed = 0 && warm_ups_ok in
  print_endline (result_json ~correct ~attempted ~failed metrics)
