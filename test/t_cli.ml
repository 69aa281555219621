(* End-to-end CLI contracts, driven the way CI drives the tools: spawn
   the real executables, assert exit codes, one-line diagnostics and the
   machine-readable outputs. The binaries and the data deck are dune
   [deps] of the test stanza, so the relative paths below resolve inside
   the build directory. *)

open T_helpers
module Ji = Emflow.Json_in

let emcheck = Filename.concat ".." (Filename.concat "bin" "emcheck.exe")
let bench = Filename.concat ".." (Filename.concat "bench" "main.exe")
let deck = Filename.concat ".." (Filename.concat "data" "mini_grid.sp")

let tmp_name =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "t_cli-%s-%d-%d" prefix (Unix.getpid ()) !n)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let rm_f path = try Sys.remove path with Sys_error _ -> ()

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> rm_f (Filename.concat dir f)) (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

type outcome = { code : int; out : string; err : string }

let run_cmd cmd =
  let out = tmp_name "out" and err = tmp_name "err" in
  let code =
    Sys.command
      (Printf.sprintf "%s >%s 2>%s" cmd (Filename.quote out)
         (Filename.quote err))
  in
  let o = read_file out and e = read_file err in
  rm_f out;
  rm_f err;
  { code; out = o; err = e }

let check_one_line_diagnostic ~prefix (r : outcome) =
  let err = String.trim r.err in
  Alcotest.(check int) "exit code 2" 2 r.code;
  if not (String.length err >= String.length prefix
          && String.sub err 0 (String.length prefix) = prefix) then
    Alcotest.failf "diagnostic %S does not start with %S" err prefix;
  Alcotest.(check bool) "single line" false (String.contains err '\n')

let json_of_file path =
  match Ji.of_file path with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s: %s" path msg

let get name j =
  match Ji.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing JSON field %S" name

let get_num name j =
  match Ji.number (get name j) with
  | Some f -> f
  | None -> Alcotest.failf "JSON field %S is not a number" name

(* ---------------------------------------------------------------- *)
(* explain error paths                                               *)

let test_explain_out_of_range () =
  let r = run_cmd (Printf.sprintf "%s explain %s 999" emcheck deck) in
  check_one_line_diagnostic
    ~prefix:"emcheck explain: structure index 999 out of range" r

let test_explain_missing_deck () =
  let r =
    run_cmd (Printf.sprintf "%s explain /nonexistent/deck.sp 0" emcheck)
  in
  check_one_line_diagnostic ~prefix:"emcheck explain:" r

let test_explain_malformed_deck () =
  let bad = tmp_name "bad" ^ ".sp" in
  Out_channel.with_open_text bad (fun oc ->
      output_string oc "* truncated resistor card\nRbroken n1\n.end\n");
  Fun.protect
    ~finally:(fun () -> rm_f bad)
    (fun () ->
      let r = run_cmd (Printf.sprintf "%s explain %s 0" emcheck bad) in
      check_one_line_diagnostic ~prefix:"emcheck explain:" r)

(* ---------------------------------------------------------------- *)
(* analyze on a deck whose DC solve does not converge                 *)

let test_analyze_dc_not_converged () =
  let island = tmp_name "island" ^ ".sp" and json = tmp_name "island.json" in
  Out_channel.with_open_text island (fun oc -> output_string oc island_deck);
  Fun.protect
    ~finally:(fun () -> rm_f island; rm_f json)
    (fun () ->
      let r =
        run_cmd
          (Printf.sprintf "%s analyze %s -t ibm --json %s" emcheck island json)
      in
      Alcotest.(check int) "exit code 1" 1 r.code;
      let codes =
        match Ji.list_value (get "diagnostics" (json_of_file json)) with
        | Some ds ->
          List.filter_map
            (fun d ->
              match (Ji.string_value (get "severity" d), Ji.string_value (get "code" d)) with
              | Some "error", Some code -> Some code
              | _ -> None)
            ds
        | None -> Alcotest.fail "diagnostics is not a list"
      in
      Alcotest.(check (list string)) "one dc-not-converged error"
        [ "dc-not-converged" ] codes)

(* The sample deck with a loaded three-line floating island spliced in
   before [.end]: a real grid whose DC solve cannot converge. *)
let mini_grid_with_island () =
  let cards =
    List.filter
      (fun l -> not (String.equal (String.trim l) ".end"))
      (String.split_on_char '\n' (read_file deck))
  in
  String.concat "\n"
    (cards
    @ [
        "Risland1 n1_300000_0 n1_301000_0 0.5";
        "Risland2 n1_301000_0 n1_302000_0 0.5";
        "Iisland n1_302000_0 0 0.001";
        ".end";
        "";
      ])

(* Run [f] on each non-converging deck, written to a temporary file. *)
let with_non_converging_decks f =
  List.iter
    (fun (name, text) ->
      let path = tmp_name name ^ ".sp" in
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      Fun.protect ~finally:(fun () -> rm_f path) (fun () -> f name path))
    [ ("mini-island", mini_grid_with_island ()); ("island", island_deck) ]

let test_explain_dc_not_converged () =
  with_non_converging_decks (fun name path ->
      let r = run_cmd (Printf.sprintf "%s explain %s 0 -t ibm" emcheck path) in
      check_one_line_diagnostic ~prefix:"emcheck explain:" r;
      if not (T_obs.contains r.err "dc-not-converged") then
        Alcotest.failf "%s: diagnostic %S does not name dc-not-converged" name
          r.err)

let test_stats_dc_not_converged () =
  with_non_converging_decks (fun name path ->
      let r = run_cmd (Printf.sprintf "%s stats %s -t ibm" emcheck path) in
      Alcotest.(check int) (name ^ ": exit code 1") 1 r.code;
      if not (T_obs.contains r.out "error[dc-not-converged]") then
        Alcotest.failf "%s: stats did not print the diagnostic:\n%s" name r.out)

(* The fused analyze path times the DC solve in its own pipeline stage,
   so the report's stage table accounts for it. *)
let test_analyze_solve_stage () =
  let json = tmp_name "stages.json" in
  Fun.protect
    ~finally:(fun () -> rm_f json)
    (fun () ->
      let r =
        run_cmd
          (Printf.sprintf "%s analyze %s -t ibm --json %s" emcheck deck json)
      in
      Alcotest.(check int) "exit code 0" 0 r.code;
      let stages =
        match Ji.list_value (get "stages" (get "flow" (json_of_file json))) with
        | Some l -> l
        | None -> Alcotest.fail "flow.stages is not a list"
      in
      let names =
        List.filter_map (fun st -> Ji.string_value (get "name" st)) stages
      in
      Alcotest.(check (list string)) "stage order"
        [ "solve"; "extract"; "analyze"; "classify" ] names;
      let solve =
        List.find (fun st -> Ji.string_value (get "name" st) = Some "solve") stages
      in
      Alcotest.(check bool) "solve stage has non-zero wall time" true
        (get_num "wall_s" solve > 0.))

(* ---------------------------------------------------------------- *)
(* record-run -> diff -> history                                     *)

let test_record_diff_history () =
  let dir = tmp_name "ledger" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* diff before anything is recorded: a one-line diagnostic, not a
         crash or a usage error. *)
      let r =
        run_cmd (Printf.sprintf "%s diff --dir %s" emcheck (Filename.quote dir))
      in
      check_one_line_diagnostic ~prefix:"emcheck diff:" r;
      (* history on an empty ledger is informative and exits 0. *)
      let r =
        run_cmd
          (Printf.sprintf "%s history --dir %s" emcheck (Filename.quote dir))
      in
      Alcotest.(check int) "empty history exits 0" 0 r.code;
      Alcotest.(check bool) "empty history says so" true
        (T_obs.contains r.out "is empty");
      (* Two identical recordings... *)
      let analyze =
        Printf.sprintf "%s analyze %s --record-run %s" emcheck deck
          (Filename.quote dir)
      in
      let r1 = run_cmd analyze in
      Alcotest.(check int) "first analyze exits 0" 0 r1.code;
      Alcotest.(check bool) "recording is announced" true
        (T_obs.contains r1.out "recorded to");
      Alcotest.(check int) "second analyze exits 0" 0 (run_cmd analyze).code;
      (* ...must diff clean, structure for structure. *)
      let json = tmp_name "diff" ^ ".json" in
      let r =
        run_cmd
          (Printf.sprintf
             "%s diff prev latest --dir %s --json %s --fail-on-regression"
             emcheck (Filename.quote dir) (Filename.quote json))
      in
      Fun.protect
        ~finally:(fun () -> rm_f json)
        (fun () ->
          Alcotest.(check int) "identical runs diff clean" 0 r.code;
          let summary = get "summary" (json_of_file json) in
          Alcotest.(check bool) "every structure matched by fingerprint" true
            (get_num "matched" summary > 0.);
          List.iter
            (fun field ->
              Alcotest.(check (float 0.)) (field ^ " is zero") 0.
                (get_num field summary))
            [
              "verdict_flips"; "regressions"; "added"; "removed"; "changed";
              "max_abs_margin_drift_pa";
            ]);
      let r =
        run_cmd
          (Printf.sprintf "%s history --dir %s --metric margin" emcheck
             (Filename.quote dir))
      in
      Alcotest.(check int) "history exits 0" 0 r.code;
      Alcotest.(check bool) "history sees both runs" true
        (T_obs.contains r.out "2 run(s)"))

(* ---------------------------------------------------------------- *)
(* bench compare: the no-history exit-0 path                         *)

let test_bench_compare_no_history () =
  let out_dir = tmp_name "bench-out" in
  Unix.mkdir out_dir 0o755;
  let verdict = tmp_name "verdict" ^ ".json" in
  Fun.protect
    ~finally:(fun () ->
      rm_f verdict;
      rm_rf out_dir)
    (fun () ->
      let r =
        run_cmd
          (Printf.sprintf "%s compare --out %s --json %s --window 7" bench
             (Filename.quote out_dir) (Filename.quote verdict))
      in
      Alcotest.(check int) "no history yet exits 0" 0 r.code;
      Alcotest.(check bool) "message names the gate state" true
        (T_obs.contains r.out "no history yet");
      let j = json_of_file verdict in
      Alcotest.(check (option bool)) "no_history flag" (Some true)
        (Ji.bool_value (get "no_history" j));
      Alcotest.(check (option bool)) "not regressed" (Some false)
        (Ji.bool_value (get "regressed" j));
      Alcotest.(check (float 0.)) "window actually used" 7. (get_num "window" j);
      match Ji.string_value (get "history" j) with
      | Some h ->
        Alcotest.(check bool) "history path is absolute" false
          (Filename.is_relative h)
      | None -> Alcotest.fail "verdict lacks the history path")

let suites =
  [
    ( "cli.explain",
      [
        case "out-of-range index: one line, exit 2" test_explain_out_of_range;
        case "missing deck: one line, exit 2" test_explain_missing_deck;
        case "malformed deck: one line, exit 2" test_explain_malformed_deck;
        case "non-converged DC solve: one line, exit 2"
          test_explain_dc_not_converged;
      ] );
    ( "cli.analyze",
      [
        case "non-converged DC solve: error, exit 1" test_analyze_dc_not_converged;
        case "DC solve timed in the solve stage" test_analyze_solve_stage;
      ] );
    ( "cli.stats",
      [ case "non-converged DC solve: error, exit 1" test_stats_dc_not_converged ] );
    ( "cli.ledger",
      [ slow_case "record-run, diff, history round trip" test_record_diff_history ] );
    ( "cli.bench",
      [ case "compare without history gates nothing" test_bench_compare_no_history ] );
  ]
