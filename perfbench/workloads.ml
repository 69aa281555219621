(* The three benchmark workloads: deck generation from the seed, the
   untimed set-up each needs, the timed operation, and the output check
   that runs after each operation, outside its timed interval. *)

module Gg = Pdn.Grid_gen
module Op = Pdn.Openpdn
module N = Spice.Netlist
module Ex = Emflow.Extract
module Fl = Emflow.Em_flow
module Va = Emflow.Variation
module Lg = Emflow.Ledger
module J = Emflow.Json_out
module Cl = Em_core.Classify
module Im = Em_core.Immortality
module Au = Em_core.Audit
module S = Spans

let material = Em_core.Material.cu_dac21

(* [Spice.Mna.solve]'s default CG tolerance (relative residual). CG
   stops on its recurrence residual; the true residual it reports then
   drifts a little past [tol], and [Numerics.Cg] counts a solve as
   converged while that true residual is at most [10 * tol]. The check
   uses the same criterion ([Spice.Mna.solution] does not carry the
   flag itself). *)
let mna_tol = 1e-10
let mna_converged residual = Float.is_finite residual && residual <= 10. *. mna_tol

(* ROADMAP gate on the audit's tolerance-gated residuals (flux_rel). *)
let audit_tol = 1e-9

(* The seed whose verdict counts and digests are pinned in [Pinned]. *)
let default_seed = 1

type inject =
  | No_fault
  | Corrupt_verdict
  | Corrupt_residual
  | Drifted_residual  (* past [mna_tol] but converged: must not fail *)

type config = {
  seed : int;
  scale : float;  (* 1.0 = the documented deck sizes; < 1 for smoke runs *)
  dir : string;   (* fresh scratch directory of this run *)
  inject : inject;
}

type op_result = {
  segments : float;  (* segments verified by the op (x samples for MC) *)
  check : unit -> string list;
      (* output check, run after the op's timed interval; one message
         per problem found *)
}

type instance = {
  prepare : int -> unit;  (* untimed per-op reset, before the op starts *)
  op : int -> op_result;
  jobs : int;  (* domains the op runs on *)
}

type t = {
  name : string;
  decks : config -> string list;  (* generate the decks, return their paths *)
  setup : config -> string list -> instance;
}

(* ------------------------------------------------------------------ *)
(* Decks                                                               *)

let seed64 cfg = Int64.of_int cfg.seed

let write_deck path netlist =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> N.output oc netlist)

let ibm_deck size cfg =
  let spec = { (Gg.ibm_preset ~scale:cfg.scale size) with Gg.seed = seed64 cfg } in
  Gg.generate spec

let swerv =
  List.find
    (fun c -> c.Op.circuit_name = "swerv" && c.Op.node = Op.N45)
    Op.table3_circuits

(* The circuit's own synthesis, as [pggen openroad] writes it: the seed
   picks the ECO edits instead. Seeding the floorplan moves swerv's CG
   iteration count by up to 20% from seed to seed, so op time would
   track the seed rather than the code. *)
let swerv_deck cfg =
  Op.synthesize_circuit { swerv with Op.die = swerv.Op.die *. Float.sqrt cfg.scale }

let file_bytes path = (Unix.stat path).Unix.st_size

(* ------------------------------------------------------------------ *)
(* Layer calls, each inside a span that carries the layer's counters   *)

let parse path =
  let bytes = float_of_int (file_bytes path) in
  S.with_span "parser"
    ~counts:(fun n ->
      [ ("elements", float_of_int (Array.length n.N.elements)); ("bytes", bytes) ])
    (fun () -> Spice.Parser.parse_file path)

let lint netlist =
  let findings =
    S.with_span "checker"
      ~counts:(fun f -> [ ("findings", float_of_int (List.length f)) ])
      (fun () -> Spice.Checker.check netlist)
  in
  if Spice.Checker.errors findings <> [] then failwith "netlist fails lint"

let solve netlist =
  S.with_span "mna"
    ~counts:(fun (s : Spice.Mna.solution) ->
      [
        ("cg_iterations", float_of_int s.Spice.Mna.cg_iterations);
        ("residual", s.Spice.Mna.residual);
      ])
    (fun () -> Spice.Mna.solve netlist)

let extract ~tech sol =
  S.with_span "extract"
    ~counts:(fun cs ->
      [
        ("structures", float_of_int (List.length cs));
        ("segments", float_of_int (Ex.total_compact_segments cs));
      ])
    (fun () -> Ex.extract_compact ~tech sol)

let analyze ?audit compacts =
  S.with_span "em_flow"
    ~counts:(fun r -> [ ("failed_structures", float_of_int (Fl.failed_structures r)) ])
    (fun () -> Fl.run_on_compact ~material ?audit compacts)

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

(* Independent verdict path on the same solution: boxed extraction plus
   the per-structure reference test and the per-segment Blech filter. *)
let reference_counts ~tech sol =
  List.fold_left
    (fun acc (es : Ex.em_structure) ->
      let s = es.Ex.structure in
      let exact = (Im.check material s).Im.segment_immortal in
      Cl.merge acc
        (Cl.of_arrays ~predicted:(Em_core.Blech.filter material s) ~actual:exact))
    Cl.empty (Ex.extract ~tech sol)

let counts_string (c : Cl.counts) =
  Printf.sprintf "TP=%d TN=%d FP=%d FN=%d" c.Cl.tp c.Cl.tn c.Cl.fp c.Cl.fn

(* The op's counts and residual as the check sees them, with a
   deliberately corrupted value under [--inject] (tests only). *)
let observed cfg (c : Cl.counts) residual =
  match cfg.inject with
  | No_fault -> (c, residual)
  | Corrupt_verdict -> ({ c with Cl.tp = c.Cl.tp + 1 }, residual)
  | Corrupt_residual -> (c, 1e-3)
  | Drifted_residual -> (c, 5. *. mna_tol)

let check_solve_and_verdicts cfg ~tech (sol : Spice.Mna.solution) (r : Fl.result)
    =
  let counts, residual = observed cfg r.Fl.counts sol.Spice.Mna.residual in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  if not (mna_converged residual) then
    fail "DC solve did not converge: residual %.3g > %.0e after %d iterations"
      residual (10. *. mna_tol) sol.Spice.Mna.cg_iterations;
  let expected = reference_counts ~tech sol in
  if counts <> expected then
    fail "verdicts %s differ from the reference path %s" (counts_string counts)
      (counts_string expected);
  if Fl.failed_structures r > 0 then
    fail "%d structures failed analysis" (Fl.failed_structures r);
  (counts, List.rev !fails)

(* First-seen digest per key; a later op on the same input must match. *)
let digest_table () =
  let seen = Hashtbl.create 8 in
  fun key digest ->
    match Hashtbl.find_opt seen key with
    | None ->
      Hashtbl.add seen key digest;
      []
    | Some d when String.equal d digest -> []
    | Some d ->
      [ Printf.sprintf "%s digest %s differs from the first op's %s" key digest d ]

let pinned_check cfg ~what ~expected actual =
  if cfg.seed <> default_seed || cfg.scale <> 1. then []
  else
    match expected with
    | Some e when String.equal e actual -> []
    | Some e ->
      [ Printf.sprintf "%s is %s, pinned for seed %d: %s" what actual default_seed e ]
    | None ->
      Printf.eprintf "unpinned %s: %s\n%!" what actual;
      []

(* ------------------------------------------------------------------ *)
(* signoff-pg2: the emcheck analyze sequence, end to end               *)

(* Layer report, ranking and JSON report, as emcheck analyze renders them
   (printed output is rendered to strings and dropped). *)
let report ~out ~deck (r : Fl.result) compacts =
  S.with_span "report" (fun () ->
      let failed =
        List.filter_map
          (fun (d : Em_core.Diag.t) ->
            match d.Em_core.Diag.source with
            | Em_core.Diag.Structure { index; _ }
              when d.Em_core.Diag.severity = Em_core.Diag.Error ->
              Some index
            | _ -> None)
          r.Fl.diags
      in
      let structures =
        List.filteri (fun i _ -> not (List.mem i failed)) compacts
        |> List.map Ex.boxed_view
      in
      let table =
        Emflow.Report.render
          (Emflow.Layer_report.to_table
             (Emflow.Layer_report.analyze ~material structures))
      in
      let ranked =
        structures
        |> List.map (fun es -> (es, Im.check material es.Ex.structure))
        |> List.sort (fun (_, a) (_, b) -> compare (Im.margin a) (Im.margin b))
      in
      let layers = Emflow.Layer_report.analyze ~material structures in
      let plan = Emflow.Fixer.plan ~material structures in
      let doc =
        J.Obj
          [
            ("netlist", J.String deck);
            ("diagnostics", J.of_diags r.Fl.diags);
            ("flow", J.of_flow_result r);
            ("layers", J.of_layer_stats layers);
            ("fix_plan", J.of_fixer_plan plan);
          ]
      in
      let oc = open_out out in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> J.to_channel oc doc);
      ignore (Sys.opaque_identity (table, ranked)))

let signoff_decks cfg =
  let deck = Filename.concat cfg.dir "pg2.sp" in
  write_deck deck (ibm_deck Gg.Pg2 cfg).Gg.netlist;
  [ deck ]

let signoff_setup cfg decks =
  let deck = List.hd decks in
  let tech = Pdn.Tech.ibm_like in
  let out = Filename.concat cfg.dir "report.json" in
  let op _ =
    let netlist = parse deck in
    lint netlist;
    let sol = solve netlist in
    let compacts = extract ~tech sol in
    let r = analyze compacts in
    report ~out ~deck r compacts;
    let check () =
      let counts, fails = check_solve_and_verdicts cfg ~tech sol r in
      fails
      @ pinned_check cfg ~what:"signoff-pg2 verdicts"
          ~expected:Pinned.signoff_pg2_counts (counts_string counts)
    in
    { segments = float_of_int r.Fl.num_segments; check }
  in
  { prepare = ignore; op; jobs = 1 }

(* ------------------------------------------------------------------ *)
(* variation-pg1: vectorized Monte-Carlo on pre-extracted structures   *)

let mc_samples = 500

let variation_jobs () = min 2 (Numerics.Parallel.recommended_jobs ())

let stats_digest (vr : Va.result) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (s : Va.structure_stats) ->
      Printf.bprintf b "%d %d %b %d %d %h %h %h %h %h %h\n" s.Va.index s.Va.layer
        s.Va.nominal_immortal s.Va.samples_ok s.Va.samples_failed
        s.Va.mortality_probability s.Va.mean_max_stress s.Va.std_max_stress
        s.Va.q50_max_stress s.Va.q90_max_stress s.Va.q99_max_stress)
    vr.Va.stats;
  List.iter
    (fun (d : Em_core.Diag.t) -> Printf.bprintf b "%s\n" d.Em_core.Diag.code)
    vr.Va.diags;
  Digest.to_hex (Digest.string (Buffer.contents b))

let variation_decks cfg =
  let deck = Filename.concat cfg.dir "pg1.sp" in
  write_deck deck (ibm_deck Gg.Pg1 cfg).Gg.netlist;
  [ deck ]

let variation_setup cfg decks =
  let tech = Pdn.Tech.ibm_like in
  let netlist = Spice.Parser.parse_file (List.hd decks) in
  let sol = Spice.Mna.solve netlist in
  let compacts = Ex.extract_compact ~tech sol in
  (* Reference nominal verdicts, per structure, from the boxed path. *)
  let nominal =
    List.map
      (fun cs -> (Im.check material (Ex.boxed_view cs).Ex.structure).Im.structure_immortal)
      compacts
  in
  let segments = Ex.total_compact_segments compacts in
  let jobs = variation_jobs () in
  let spec = { Va.default_spec with Va.samples = mc_samples; seed = seed64 cfg } in
  let first = digest_table () in
  let op _ =
    let vr =
      S.with_span "variation"
        ~counts:(fun (vr : Va.result) ->
          [
            ("segment_samples", float_of_int (segments * vr.Va.samples));
            ( "samples_failed",
              float_of_int
                (List.fold_left (fun a s -> a + s.Va.samples_failed) 0 vr.Va.stats) );
          ])
        (fun () -> Va.run_compact ~material ~jobs spec compacts)
    in
    let check () =
      let digest = stats_digest vr in
      let got =
        match (cfg.inject, List.map (fun s -> s.Va.nominal_immortal) vr.Va.stats) with
        | Corrupt_verdict, v :: rest -> not v :: rest
        | _, got -> got
      in
      (if List.length vr.Va.stats <> List.length compacts then
         [ Printf.sprintf "%d of %d structures sampled" (List.length vr.Va.stats)
             (List.length compacts) ]
       else if got <> nominal then [ "nominal verdicts differ from the reference path" ]
       else [])
      @ (if Em_core.Diag.count_errors vr.Va.diags > 0 then
           [ Printf.sprintf "%d variation error diagnostics"
               (Em_core.Diag.count_errors vr.Va.diags) ]
         else [])
      @ first "Monte-Carlo stats" digest
      @ pinned_check cfg ~what:"variation-pg1 MC digest"
          ~expected:Pinned.variation_pg1_digest digest
    in
    { segments = float_of_int (segments * mc_samples); check }
  in
  { prepare = ignore; op; jobs }

(* ------------------------------------------------------------------ *)
(* eco-diff-swerv45: analyze an ECO variant, record it, diff vs base   *)

let eco_variants = 4
let eco_loads_changed = 6

(* Rescale a handful of load currents, chosen from the seed. *)
let eco_variant rng (net : N.t) =
  let loads =
    Array.to_list
      (Array.mapi (fun i e -> (i, e)) net.N.elements)
    |> List.filter_map (function
         | i, N.Current_source _ -> Some i
         | _ -> None)
    |> Array.of_list
  in
  let scaled = Hashtbl.create 8 in
  for _ = 1 to eco_loads_changed do
    Hashtbl.replace scaled
      loads.(Numerics.Rng.int rng (Array.length loads))
      (Numerics.Rng.uniform rng 0.5 1.5)
  done;
  let b = N.Builder.create ~title:net.N.title () in
  let name = N.node_name net in
  Array.iteri
    (fun i e ->
      match e with
      | N.Resistor { name = n; pos; neg; ohms } ->
        N.Builder.add_resistor b ~name:n (name pos) (name neg) ohms
      | N.Current_source { name = n; pos; neg; amps } ->
        let k = Option.value (Hashtbl.find_opt scaled i) ~default:1. in
        N.Builder.add_current_source b ~name:n (name pos) (name neg) (amps *. k)
      | N.Voltage_source { name = n; pos; neg; volts } ->
        N.Builder.add_voltage_source b ~name:n (name pos) (name neg) volts)
    net.N.elements;
  N.Builder.finish b

let eco_decks cfg =
  let base = (swerv_deck cfg).Gg.netlist in
  let rng = Numerics.Rng.create (seed64 cfg) in
  let path k = Filename.concat cfg.dir (Printf.sprintf "swerv45-%d.sp" k) in
  write_deck (path 0) base;
  for k = 1 to eco_variants do
    write_deck (path k) (eco_variant rng base)
  done;
  List.init (eco_variants + 1) path

let iso8601_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let eco_audit = { Fl.default_audit_config with Fl.audit_tol }

let run_record ~deck compacts (r : Fl.result) entries =
  let deck_hash = Digest.to_hex (Digest.file deck) in
  let timestamp = iso8601_now () in
  let stats = r.Fl.structure_stats in
  let count p = Array.fold_left (fun a s -> if p s then a + 1 else a) 0 stats in
  {
    Lg.rn_id = Lg.fresh_run_id ~deck_hash ~timestamp;
    rn_timestamp = timestamp;
    rn_deck = deck;
    rn_deck_hash = deck_hash;
    rn_tech = Pdn.Tech.nangate45.Pdn.Tech.name;
    rn_engine = "fused";
    rn_jobs = 1;
    rn_audited = true;
    rn_sigma_th_pa = Em_core.Material.effective_critical_stress material;
    rn_structures = List.length compacts;
    rn_segments = r.Fl.num_segments;
    rn_immortal = count (fun s -> s.Fl.st_ok && s.Fl.st_immortal);
    rn_mortal = count (fun s -> s.Fl.st_ok && not s.Fl.st_immortal);
    rn_failed = count (fun s -> not s.Fl.st_ok);
    rn_analysis_s = r.Fl.analysis_time;
    rn_entries = entries;
  }

let ok_or_fail what = function Ok v -> v | Error m -> failwith (what ^ ": " ^ m)

(* Timing fields (solve times, run ids) are left out: they differ on
   every run by construction. *)
let diff_digest (d : Lg.diff) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d %d %d %d %d %d %h\n" (List.length d.Lg.df_matched)
    (List.length d.Lg.df_changed) (List.length d.Lg.df_added)
    (List.length d.Lg.df_removed) d.Lg.df_verdict_flips d.Lg.df_regressions
    d.Lg.df_max_abs_margin_drift;
  List.iter
    (fun (c : Lg.changed) ->
      Printf.bprintf b "%d %d %d %s %s %b %b %h %h\n" c.Lg.dc_layer c.Lg.dc_nodes
        c.Lg.dc_segments c.Lg.dc_fp_a c.Lg.dc_fp_b c.Lg.dc_immortal_a
        c.Lg.dc_immortal_b c.Lg.dc_margin_a c.Lg.dc_margin_b)
    d.Lg.df_changed;
  List.iter
    (fun (m : Lg.matched) -> Printf.bprintf b "%s %h\n" m.Lg.dm_fp m.Lg.dm_margin_delta)
    d.Lg.df_matched;
  Digest.to_hex (Digest.string (Buffer.contents b))

let eco_setup cfg decks =
  let tech = Pdn.Tech.nangate45 in
  let base_deck = List.hd decks and variants = Array.of_list (List.tl decks) in
  (* Base run: analyzed and recorded once; every op starts from a ledger
     holding exactly this run. *)
  let base_dir = Filename.concat cfg.dir "ledger-base" in
  let base_run =
    let netlist = Spice.Parser.parse_file base_deck in
    let sol = Spice.Mna.solve netlist in
    let compacts = Ex.extract_compact ~tech sol in
    let r = Fl.run_on_compact ~material ~audit:eco_audit compacts in
    let run =
      run_record ~deck:base_deck compacts r (Lg.entries_of_result ~material compacts r)
    in
    ok_or_fail "ledger append" (Lg.append ~dir:base_dir run);
    run
  in
  let base_ledger =
    In_channel.with_open_bin (Lg.ledger_path base_dir) In_channel.input_all
  in
  let op_dir = Filename.concat cfg.dir "ledger" in
  Unix.mkdir op_dir 0o755;
  let first = digest_table () in
  let prepare _ =
    Out_channel.with_open_bin (Lg.ledger_path op_dir) (fun oc ->
        Out_channel.output_string oc base_ledger)
  in
  let op i =
    let k = (i + Array.length variants) mod Array.length variants in
    let deck = variants.(k) in
    let netlist = parse deck in
    lint netlist;
    let sol = solve netlist in
    let compacts = extract ~tech sol in
    let r = analyze ~audit:eco_audit compacts in
    let entries =
      S.with_span "ledger.entries" (fun () -> Lg.entries_of_result ~material compacts r)
    in
    let run = run_record ~deck compacts r entries in
    S.with_span "ledger.append"
      ~counts:(fun () -> [ ("bytes", float_of_int (file_bytes (Lg.ledger_path op_dir))) ])
      (fun () -> ok_or_fail "ledger append" (Lg.append ~dir:op_dir run));
    let runs = S.with_span "ledger.load" (fun () -> ok_or_fail "ledger load" (Lg.load ~dir:op_dir)) in
    let diff =
      S.with_span "ledger.diff"
        ~counts:(fun (d : Lg.diff) ->
          [ ("changed_structures", float_of_int (List.length d.Lg.df_changed)) ])
        (fun () ->
          let a = ok_or_fail "resolve base" (Lg.resolve runs base_run.Lg.rn_id) in
          let b = ok_or_fail "resolve run" (Lg.resolve runs run.Lg.rn_id) in
          Lg.diff a b)
    in
    let check () =
      let counts, fails = check_solve_and_verdicts cfg ~tech sol r in
      let audit_fails =
        Array.fold_left
          (fun acc -> function
            | Some a when Au.violations ~tol:audit_tol a <> [] -> acc + 1
            | Some _ -> acc
            | None -> acc + 1)
          0 r.Fl.audits
      in
      let digest = diff_digest diff in
      let key = Printf.sprintf "variant %d" k in
      fails
      @ (if audit_fails > 0 then
           [ Printf.sprintf "%d structures with audit violations or no audit" audit_fails ]
         else [])
      @ (if List.length runs <> 2 then
           [ Printf.sprintf "ledger holds %d runs, expected 2" (List.length runs) ]
         else [])
      @ first (key ^ " diff") digest
      @ pinned_check cfg ~what:("eco-diff-swerv45 " ^ key)
          ~expected:(Pinned.eco_diff k) (counts_string counts ^ " diff " ^ digest)
    in
    { segments = float_of_int r.Fl.num_segments; check }
  in
  { prepare; op; jobs = 1 }

let all =
  [
    { name = "signoff-pg2"; decks = signoff_decks; setup = signoff_setup };
    { name = "variation-pg1"; decks = variation_decks; setup = variation_setup };
    { name = "eco-diff-swerv45"; decks = eco_decks; setup = eco_setup };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
