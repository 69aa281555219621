(* In-memory span recorder for the benchmark's traced mode.

   Spans are recorded around the benchmark's own calls into each layer
   (never inside the program), kept in memory, and written once at the
   end in the Chrome trace-event format that [Obs.Trace] exports. When
   recording is off, [with_span] is one branch plus the call. *)

type span = {
  id : int;
  parent : int option;
  op : int;  (* op id: -1 for the warm-up, 0.. for timed ops *)
  name : string;
  start_us : float;
  dur_us : float;
  cpu_s : float;  (* process CPU time during the span, all domains *)
  alloc_w : float;  (* words allocated during the span *)
  counts : (string * float) list;  (* layer work counters *)
}

let enabled = ref false
let current_op = ref (-1)
let next_id = ref 0
let stack : int list ref = ref []
let recorded : span list ref = ref []

(* Words allocated by the whole process so far: minor + major - promoted
   over every domain, including worker domains already joined. Exact for
   the calling domain; other domains' counters are folded in when they
   exit or reach a GC point, which is always the case for the pooled
   work the benchmark times (workers are joined before the call
   returns). *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let now_us () = Unix.gettimeofday () *. 1e6

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let with_span ?(counts = fun _ -> []) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> Some p | [] -> None in
    stack := id :: !stack;
    let a0 = allocated_words () in
    let c0 = cpu_s () in
    let t0 = now_us () in
    let finish result_counts =
      let t1 = now_us () in
      let c1 = cpu_s () in
      let a1 = allocated_words () in
      stack := List.tl !stack;
      recorded :=
        {
          id;
          parent;
          op = !current_op;
          name;
          start_us = t0;
          dur_us = t1 -. t0;
          cpu_s = c1 -. c0;
          alloc_w = a1 -. a0;
          counts = result_counts;
        }
        :: !recorded
    in
    match f () with
    | r ->
      finish (counts r);
      r
    | exception e ->
      finish [];
      raise e
  end

let spans () = List.rev !recorded

(* Self time: a span's duration minus what its direct children cover. *)
let self_us all s =
  List.fold_left
    (fun acc c -> if c.parent = Some s.id then acc -. c.dur_us else acc)
    s.dur_us all

let to_chrome_json all =
  let buf = Buffer.create 65536 in
  let epoch = match all with [] -> 0. | s :: _ -> s.start_us in
  Buffer.add_string buf
    "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\
     \"args\":{\"name\":\"perfbench\"}}";
  List.iter
    (fun s ->
      Buffer.add_string buf ",{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":";
      Obs.Jsonx.add_string buf s.name;
      Buffer.add_string buf ",\"cat\":\"perfbench\",\"ts\":";
      Obs.Jsonx.add_float buf (s.start_us -. epoch);
      Buffer.add_string buf ",\"dur\":";
      Obs.Jsonx.add_float buf s.dur_us;
      Buffer.add_string buf ",\"args\":{\"span_id\":";
      Buffer.add_string buf (string_of_int s.id);
      (match s.parent with
      | Some p ->
        Buffer.add_string buf ",\"parent_id\":";
        Buffer.add_string buf (string_of_int p)
      | None -> ());
      Buffer.add_string buf ",\"op\":";
      Buffer.add_string buf (string_of_int s.op);
      Buffer.add_string buf ",\"self_us\":";
      Obs.Jsonx.add_float buf (self_us all s);
      Buffer.add_string buf ",\"alloc_words\":";
      Obs.Jsonx.add_float buf s.alloc_w;
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ',';
          Obs.Jsonx.add_string buf k;
          Buffer.add_char buf ':';
          Obs.Jsonx.add_float buf v)
        s.counts;
      Buffer.add_string buf "}}")
    all;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write_chrome path all =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_chrome_json all))
