(* The measuring half of the perfbench benchmark; perfbench/run.py builds
   it and runs it once per measurement:

     xbench.exe --workload fig16|xmark-5x|serve --seed N --seconds S
                --trace 0|1 --expected FILE --workdir DIR --cli EXE

   Every layer is timed from outside, around calls to its public
   functions; the library's own telemetry (Xl_obs) stays off in this
   process.  The seed sets the scenario order of every pass, which
   sessions suspend and the open-loop arrival schedule; the documents
   never change.  The last line of standard output is one JSON object
   (see perfbench/README.md). *)

module M = Xl_core.Machine
module Json = Xl_json.Json
module Stats = Xl_core.Stats
module Scenario = Xl_core.Scenario
module Store = Xl_xml.Store
module Teacher = Xl_core.Teacher
module Client = Xl_server.Client
module Xs = Xl_workload.Xmark_scenarios

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace_run = ref false (* --trace 1: the per-layer run *)
let tracing = ref false (* spans are being recorded now *)
let expected_file = ref ""
let workdir = ref "."
let cli = ref ""

(* Fixed here, never read from the environment: the in-process learner
   runs on one domain (no pool), the server on [server_workers], driven
   over [connections] keep-alive connections. *)
let learner_config = { Xl_core.Learn_types.default_config with pool = None }
let server_workers = 1
let connections = 2
let suspend_share = 3 (* one session in three suspends mid-dialogue *)
let server_spawns = 7
let open_rate = 9.0 (* serve: offered sessions per second, open loop *)
let mapping_reps = 10 (* serve: rounds of mapping execution in the generator *)

(* The percentile reported as think_tail_ms: per workload, the highest
   one with at least ten samples beyond it that repeated within a tenth
   from run to run (see README.md). *)
let tail_q () = match !workload with "fig16" -> 0.99 | "xmark-5x" -> 0.97 | _ -> 0.90

let now_ms () = float_of_int (Xl_obs.Obs.now_ns ()) /. 1e6

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.
let mean xs = sum xs /. float_of_int (max 1 (List.length xs))

(* ---------- host speed --------------------------------------------------- *)

(* The host's speed changes by up to half for seconds at a time (a
   virtual CPU sharing its core), and every timing moves with it.  A
   fixed reference kernel, run between units of work, measures the speed
   of the moment: the run is cut into segments (a pass in process; a
   cycle or a chunk of the server's load, probed at the quiet boundaries
   around it and while no session is in flight), and every time measured
   in a segment is scaled to a host on which the kernel takes
   [nominal_kernel_ms].  run.py keeps the whole run, the server included,
   on one CPU, so the probes measure the CPU the work runs on.  The
   kernel uses no code of the repository, and a minor collection before
   it empties the young heap, so that its allocations (about 100 000 words,
   under half the young heap) trigger no collection and no change to the
   program moves it.  The raw figures are printed beside the scaled ones. *)
let nominal_kernel_ms = 0.5

module Sm = Map.Make (String)

let kernel () =
  let m = ref Sm.empty in
  for i = 0 to 999 do
    m := Sm.add (string_of_int (i * 7919 mod 10_007)) (i, [ i ]) !m
  done;
  ignore (Sys.opaque_identity (List.sort compare (Sm.bindings !m)))

let segment = ref 0
let seg_probes = ref []
let factors : (int, float) Hashtbl.t = Hashtbl.create 64
let scaling = ref true

let probe_lock = Mutex.create ()

let probe () =
  Gc.minor ();
  let t0 = now_ms () in
  kernel ();
  let t = now_ms () -. t0 in
  Mutex.protect probe_lock (fun () -> seg_probes := t :: !seg_probes)

(* end the current segment; with [carry], its last [carry] probes (taken
   at the boundary) also count for the next one *)
let close_segment ?(carry = 0) () =
  Hashtbl.replace factors !segment (nominal_kernel_ms /. mean !seg_probes);
  incr segment;
  seg_probes := List.filteri (fun i _ -> i < carry) !seg_probes

let factor seg = if !scaling then Hashtbl.find factors seg else 1.

(* the mean factor over the segments, as printed and as host.speed *)
let host_speed () = mean (List.of_seq (Hashtbl.to_seq_values factors))

(* ---------- spans and samples ------------------------------------------- *)

(* A span is one call into a layer, with the span that caused it and the
   session (one scenario in one pass) it served.  Spans are kept in
   memory while tracing and written out at the end.  Durations are also
   kept by name, with their segment, in every run: the metrics are made
   of them. *)
type span = {
  id : int;
  name : string;
  t0 : float;
  t1 : float;
  parent : int;
  session : string;
}

let lock = Mutex.create ()
let spans : span list ref = ref []
let last_id = ref 0
let samples : (string, (float * int) list) Hashtbl.t = Hashtbl.create 64

let fresh_id () =
  Mutex.protect lock (fun () ->
      incr last_id;
      !last_id)

let sample name v =
  Mutex.protect lock (fun () ->
      Hashtbl.replace samples name
        ((v, !segment) :: Option.value ~default:[] (Hashtbl.find_opt samples name)))

(* a time sample's value, scaled by its segment's factor *)
let values name =
  Mutex.protect lock (fun () -> Option.value ~default:[] (Hashtbl.find_opt samples name))
  |> List.map (fun (v, seg) -> v *. factor seg)

(* a sample as measured *)
let raw_values name =
  Mutex.protect lock (fun () -> Option.value ~default:[] (Hashtbl.find_opt samples name))
  |> List.map fst

let note ?id ~parent ~session name t0 t1 =
  sample name (t1 -. t0);
  if !tracing then
    let id = match id with Some i -> i | None -> fresh_id () in
    Mutex.protect lock (fun () ->
        spans := { id; name; t0; t1; parent; session } :: !spans)

let timed ~parent ~session name f =
  let t0 = now_ms () in
  let r = f () in
  note ~parent ~session name t0 (now_ms ());
  r

let reset_samples () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset samples;
      spans := [])

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("id", Json.int s.id);
                    ("name", Json.str s.name);
                    ("start_ms", Json.Num s.t0);
                    ("end_ms", Json.Num s.t1);
                    ("parent", Json.int s.parent);
                    ("session", Json.str s.session);
                  ]));
          output_char oc '\n')
        (List.rev !spans))

(* spans that group others rather than time a layer *)
let is_group name = name = "pass" || name = "session"

(* per pass, the wall time of the [group] spans not covered by a layer
   span *)
let unattributed ~group ~passes =
  let dur s = s.t1 -. s.t0 in
  let wall = sum (List.filter_map (fun s -> if s.name = group then Some (dur s) else None) !spans) in
  (* the set-ups' spans lie outside every pass *)
  let covered =
    sum
      (List.filter_map
         (fun s -> if is_group s.name || s.session = "setup" then None else Some (dur s))
         !spans)
  in
  (wall -. covered) /. float_of_int passes

(* ---------- failures and exact counts ------------------------------------ *)

let attempted = Atomic.make 0
let failed = Atomic.make 0
let problems = ref []

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Atomic.incr failed;
      Mutex.protect lock (fun () ->
          if List.length !problems < 20 then problems := msg :: !problems))
    fmt

let bump tbl k n =
  Mutex.protect lock (fun () ->
      Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k)))

let count tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)

(* the per-pass counts that must repeat exactly, pass after pass and run
   after run *)
let exact_names =
  [
    "questions.batch"; "questions.eq"; "questions.cb"; "questions.order";
    "machine.steps"; "mq.batch_words"; "user_interactions"; "xquery.reparse_failures";
  ]

(* the seed's Figure-16 rows and exact counts: lines
   "row <workload> <scenario> <row>" and "count <workload> <name> <n>";
   serve learns the fig16 mappings *)
let expected_rows = Hashtbl.create 64
let expected_counts = Hashtbl.create 32
let rows_of () = if !workload = "serve" then "fig16" else !workload

let load_expected path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | "row" :: w :: name :: _ ->
           let skip = String.length w + String.length name + 6 in
           Hashtbl.replace expected_rows (w, name)
             (String.sub line skip (String.length line - skip))
         | [ "count"; w; name; n ] ->
           Hashtbl.replace expected_counts (w, name) (int_of_string n)
         | _ -> ())

let check_count ~what k n =
  match Hashtbl.find_opt expected_counts (rows_of (), k) with
  | Some e when e = n -> ()
  | Some e -> fail "%s: %s = %d, expected %d" what k n e
  | None -> fail "%s: %s = %d, and no expected count" what k n

let check_counts ~what tbl = List.iter (fun k -> check_count ~what k (count tbl k)) exact_names

(* ---------- scenarios ---------------------------------------------------- *)

type scen = {
  label : string;  (* "xmark/Q1": also the server's catalog name *)
  sc : Scenario.t;
  mutable answers : M.answer array;  (* recorded in the reference pass *)
  mutable mid : int;  (* a suspending session suspends after this step *)
  mutable snap_bytes : int;  (* Machine.snapshot size at [mid] *)
  mutable row : string;
  mutable mapping : Xl_xquery.Ast.expr option;  (* the learned query *)
}

let xmark_queries =
  Xs.
    [
      ("Q1", q1); ("Q2", q2); ("Q3", q3); ("Q4", q4); ("Q5", q5); ("Q7", q7);
      ("Q8", q8); ("Q9", q9); ("Q10", q10); ("Q11", q11); ("Q12", q12);
      ("Q13", q13); ("Q14", q14); ("Q15", q15); ("Q16", q16); ("Q17", q17);
      ("Q18", q18); ("Q19", q19); ("Q20", q20);
    ]

let scen label sc = { label; sc; answers = [||]; mid = 0; snap_bytes = 0; row = ""; mapping = None }

(* Build the workload's documents, scenarios and prepared stores.  The
   document build and the index preparation are the timed layers. *)
let build_suite () =
  let session = "setup" in
  let xmark ~scale ~streamed =
    let doc, store =
      timed ~parent:0 ~session "xml.build" (fun () ->
          if streamed then
            let doc, fz = Xl_workload.Xmark_gen.generate_frozen scale in
            (doc, Store.of_frozen [ fz ])
          else
            let doc = Xl_workload.Xmark_gen.generate scale in
            (doc, Store.of_docs [ doc ]))
    in
    let env = { Xs.store; dtd = Xl_workload.Xmark_dtd.get (); doc } in
    List.map (fun (q, f) -> scen ("xmark/" ^ q) (f env)) xmark_queries
  in
  let suite =
    if !workload = "xmark-5x" then
      xmark ~scale:(Xl_workload.Xmark_gen.scale_factor 5) ~streamed:true
    else
      xmark ~scale:Xl_workload.Xmark_gen.default_scale ~streamed:false
      @ timed ~parent:0 ~session "xml.build" (fun () ->
            List.map
              (fun (q, sc) -> scen ("xmp/" ^ q) sc)
              (Xl_workload.Xmp_scenarios.all ()))
  in
  let stores =
    List.fold_left
      (fun acc s ->
        let st = s.sc.Scenario.store in
        if List.memq st acc then acc else st :: acc)
      [] suite
  in
  List.iter
    (fun st ->
      timed ~parent:0 ~session "xml.prepare" (fun () -> Store.prepare st);
      Store.set_strict st true)
    stores;
  (suite, stores)

(* one timed set-up, in the current segment *)
let setup () =
  let t0 = now_ms () in
  let r = build_suite () in
  sample "setup" (now_ms () -. t0);
  r

(* ---------- seeded choices ------------------------------------------------ *)

let rng salt p = Random.State.make [| !seed; salt; p |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Pass [p]: the scenario order, and whether each position suspends.
   Passes come in cycles of [suspend_share]; within a cycle each scenario
   suspends in exactly one pass, so every whole cycle does the same work
   whatever the seed. *)
let pass_plan suite p =
  let a = Array.of_list suite in
  let n = Array.length a in
  let rank = Array.make n 0 in
  Array.iteri
    (fun r j -> rank.(j) <- r)
    (shuffle (rng 2 (p / suspend_share)) (Array.init n Fun.id));
  let order = shuffle (rng 1 p) (Array.init n Fun.id) in
  ( Array.map (fun j -> a.(j)) order,
    Array.map (fun j -> rank.(j) mod suspend_share = p mod suspend_share) order )

(* ---------- one session in process --------------------------------------- *)

(* a lone membership question counts as a batch of one *)
let kind = function
  | M.Membership _ | M.Membership_batch _ -> "batch"
  | M.Equivalence _ -> "eq"
  | M.Condition_box _ -> "cb"
  | M.Order_box _ -> "order"

let step_kinds = [ "batch"; "eq"; "cb"; "order" ]

let run_mapping s ast = ignore (Xl_xquery.Eval.run (Xl_xquery.Eval.make_ctx s.sc.Scenario.store) ast)

let suspend_resume ~sid ~session s m =
  let call name f = timed ~parent:sid ~session name f in
  let t0 = now_ms () in
  let snap = call "machine.snapshot" (fun () -> M.snapshot m) in
  M.abort m;
  Atomic.incr attempted;
  match call "machine.restore" (fun () -> M.restore ~scenario:s.sc snap) with
  | m' ->
    sample "resume" (now_ms () -. t0);
    if String.length snap <> s.snap_bytes then
      fail "%s: snapshot of %d bytes, %d in the reference pass" session
        (String.length snap) s.snap_bytes;
    m'
  | exception M.Corrupt e ->
    fail "%s: restore raised Corrupt: %s" session e;
    raise Exit

(* Drive one scenario to a verified mapping through Machine.start/step,
   the simulated user answering through Machine.answer_with, then run
   the learned mapping once.  [keep] records the answers, row, mapping
   and mid-dialogue snapshot size (the reference pass). *)
let run_session ?(keep = false) ~parent ~tag ~suspend counts s =
  let session = Printf.sprintf "%s#%s" s.label tag in
  let sid = fresh_id () in
  let t0 = now_ms () and cpu0 = cpu_s () in
  let call name f = timed ~parent:sid ~session name f in
  Atomic.incr attempted;
  let kept = ref [] in
  (match
     let m0 = call "machine.start" (fun () -> M.start ~config:learner_config s.sc) in
     let teacher = M.oracle_teacher m0 in
     let rec go i answers m =
       match M.outcome m with
       | `Done r -> (r, List.rev answers)
       | `Ask q ->
         let a = call "oracle.answer" (fun () -> M.answer_with teacher q) in
         let k = kind q in
         bump counts ("questions." ^ k) 1;
         bump counts "machine.steps" 1;
         (match q with
         | M.Membership _ -> bump counts "mq.batch_words" 1
         | M.Membership_batch { rel_paths; _ } ->
           bump counts "mq.batch_words" (List.length rel_paths)
         | _ -> ());
         let ts = now_ms () in
         let o, m' = M.step m a in
         let te = now_ms () in
         note ~parent:sid ~session
           (match o with `Done _ -> "machine.finish" | `Ask _ -> "machine.step." ^ k)
           ts te;
         sample "think" (te -. ts);
         if keep then kept := m' :: !kept;
         let m' =
           match o with
           | `Ask _ when suspend && i + 1 = s.mid -> suspend_resume ~sid ~session s m'
           | _ -> m'
         in
         go (i + 1) (a :: answers) m'
     in
     go 0 [] m0
   with
  | exception Exit -> ()
  | exception e -> fail "%s: %s" session (Printexc.to_string e)
  | r, answers ->
    let row = Stats.to_row r.Xl_core.Learn_types.stats in
    bump counts "user_interactions" (Stats.user_interactions r.stats);
    if not r.verified then fail "%s: mapping not verified" session;
    (match Hashtbl.find_opt expected_rows (rows_of (), s.label) with
    | Some e when String.equal e row -> ()
    | e -> fail "%s: row %S, expected %S" session row (Option.value ~default:"?" e));
    (* from the AST: the printed text of xmark Q7 does not parse back *)
    let ast = Xl_xqtree.Xqtree.to_ast r.learned in
    call "eval.mapping" (fun () -> run_mapping s ast);
    (match call "xquery.reparse" (fun () -> Xl_xquery.Parser.parse r.query_text) with
    | _ -> ()
    | exception _ -> bump counts "xquery.reparse_failures" 1);
    if keep then begin
      s.answers <- Array.of_list answers;
      s.row <- row;
      s.mapping <- Some ast;
      s.mid <- List.length answers / 2;
      (* the machine after step [mid]: [kept] is newest first *)
      if s.mid >= 1 then
        s.snap_bytes <- String.length (M.snapshot (List.nth !kept (List.length answers - s.mid)))
    end);
  sample "session.cpu" ((cpu_s () -. cpu0) *. 1000.);
  note ~id:sid ~parent ~session "session" t0 (now_ms ())

(* The untimed warm-up pass that records every scenario's answers, row
   and mid-dialogue snapshot size, in suite order; it checks the exact
   counts, the snapshot sizes included. *)
let reference_pass suite =
  let counts = Hashtbl.create 16 in
  let pid = fresh_id () in
  let t0 = now_ms () in
  List.iter
    (fun s ->
      run_session ~keep:true ~parent:pid ~tag:"ref" ~suspend:false counts s;
      probe ())
    suite;
  note ~id:pid ~parent:0 ~session:"ref" "pass" t0 (now_ms ());
  check_counts ~what:"reference pass" counts;
  let snap_total = List.fold_left (fun n s -> n + s.snap_bytes) 0 suite in
  check_count ~what:"reference pass" "machine.snapshot_bytes" snap_total;
  Hashtbl.replace counts "machine.snapshot_bytes" snap_total;
  counts

(* ---------- in-process workloads: fig16 and xmark-5x ---------------------- *)

(* Whole cycles of passes, from pass [first] (a multiple of the cycle)
   until [secs] have passed.  Each pass is a segment: a probe after
   every session, and one more set-up after the pass.  Returns the
   passes' counts. *)
let run_passes suite ~first ~secs =
  let t_end = now_ms () +. (secs *. 1000.) in
  let rec go p acc =
    if p > first && (p - first) mod suspend_share = 0 && now_ms () >= t_end then List.rev acc
    else begin
      let order, suspends = pass_plan suite p in
      let counts = Hashtbl.create 16 in
      let pid = fresh_id () in
      let t0 = now_ms () in
      Array.iteri
        (fun i s ->
          run_session ~parent:pid ~tag:(string_of_int p) ~suspend:suspends.(i) counts s;
          timed ~parent:pid ~session:"probe" "bench.probe" probe)
        order;
      note ~id:pid ~parent:0 ~session:(Printf.sprintf "pass#%d" p) "pass" t0 (now_ms ());
      ignore (setup ());
      close_segment ();
      check_counts ~what:(Printf.sprintf "pass %d" p) counts;
      go (p + 1) (counts :: acc)
    end
  in
  go first []

let read_proc path key =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ k; v ] when k = key ->
           Scanf.sscanf (String.trim v) "%d" (fun n -> Some (float_of_int n))
         | _ -> None)
  |> Option.value ~default:0.

let peak_rss_mb pid = read_proc (Printf.sprintf "/proc/%s/status" pid) "VmHWM" /. 1024.

let think_metrics () =
  let xs = values "think" in
  let n = List.length xs in
  let beyond = float_of_int n *. (1. -. tail_q ()) in
  if !scaling && not !trace_run then
    Printf.printf "think_tail_ms is p%g of %d samples (%.0f beyond it)\n" (tail_q () *. 100.) n beyond;
  if !scaling && beyond < 10. then fail "think tail: only %.0f samples beyond p%g" beyond (tail_q () *. 100.);
  [ ("think_mean_ms", mean xs); ("think_tail_ms", quantile xs (tail_q ())) ]

(* per-layer times of the measured passes, per pass *)
let layer_metrics ~passes =
  let per_pass name = sum (values name) /. float_of_int passes in
  let steps = List.map (fun k -> per_pass ("machine.step." ^ k)) step_kinds in
  let learner =
    sum steps +. per_pass "machine.start" +. per_pass "machine.finish" +. per_pass "eval.mapping"
  in
  [
    ("machine.start_ms", per_pass "machine.start");
    ("machine.finish_ms", per_pass "machine.finish");
    ("machine.finish_p50_ms", median (values "machine.finish"));
    ("machine.snapshot_ms", per_pass "machine.snapshot");
    ("machine.restore_ms", per_pass "machine.restore");
    ("oracle.answer_ms", per_pass "oracle.answer");
    ("eval.mapping_ms", per_pass "eval.mapping");
    ("share.steps", sum steps /. learner);
    ("share.finish_eval", (per_pass "machine.finish" +. per_pass "eval.mapping") /. learner);
  ]
  @ List.concat_map
      (fun k ->
        let name = "machine.step." ^ k in
        [ (name ^ "_ms", per_pass name); (name ^ "_p50_ms", median (values name)) ])
      step_kinds

let count_metrics counts =
  List.map (fun k -> (k, float_of_int (count counts k))) ("machine.snapshot_bytes" :: exact_names)

(* Measure whole cycles of passes for [secs]; [metrics] then computes
   the figures from the samples, scaled or raw. *)
let measure suite ~first ~secs =
  let gc0 = Gc.quick_stat () in
  let passes = run_passes suite ~first ~secs in
  let gc1 = Gc.quick_stat () in
  let n = List.length passes in
  let mappings = float_of_int (n * List.length suite) in
  let gc =
    [
      ( "gc.minor_mb_per_mapping",
        (gc1.Gc.minor_words -. gc0.Gc.minor_words) *. 8. /. 1048576. /. mappings );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. float_of_int n );
    ]
  in
  let metrics () =
    [
      ("setup_s", median (values "setup") /. 1000.);
      ("mappings_per_s", mappings /. (sum (values "session") /. 1000.));
      ("cpu_ms_per_mapping", sum (values "session.cpu") /. mappings);
    ]
    @ think_metrics ()
    @ [
        ("user_interactions", float_of_int (count (List.hd passes) "user_interactions"));
        ("mapping_exec_ms", sum (values "eval.mapping") /. float_of_int n);
        ("resume_mean_ms", mean (values "resume"));
        ("peak_rss_mb", peak_rss_mb "self");
        ("xml.build_ms", sum (values "xml.build") /. float_of_int (List.length (values "setup")));
        ("xml.prepare_ms", sum (values "xml.prepare") /. float_of_int (List.length (values "setup")));
      ]
  in
  (n, passes, gc, metrics)

let in_process () =
  let suite, stores = setup () in
  let nodes = List.fold_left (fun n st -> n + List.length (Store.nodes st)) 0 stores in
  let ref_counts = reference_pass suite in
  close_segment ();
  reset_samples ();
  if not !trace_run then
    let _, _, _, metrics = measure suite ~first:0 ~secs:!seconds in
    metrics
  else begin
    let _, _, _, untraced = measure suite ~first:0 ~secs:(!seconds /. 2.) in
    let untraced_mps = List.assoc "mappings_per_s" (untraced ()) in
    reset_samples ();
    tracing := true;
    let n, _, gc, traced = measure suite ~first:300 ~secs:(!seconds /. 2.) in
    let traced_mps = List.assoc "mappings_per_s" (traced ()) in
    fun () ->
      let t = traced () in
      [
        ("xml.build_ms", List.assoc "xml.build_ms" t);
        ("xml.prepare_ms", List.assoc "xml.prepare_ms" t);
        ("xml.nodes", float_of_int nodes);
        ("unattributed_ms", unattributed ~group:"pass" ~passes:n);
        ("trace.overhead", traced_mps /. untraced_mps);
      ]
      @ layer_metrics ~passes:n
      @ count_metrics ref_counts
      @ gc
  end

(* ---------- serve: a separate server process, one generator --------------- *)

(* one recorded answer in the server's wire shape *)
let answer_json store (a : M.answer) =
  let node n =
    let uri, dewey = M.node_ref store n in
    Json.Obj [ ("uri", Json.str uri); ("dewey", Json.list Json.int dewey) ]
  in
  let body =
    match a with
    | M.Bool b -> ("bool", Json.Bool b)
    | M.Bools bs -> ("bools", Json.list (fun b -> Json.Bool b) bs)
    | M.Eq Teacher.Equal -> ("eq", Json.str "equal")
    | M.Eq (Teacher.Counter { node = n; positive }) ->
      ("eq", Json.Obj [ ("node", node n); ("positive", Json.Bool positive) ])
    | M.Cb None -> ("cb", Json.Null)
    | M.Cb (Some { Teacher.cond; terminals; negative }) ->
      ( "cb",
        Json.Obj
          [
            ("cond", Xl_server.Server.cond_json cond);
            ("terminals", Json.int terminals);
            ("negative", Json.Bool negative);
          ] )
    | M.Order keys ->
      ( "order",
        Json.list
          (fun (p, asc) ->
            Json.Obj
              [ ("path", Json.str (Xl_xquery.Simple_path.to_string p)); ("asc", Json.Bool asc) ])
          keys )
  in
  Json.Obj [ body ]

let socket = "xl.sock"

let proc_cpu_s pid =
  let stat = In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  let i = String.rindex stat ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub stat i (String.length stat - i))) in
  (* utime and stime, fields 14 and 15, in clock ticks of 1/100 s *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

let spawn_server ~trace_file =
  (try Sys.remove socket with Sys_error _ -> ());
  let args =
    [ !cli; "serve"; "--socket"; socket; "--workers"; string_of_int server_workers; "--spool"; "spool" ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv -> not (String.starts_with ~prefix:"XLEARNER_" kv))
    |> Array.of_list
  in
  let log = Unix.openfile "server.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process_env !cli (Array.of_list args) env Unix.stdin log log in
  Unix.close log;
  let deadline = now_ms () +. 60_000. in
  let rec wait () =
    match
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () -> Client.request c ~meth:"GET" ~path:"/health" ())
    with
    | 200, j when Json.mem_int "workers" j = Some server_workers -> ()
    | _ | (exception _) ->
      if now_ms () > deadline || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        failwith "the server did not answer /health"
      end;
      Thread.delay 0.002;
      wait ()
  in
  wait ();
  pid

let stop_server pid =
  (try
     let c = Client.connect socket in
     ignore (Client.request c ~meth:"POST" ~path:"/shutdown" ());
     Client.close c
   with _ -> ());
  let deadline = now_ms () +. 20_000. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now_ms () < deadline ->
      Thread.delay 0.005;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* one session over the wire: create, every recorded answer (suspending
   and resuming [suspends] times in mid-dialogue), check, delete.  [due]
   is when the session was due to start. *)
let wire_session c ~bodies ~due ~tag ~suspends s =
  let session = Printf.sprintf "%s#%s" s.label tag in
  let sid = fresh_id () in
  let t_start = now_ms () in
  sample "gen.late" (t_start -. due);
  let req name ~meth ~path ?body () =
    if !tracing then
      Option.iter
        (fun b ->
          let text = timed ~parent:sid ~session "json.encode" (fun () -> Json.to_string b) in
          sample "json.bytes" (float_of_int (String.length text)))
        body;
    Atomic.incr attempted;
    let t0 = now_ms () in
    let status, j = Client.request c ~meth ~path ?body () in
    note ~parent:sid ~session ("wire." ^ name) t0 (now_ms ());
    if !tracing then begin
      let text = Json.to_string j in
      sample "json.bytes" (float_of_int (String.length text));
      ignore (timed ~parent:sid ~session "json.decode" (fun () -> Json.parse text))
    end;
    if status < 200 || status > 299 then begin
      fail "%s: %s %s answered %d: %s" session meth path status (Json.to_string j);
      raise Exit
    end;
    (t0, j)
  in
  Atomic.incr attempted;
  (match
     let _, j =
       req "create" ~meth:"POST" ~path:"/sessions"
         ~body:(Json.Obj [ ("scenario", Json.str s.label) ]) ()
     in
     let id = Option.get (Json.mem_str "id" j) in
     let n = Array.length bodies in
     let rec go i j =
       if i = n then j
       else begin
         for _ = 1 to if i = s.mid && s.mid >= 1 then suspends else 0 do
           let t0, _ = req "suspend" ~meth:"POST" ~path:("/sessions/" ^ id ^ "/suspend") () in
           let _, r =
             req "resume" ~meth:"POST" ~path:"/sessions/resume"
               ~body:(Json.Obj [ ("id", Json.str id) ]) ()
           in
           sample "resume" (now_ms () -. t0);
           if Json.mem_int "steps" r <> Some s.mid then begin
             fail "%s: resumed at step %s, suspended at %d" session
               (Option.fold ~none:"?" ~some:string_of_int (Json.mem_int "steps" r)) s.mid;
             raise Exit
           end
         done;
         let t0, j =
           req "answer" ~meth:"POST" ~path:("/sessions/" ^ id ^ "/answer") ~body:bodies.(i) ()
         in
         sample "think" (now_ms () -. t0);
         if Option.is_some (Json.member "done" j) <> (i = n - 1) then begin
           fail "%s: finished after %d of %d answers" session (i + 1) n;
           raise Exit
         end;
         go (i + 1) j
       end
     in
     let d = Option.get (Json.member "done" (go 0 j)) in
     ignore (req "delete" ~meth:"DELETE" ~path:("/sessions/" ^ id) ());
     d
   with
  | exception Exit -> ()
  | exception e -> fail "%s: %s" session (Printexc.to_string e)
  | d ->
    if Json.mem_bool "verified" d <> Some true then fail "%s: not verified" session;
    let row = Option.value ~default:"?" (Json.mem_str "row" d) in
    if not (String.equal row s.row) then fail "%s: wire row %S, in-process row %S" session row s.row);
  note ~id:sid ~parent:0 ~session "session" t_start (now_ms ())

(* The generator's connections, opened once.  [on_connections slot] runs
   [slot] once per connection and waits for all; the main thread drives
   the first, so the generator never has more threads than connections. *)
let conns = ref [||]

let on_connections slot =
  let ts =
    Array.to_list (Array.sub !conns 1 (Array.length !conns - 1))
    |> List.map (fun c -> Thread.create slot c)
  in
  slot !conns.(0);
  List.iter Thread.join ts

(* session [k] of the endless sequence of passes *)
let session_plan suite bodies k =
  let n = Array.length suite in
  let order, suspends = pass_plan (Array.to_list suite) (k / n) in
  let s = order.(k mod n) in
  (s, List.assq s bodies, suspends.(k mod n))

(* the quiet boundary between two segments of the server's load *)
let boundary_probes = 20

let boundary () =
  for _ = 1 to boundary_probes do
    probe ()
  done;
  close_segment ~carry:boundary_probes ()

let in_flight = Atomic.make 0

(* Run sessions [lo, hi) of the endless sequence of passes over the
   connections: each connection takes the next session as soon as its
   last one has ended and [wait k] has returned when session [k] was
   due. *)
let run_sessions suite bodies ~lo ~hi ~wait =
  let m = Mutex.create () and next = ref lo in
  on_connections (fun c ->
      let rec loop () =
        let k = Mutex.protect m (fun () -> incr next; !next - 1) in
        if k < hi then begin
          let due = wait k in
          let s, bodies, suspend = session_plan suite bodies k in
          Atomic.incr in_flight;
          wire_session c ~bodies ~due ~tag:(string_of_int k) ~suspends:(Bool.to_int suspend) s;
          Atomic.decr in_flight;
          loop ()
        end
      in
      loop ())

(* Closed loop: each session starts as soon as its connection is free,
   over whole cycles of passes from pass [first] (a multiple of the
   cycle) until [secs] have passed.  A cycle is a segment, ended by a
   quiet boundary; one barrier per cycle rather than per pass keeps the
   wait for the pass's last session small.  Returns the number of
   passes. *)
let closed_loop suite bodies ~first ~secs =
  let per_cycle = Array.length suite * suspend_share in
  let t_end = now_ms () +. (secs *. 1000.) in
  let rec go cycle =
    if cycle > 0 && now_ms () >= t_end then cycle * suspend_share
    else begin
      let lo = (first * Array.length suite) + (cycle * per_cycle) in
      let t0 = now_ms () in
      run_sessions suite bodies ~lo ~hi:(lo + per_cycle) ~wait:(fun _ -> now_ms ());
      sample "closed.cycle" (now_ms () -. t0);
      boundary ();
      go (cycle + 1)
    end
  in
  go 0

(* Open loop: sessions arrive at [open_rate] per second, evenly spaced,
   each timed from when it was due, over whole cycles of passes from pass
   [first], as many as fit in [secs] at that rate, at least one.  Each
   pass runs in chunks of [open_chunk] sessions, each chunk a segment
   ended by a quiet boundary; within a chunk, a connection waiting for
   its next session while no session is in flight probes the host's
   speed.  Returns the number of passes. *)
let open_chunk = 10

let open_loop suite bodies ~first ~secs =
  let n = Array.length suite in
  let cycle_s = float_of_int (n * suspend_share) /. open_rate in
  let passes = suspend_share * max 1 (int_of_float (secs /. cycle_s)) in
  for p = first to first + passes - 1 do
    for chunk = 0 to (n - 1) / open_chunk do
      let lo = (p * n) + (chunk * open_chunk) in
      let t0 = now_ms () +. 5. in
      let due k = t0 +. (float_of_int (k - lo) *. 1000. /. open_rate) in
      let wait k =
        let idle = ref 0 in
        while !idle < 4 && Atomic.get in_flight = 0 && due k -. now_ms () > 3. do
          probe ();
          incr idle
        done;
        let w = due k -. now_ms () in
        if w > 0. then Thread.delay (w /. 1000.);
        due k
      in
      run_sessions suite bodies ~lo ~hi:(min ((p + 1) * n) (lo + open_chunk)) ~wait;
      boundary ()
    done
  done;
  passes

(* the server's own answer-handling p50, from GET /metrics (traced
   server only) *)
let server_answer_ms () =
  let _, j = Client.request !conns.(0) ~meth:"GET" ~path:"/metrics" () in
  Option.value ~default:[] (Json.mem_list "histograms" j)
  |> List.find_map (fun h ->
         if Json.mem_str "name" h = Some "server_us_answer" then Json.mem_float "p50" h else None)
  |> Option.fold ~none:0. ~some:(fun us -> us /. 1000.)

(* every learned mapping run once, in the generator, [reps] times; each
   repetition is a segment *)
let mapping_exec suite ~reps =
  for _ = 1 to reps do
    Array.iter
      (fun s ->
        let t0 = now_ms () in
        run_mapping s (Option.get s.mapping);
        sample "mapping.rep" (now_ms () -. t0);
        probe ())
      suite;
    close_segment ()
  done

let serve () =
  Unix.chdir !workdir;
  let suite, _ = setup () in
  tracing := !trace_run;
  let ref_counts = reference_pass suite in
  close_segment ();
  let ref_layers = if !trace_run then layer_metrics ~passes:1 else [] in
  let bodies = List.map (fun s -> (s, Array.map (answer_json s.sc.Scenario.store) s.answers)) suite in
  reset_samples ();
  tracing := false;
  let suite_a = Array.of_list suite in
  let server = ref None in
  let start ~trace_file =
    let t0 = now_ms () in
    server := Some (spawn_server ~trace_file);
    sample "setup" (now_ms () -. t0)
  in
  let stop () =
    Array.iter Client.close !conns;
    conns := [||];
    Option.iter stop_server !server;
    server := None
  in
  let connect () = conns := Array.init connections (fun _ -> Client.connect socket) in
  (* (mappings per second, server CPU ms per mapping); the CPU time is
     scaled by the mean factor of the loop's segments *)
  let closed ~first ~secs =
    let pid = Option.get !server in
    let cpu0 = proc_cpu_s pid and seg0 = !segment in
    Mutex.protect lock (fun () -> Hashtbl.remove samples "closed.cycle");
    let mappings = float_of_int (closed_loop suite_a bodies ~first ~secs * Array.length suite_a) in
    let f = mean (List.init (!segment - seg0) (fun i -> Hashtbl.find factors (seg0 + i))) in
    let cpu_ms = (proc_cpu_s pid -. cpu0) *. 1000. /. mappings in
    fun () ->
      ( mappings /. (sum (values "closed.cycle") /. 1000.),
        cpu_ms *. if !scaling then f else 1. )
  in
  Fun.protect ~finally:stop (fun () ->
      boundary ();
      for k = 1 to server_spawns do
        if k > 1 then stop ();
        start ~trace_file:None;
        boundary ()
      done;
      connect ();
      if not !trace_run then begin
        let closed_metrics = closed ~first:0 ~secs:(!seconds /. 3.) in
        Mutex.protect lock (fun () -> Hashtbl.remove samples "think"; Hashtbl.remove samples "resume");
        ignore (open_loop suite_a bodies ~first:300 ~secs:(!seconds *. 2. /. 3.));
        let kept name = Mutex.protect lock (fun () -> Hashtbl.find samples name) in
        let think = kept "think" and resumes = kept "resume" in
        let scaled = List.map (fun (v, seg) -> v *. factor seg) in
        mapping_exec suite_a ~reps:mapping_reps;
        let rss = peak_rss_mb (string_of_int (Option.get !server)) in
        fun () ->
          let mps, cpu_ms = closed_metrics () in
          let think = scaled think in
          let n = List.length think in
          if !scaling then
            Printf.printf "think_tail_ms is p%g of %d samples (%.0f beyond it)\n" (tail_q () *. 100.) n
              (float_of_int n *. (1. -. tail_q ()));
          [
            ("setup_s", median (values "setup") /. 1000.);
            ("mappings_per_s", mps);
            ("cpu_ms_per_mapping", cpu_ms);
            ("think_mean_ms", mean think);
            ("think_tail_ms", quantile think (tail_q ()));
            ("user_interactions", float_of_int (count ref_counts "user_interactions"));
            ("mapping_exec_ms", sum (values "mapping.rep") /. float_of_int mapping_reps);
            ("resume_mean_ms", mean (scaled resumes));
            ("peak_rss_mb", rss);
          ]
      end
      else begin
        let untraced_mps, _ = closed ~first:0 ~secs:(!seconds /. 4.) () in
        stop ();
        start ~trace_file:(Some "server-trace.jsonl");
        connect ();
        boundary ();
        tracing := true;
        let traced_mps, _ = closed ~first:600 ~secs:(!seconds /. 4.) () in
        reset_samples ();
        let passes = open_loop suite_a bodies ~first:300 ~secs:(!seconds /. 4.) in
        let server_answer = server_answer_ms () in
        fun () ->
          let p50 name = median (values name) in
          List.remove_assoc "unattributed_ms" ref_layers
          @ count_metrics ref_counts
          @ [
              ("wire.rtt_ms.create", p50 "wire.create");
              ("wire.rtt_ms.answer", p50 "wire.answer");
              ("wire.rtt_ms.suspend", p50 "wire.suspend");
              ("wire.rtt_ms.resume", p50 "wire.resume");
              ("json.encode_us", p50 "json.encode" *. 1000.);
              ("json.decode_us", p50 "json.decode" *. 1000.);
              ("json.bytes", median (raw_values "json.bytes"));
              ("server.answer_ms", server_answer);
              ("gen.late_ms", quantile (values "gen.late") 0.95);
              ("unattributed_ms", unattributed ~group:"session" ~passes);
              ("trace.overhead", traced_mps /. untraced_mps);
            ]
      end)

(* ---------- output -------------------------------------------------------- *)

let end_to_end =
  [
    ("setup_s", "s"); ("mappings_per_s", "1/s"); ("cpu_ms_per_mapping", "ms");
    ("think_mean_ms", "ms"); ("think_tail_ms", "ms"); ("user_interactions", "count");
    ("mapping_exec_ms", "ms"); ("resume_mean_ms", "ms"); ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("xml.build_ms", "ms"); ("xml.prepare_ms", "ms"); ("xml.nodes", "count");
    ("machine.start_ms", "ms");
  ]
  @ List.concat_map
      (fun k -> [ ("machine.step." ^ k ^ "_ms", "ms"); ("machine.step." ^ k ^ "_p50_ms", "ms") ])
      step_kinds
  @ [
      ("machine.finish_ms", "ms"); ("machine.finish_p50_ms", "ms");
      ("machine.snapshot_ms", "ms"); ("machine.restore_ms", "ms");
      ("machine.snapshot_bytes", "bytes"); ("oracle.answer_ms", "ms");
      ("eval.mapping_ms", "ms"); ("xquery.reparse_failures", "count");
    ]
  @ List.map
      (fun k -> (k, "count"))
      (List.filter (fun k -> k <> "user_interactions" && k <> "xquery.reparse_failures") exact_names)
  @ [
      ("gc.minor_mb_per_mapping", "MB"); ("gc.major_collections", "count");
      ("wire.rtt_ms.create", "ms"); ("wire.rtt_ms.answer", "ms");
      ("wire.rtt_ms.suspend", "ms"); ("wire.rtt_ms.resume", "ms");
      ("json.encode_us", "us"); ("json.decode_us", "us"); ("json.bytes", "bytes");
      ("server.answer_ms", "ms"); ("gen.late_ms", "ms");
      ("share.steps", "ratio"); ("share.finish_eval", "ratio");
      ("unattributed_ms", "ms"); ("trace.overhead", "ratio");
      ("host.speed", "ratio");
    ]

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "fig16 | xmark-5x | serve");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Int (fun t -> trace_run := t = 1), "0 | 1");
      ("--expected", Arg.Set_string expected_file, "FILE");
      ("--workdir", Arg.Set_string workdir, "DIR");
      ("--cli", Arg.Set_string cli, "EXE");
    ]
    (fun a -> raise (Arg.Bad a))
    "xbench --workload W --seed N --seconds S --trace 0|1 --expected F --workdir D --cli E";
  load_expected !expected_file;
  let metrics =
    match !workload with
    | "fig16" | "xmark-5x" -> in_process ()
    | "serve" -> serve ()
    | w -> failwith ("unknown workload " ^ w)
  in
  if !trace_run then write_spans (Filename.concat !workdir "spans.jsonl");
  scaling := false;
  let raw = metrics () in
  scaling := true;
  let values = ("host.speed", host_speed ()) :: metrics () in
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) (List.rev !problems);
  let fs = List.of_seq (Hashtbl.to_seq_values factors) in
  Printf.printf "host speed %.4f over %d segments (p10 %.4f, p90 %.4f); value, then raw value:\n"
    (host_speed ()) (List.length fs) (quantile fs 0.1) (quantile fs 0.9);
  let wanted = if !trace_run then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (List.assoc_opt name values) in
        let r = Option.value ~default:v (List.assoc_opt name raw) in
        Printf.printf "%-28s %14.4f %14.4f %s\n" name v r unit;
        (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.str unit) ]))
      wanted
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (Atomic.get failed = 0));
            ("attempted", Json.int (Atomic.get attempted));
            ("failed", Json.int (Atomic.get failed));
            ("metrics", Json.Obj metrics);
          ]))
