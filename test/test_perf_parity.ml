(* Parity tests for the evaluator: the engine (frozen scan, extent
   cache, hash joins and semi-joins) must be observationally equivalent
   to the reference evaluator {!Xl_fuzz.Reference} (nested loops,
   structural path recursion over the pointer tree) — same node
   sequences (ids and order) on every benchmark query — and the learner
   must reproduce the committed Figure-16 interaction rows.

   The sweeps fan out on a {!Xl_exec.Pool}: each work item (a query, or a
   whole scenario run) is checked inside a worker domain and reduced to a
   comparable string; the Alcotest assertions run afterwards on the main
   domain.  Stores shared by several work items are [Store.prepare]d
   before the fan-out, per the pool's domain-confinement contract. *)

open Xl_xquery
module Xml = Xl_xml

let pool = Xl_exec.Pool.create ()

(* A result fingerprint that is stable across evaluators:
   store-resident nodes print as their id (identity + order check),
   constructed nodes — whose ids are fresh per evaluation — print as
   their serialized form. *)
let fingerprint (store : Xml.Store.t) (v : Value.t) : string =
  String.concat "|"
    (List.map
       (fun (it : Value.item) ->
         match it with
         | Value.Node n -> (
           match Xml.Store.find_node_by_id store n.Xml.Node.id with
           | Some m when Xml.Node.equal m n -> Printf.sprintf "#%d" n.Xml.Node.id
           | _ -> "C:" ^ Xml.Serialize.node_to_string n)
         | Value.Atom a -> "A:" ^ Value.atom_to_string a)
       v)

(* Evaluate every query on the engine and on the reference —
   concurrently, one worker per query, each with its own context
   (evaluation contexts carry mutable caches and must stay
   domain-confined) — then compare fingerprints (or exception messages,
   when both raise). *)
let check_query_parity ~suite (store : Xml.Store.t)
    (queries : (string * string) list) =
  Xml.Store.prepare store;
  let outcomes =
    Xl_exec.Pool.map pool
      (fun (qid, text) ->
        let label = Printf.sprintf "%s/%s" suite qid in
        let ast = Parser.parse text in
        let run eval =
          match eval ast with
          | v -> Ok (fingerprint store v)
          | exception e -> Error (Printexc.to_string e)
        in
        ( label,
          run (Eval.run (Eval.make_ctx store)),
          run (Xl_fuzz.Reference.run store) ))
      queries
  in
  List.iter
    (fun (label, engine, reference) ->
      match (engine, reference) with
      | Ok a, Ok b -> Alcotest.(check string) label b a
      | Error a, Error b -> Alcotest.(check string) (label ^ " (raises)") b a
      | Ok _, Error e ->
        Alcotest.failf "%s: the reference raised %s but the engine succeeded"
          label e
      | Error e, Ok _ ->
        Alcotest.failf "%s: the engine raised %s but the reference succeeded"
          label e)
    outcomes

let test_xmark_parity () =
  List.iter
    (fun seed ->
      let doc =
        Xl_workload.Xmark_gen.generate ~seed Xl_workload.Xmark_gen.tiny_scale
      in
      let store = Xml.Store.of_docs [ doc ] in
      check_query_parity
        ~suite:(Printf.sprintf "xmark-seed%d" seed)
        store
        (List.map
           (fun (q : Xl_workload.Xmark_queries.query) -> (q.id, q.text))
           Xl_workload.Xmark_queries.all))
    [ 1; 2; 3 ]

let test_xmp_parity () =
  let store = Xl_workload.Xmp_data.store () in
  check_query_parity ~suite:"xmp" store
    (List.map
       (fun (q : Xl_workload.Xmp_queries.query) -> (q.id, q.text))
       Xl_workload.Xmp_queries.all)

(* The randomized fuzz corpus sweeps far more DTD/document/query shapes
   through the hash joins than the paper suites do; a fixed 25-seed
   slice keeps the sweep deterministic.  Each worker generates its case,
   evaluates the target query on the engine and on the reference on its
   own store and reduces to a serialized form (node-identity free, so
   the comparison is meaningful across separately built stores). *)
let test_fuzz_corpus_parity () =
  let outcomes =
    Xl_exec.Pool.map pool
      (fun index ->
        let case = Xl_fuzz.Case.generate ~seed:20040301 ~index in
        let store = Xl_fuzz.Case.store_of ~prepare:true case in
        let target = case.Xl_fuzz.Case.target in
        ( index,
          Xl_fuzz.Props.eval_to_string target store,
          Xl_fuzz.Props.reference_to_string target store ))
      (List.init 25 Fun.id)
  in
  List.iter
    (fun (index, engine, reference) ->
      Alcotest.(check string)
        (Printf.sprintf "fuzz case %d engine vs reference" index)
        reference engine)
    outcomes

(* Three-way corpus sweep over the engine's two selection routes, which
   the input picks: from the store's document node a path runs the
   frozen scan; from a constructed copy of the document it runs the
   pointer walk.  Every child-step tag path of the case's document, and
   its [//last] form, must select the same serialized nodes on both
   routes and in the reference. *)
let test_fuzz_corpus_engines () =
  let show nodes = String.concat "\n" (List.map Xml.Serialize.node_to_string nodes) in
  let outcomes =
    Xl_exec.Pool.map pool
      (fun index ->
        let case = Xl_fuzz.Case.generate ~seed:20040301 ~index in
        let store = Xl_fuzz.Case.store_of ~prepare:true case in
        let ctx = Eval.make_ctx store in
        let doc = (Xml.Store.default store).Xml.Doc.doc_node in
        let copy =
          match Eval.run ctx (Ast.Elem ("copy", [ Ast.Doc_root None ])) with
          | [ Value.Node n ] -> n
          | _ -> Alcotest.fail "constructor did not return one node"
        in
        let paths =
          List.sort_uniq compare
            (List.concat_map
               (fun n ->
                 let p = Xl_core.Data_graph.generalized_path n in
                 let rec last = function Path_expr.Seq (_, b) -> last b | p -> p in
                 match last p with
                 | Path_expr.Step (_, test) -> [ p; Path_expr.desc test ]
                 | _ -> [ p ])
               (Xml.Store.nodes store))
        in
        ( index,
          List.map
            (fun p ->
              ( Path_expr.to_string p,
                show (Eval.eval_path ctx p doc),
                show (Eval.eval_path ctx p copy),
                show (Xl_fuzz.Reference.select p doc) ))
            paths ))
      (List.init 25 Fun.id)
  in
  List.iter
    (fun (index, rows) ->
      List.iter
        (fun (p, frozen, walk, reference) ->
          Alcotest.(check string)
            (Printf.sprintf "fuzz case %d %s: frozen vs reference" index p)
            reference frozen;
          Alcotest.(check string)
            (Printf.sprintf "fuzz case %d %s: pointer walk vs reference" index p)
            reference walk)
        rows)
    outcomes

(* Direct selection parity on the Figure-16 stores: for a sample of
   concrete nodes, select by the node's generalized tag-path expression
   from the document root — and by the relative remainder from an
   ancestor base — with the engine (a frozen scan, then the same
   selection answered from the extent cache) and with the reference,
   comparing node-id sequences (identity and order). *)
let test_select_engine_parity () =
  let stores =
    [
      ( "xmark",
        (List.hd (Xl_workload.Xmark_scenarios.all ()) : string * Xl_core.Scenario.t)
        |> fun (_, sc) -> sc.Xl_core.Scenario.store );
      ("xmp", Xl_workload.Xmp_data.store ());
    ]
  in
  List.iter (fun (_, store) -> Xml.Store.prepare store) stores;
  let jobs =
    List.concat_map
      (fun (suite, store) ->
        (* every 7th node: a deterministic spread over document order *)
        let sample =
          List.filteri (fun i _ -> i mod 7 = 0) (Xml.Store.nodes store)
        in
        [ (suite, store, sample) ])
      stores
  in
  let outcomes =
    Xl_exec.Pool.map pool
      (fun (suite, store, sample) ->
        let ctx = Eval.make_ctx store in
        let ids nodes =
          String.concat ","
            (List.map (fun (n : Xml.Node.t) -> string_of_int n.Xml.Node.id) nodes)
        in
        let mismatches = ref [] in
        List.iter
          (fun (n : Xml.Node.t) ->
            let root = Xml.Node.root n in
            let doc_base =
              match
                List.find_opt
                  (fun (d : Xml.Doc.t) ->
                    Xml.Node.equal d.Xml.Doc.doc_node root
                    || Xml.Node.equal (Xml.Doc.root d) root)
                  (Xml.Store.docs store)
              with
              | Some d -> d.Xml.Doc.doc_node
              | None -> root
            in
            let checks =
              (* doc-rooted: the node's own generalized path *)
              [ (Xl_core.Data_graph.generalized_path n, doc_base) ]
              @
              (* relative: the remainder below the topmost element *)
              match Xml.Node.tag_path n with
              | _root :: (_ :: _ as rest) -> (
                match
                  Xl_core.Extent.ancestor_at n (List.length rest)
                with
                | Some base ->
                  [ ( Xl_xquery.Path_expr.seq
                        (List.map
                           (fun sym ->
                             if String.length sym > 0 && sym.[0] = '@' then
                               Xl_xquery.Path_expr.child
                                 (Xl_xquery.Path_expr.Attr
                                    (String.sub sym 1 (String.length sym - 1)))
                             else if String.equal sym "#text" then
                               Xl_xquery.Path_expr.child
                                 Xl_xquery.Path_expr.Text_node
                             else
                               Xl_xquery.Path_expr.child
                                 (Xl_xquery.Path_expr.Tag sym))
                           rest),
                      base ) ]
                | None -> [])
              | _ -> []
            in
            List.iter
              (fun (p, base) ->
                let f = ids (Eval.eval_path ctx p base) in
                let c = ids (Eval.eval_path ctx p base) in
                let r = ids (Xl_fuzz.Reference.select p base) in
                if not (String.equal f r && String.equal c r) then
                  mismatches :=
                    Printf.sprintf "%s node %d: frozen=%s cached=%s reference=%s"
                      suite n.Xml.Node.id f c r
                    :: !mismatches)
              checks)
          sample;
        (suite, List.length sample, List.rev !mismatches))
      jobs
  in
  List.iter
    (fun (suite, sampled, mismatches) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s: %d sampled bases agree with the reference" suite
           sampled)
        [] mismatches)
    outcomes

(* Streaming-ingestion parity over the fuzz corpus: for each case's
   training document, the one-pass builder (fragment walk and SAX text
   parse) and a binary snapshot round-trip must all reproduce the
   two-pass freeze-of-tree snapshot node for node. *)
let test_streaming_fuzz_parity () =
  let outcomes =
    Xl_exec.Pool.map pool
      (fun index ->
        let case = Xl_fuzz.Case.generate ~seed:20040301 ~index in
        let frag = case.Xl_fuzz.Case.training in
        let tree_fz = Xml.Frozen.freeze (Xml.Doc.of_frag ~uri:"t.xml" frag) in
        let _, frag_fz = Xml.Frozen_builder.of_frag ~uri:"t.xml" frag in
        let text = Xml.Serialize.frag_to_string frag in
        let _, parse_fz = Xml.Frozen_builder.parse ~uri:"t.xml" text in
        let snap_fz = Xml.Snapshot.of_string (Xml.Snapshot.to_string tree_fz) in
        let eq = Xml.Frozen.structural_equal tree_fz in
        (index, eq frag_fz, eq parse_fz, eq snap_fz))
      (List.init 25 Fun.id)
  in
  List.iter
    (fun (index, frag_ok, parse_ok, snap_ok) ->
      Alcotest.(check bool)
        (Printf.sprintf "fuzz case %d streamed fragment walk" index)
        true frag_ok;
      Alcotest.(check bool)
        (Printf.sprintf "fuzz case %d streamed text parse" index)
        true parse_ok;
      Alcotest.(check bool)
        (Printf.sprintf "fuzz case %d snapshot roundtrip" index)
        true snap_ok)
    outcomes

(* The same parity on the Figure-16 documents: the XMark generator's
   direct-to-builder path against generate-then-freeze (same seed, same
   scale), and each XMP document re-ingested through the SAX parser. *)
let test_streaming_fig16_parity () =
  List.iter
    (fun seed ->
      let tree_fz =
        Xml.Frozen.freeze
          (Xl_workload.Xmark_gen.generate ~seed Xl_workload.Xmark_gen.tiny_scale)
      in
      let _, stream_fz =
        Xl_workload.Xmark_gen.generate_frozen ~seed
          Xl_workload.Xmark_gen.tiny_scale
      in
      Alcotest.(check bool)
        (Printf.sprintf "xmark seed %d streamed vs tree" seed)
        true
        (Xml.Frozen.structural_equal tree_fz stream_fz))
    [ 1; 2; 3 ];
  List.iter
    (fun (d : Xml.Doc.t) ->
      let text = Xml.Serialize.node_to_string (Xml.Doc.root d) in
      let uri = Xml.Doc.uri d in
      let tree_fz = Xml.Frozen.freeze (Xml.Xml_parser.parse_doc ~uri text) in
      let _, stream_fz = Xml.Frozen_builder.parse ~uri text in
      Alcotest.(check bool)
        (Printf.sprintf "xmp %s streamed vs tree" uri)
        true
        (Xml.Frozen.structural_equal tree_fz stream_fz))
    (Xml.Store.docs (Xl_workload.Xmp_data.store ()))

(* One learner run reduced to its interaction counts — what the teacher
   observes. *)
let stats_row (name : string) (r : Xl_core.Learn.result) : string =
  let s = r.Xl_core.Learn.stats in
  Printf.sprintf "%s dd=%d(%d) mq=%d eq=%d ce=%d cb=%d(%d) ob=%d r=(%d,%d,%d) auto=%d restarts=%d verified=%b"
    name s.Xl_core.Stats.dd s.Xl_core.Stats.dd_terminals s.Xl_core.Stats.mq
    s.Xl_core.Stats.eq s.Xl_core.Stats.ce s.Xl_core.Stats.cb
    s.Xl_core.Stats.cb_terminals s.Xl_core.Stats.ob s.Xl_core.Stats.reduced_r1
    s.Xl_core.Stats.reduced_r2 s.Xl_core.Stats.reduced_both
    s.Xl_core.Stats.auto_known s.Xl_core.Stats.restarts
    r.Xl_core.Learn.verified

let fig16_scenarios () =
  let scenarios =
    List.map (fun (n, sc) -> ("xmark", n, sc)) (Xl_workload.Xmark_scenarios.all ())
    @ List.map (fun (n, sc) -> ("xmp", n, sc)) (Xl_workload.Xmp_scenarios.all ())
  in
  (* the scenarios of one suite share a store; freeze its lazy indexes
     while still single-domain *)
  List.iter
    (fun (_, _, sc) -> Xml.Store.prepare sc.Xl_core.Scenario.store)
    scenarios;
  scenarios

(* A streamed XMark store (documents ingested through the builder and
   registered with their pre-built snapshots) must be indistinguishable
   from the tree-built store: same interaction counts on every Figure-16
   scenario. *)
let test_streamed_store_learner_parity () =
  let rows scenarios =
    List.iter
      (fun (_, sc) -> Xml.Store.prepare sc.Xl_core.Scenario.store)
      scenarios;
    Xl_exec.Pool.map pool
      (fun (name, sc) ->
        match Xl_core.Learn.run sc with
        | r -> stats_row name r
        | exception e -> name ^ " FAILED " ^ Printexc.to_string e)
      scenarios
  in
  let tree = rows (Xl_workload.Xmark_scenarios.all ()) in
  let streamed = rows (Xl_workload.Xmark_scenarios.all ~streamed:true ()) in
  Alcotest.(check int) "same number of scenarios" (List.length tree)
    (List.length streamed);
  List.iter2
    (fun t s -> Alcotest.(check string) "interaction counts" t s)
    tree streamed

(* Pool invariance (DESIGN.md §5h): the intra-scenario pool changes who
   computes answers, never the answers — every Figure-16 stats row must
   be byte-identical with the fan-outs on one domain and on four.
   Scenarios run on the main domain here so the config's pool is the
   only pool in play. *)
let sweep_configs () =
  let pool4 = Xl_exec.Pool.create ~domains:4 () in
  [
    ("pool=seq", Xl_core.Learn.default_config);
    ("pool=4", { Xl_core.Learn.default_config with pool = Some pool4 });
  ]

let test_learner_pool_parity () =
  let scenarios = fig16_scenarios () in
  let rows_under config =
    List.map
      (fun (suite, name, sc) ->
        let label = suite ^ "-" ^ name in
        match Xl_core.Learn.run ~config sc with
        | r -> stats_row label r
        | exception e -> label ^ " FAILED " ^ Printexc.to_string e)
      scenarios
  in
  match sweep_configs () with
  | [] -> assert false
  | (ref_label, ref_config) :: rest ->
    let reference = rows_under ref_config in
    List.iter
      (fun (label, config) ->
        List.iter2
          (fun expected got ->
            Alcotest.(check string)
              (Printf.sprintf "%s vs %s" label ref_label)
              expected got)
          reference (rows_under config))
      rest

(* The same invariance over the randomized corpus: 25 deterministic fuzz
   cases sweep many more DTD/alphabet/counterexample shapes through the
   pooled batch resolver (compiled-DFA R1, deferred genuine questions,
   Any_last fallback) than the two paper suites do. *)
let test_fuzz_pool_parity () =
  let configs = sweep_configs () in
  List.iter
    (fun index ->
      let case () = Xl_fuzz.Case.generate ~seed:20040301 ~index in
      match configs with
      | [] -> assert false
      | (ref_label, ref_config) :: rest ->
        let row config =
          let sc = Xl_fuzz.Case.scenario (case ()) in
          match Xl_core.Learn.run ~config sc with
          | r -> stats_row (Printf.sprintf "case %d" index) r
          | exception e ->
            Printf.sprintf "case %d FAILED %s" index (Printexc.to_string e)
        in
        let reference = row ref_config in
        List.iter
          (fun (label, config) ->
            Alcotest.(check string)
              (Printf.sprintf "fuzz case %d: %s vs %s" index label ref_label)
              reference (row config))
          rest)
    (List.init 25 Fun.id)

(* The committed perf baseline (BENCH_perf.json, a declared test dep)
   pins the Figure-16 interaction counts — the paper's results: re-
   learning each of the 30 scenarios must reproduce its stats row byte
   for byte, whatever the engine does under the hood. *)
let baseline_stats ~suite ~name : string =
  let text =
    (* dune runtest runs in test/, dune exec in the project root *)
    let path =
      List.find_opt Sys.file_exists [ "../BENCH_perf.json"; "BENCH_perf.json" ]
    in
    match path with
    | None -> Alcotest.fail "BENCH_perf.json not found (declared test dep)"
    | Some path ->
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
  in
  let find_from start key =
    let n = String.length text and k = String.length key in
    let rec go i =
      if i + k > n then
        Alcotest.failf "BENCH_perf.json: %S not found (after %d)" key start
      else if String.equal (String.sub text i k) key then i + k
      else go (i + 1)
    in
    go start
  in
  let suite_at = find_from 0 (Printf.sprintf "%S: { \"wall_s\"" suite) in
  let row_at =
    find_from suite_at (Printf.sprintf "{\"name\":%S," name)
  in
  let stats_at = find_from row_at "\"stats\":" in
  let rec close i =
    match text.[i] with '}' -> i | _ -> close (i + 1)
  in
  String.sub text stats_at (close stats_at - stats_at + 1)

let test_pinned_fig16_counts () =
  let scenarios = fig16_scenarios () in
  Alcotest.(check int) "thirty Figure-16 scenarios" 30 (List.length scenarios);
  let rows =
    Xl_exec.Pool.map pool
      (fun (suite, name, sc) ->
        (suite, name, Xl_core.Stats.to_json (Xl_core.Learn.run sc).Xl_core.Learn.stats))
      scenarios
  in
  List.iter
    (fun (suite, name, got) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %s stats row matches committed baseline" suite name)
        (baseline_stats ~suite ~name) got)
    rows

(* ---------- quantified joins ---------------------------------------------- *)

(* Relay conditions compile to [some $t in /doc/path satisfies ... = ...],
   which the engine runs as a hash semi-join.  Neither the
   benchmark query texts nor the generated fuzz targets contain a
   quantifier, so the sweeps above never reach it: these suites do. *)

(* Whether a context planned a semi-join for any [some] it evaluated. *)
let planned_some (ctx : Eval.ctx) : bool =
  Hashtbl.fold
    (fun key plan acc ->
      acc || (match (key, plan) with Ast.Some_ _, Some _ -> true | _ -> false))
    ctx.Eval.plan_cache false

(* Evaluate [ast] on [store] with the engine and with the reference; the
   fingerprints (or exception messages), and whether the engine planned
   a semi-join. *)
let run_both store ast =
  let run eval =
    match eval ast with
    | v -> "ok " ^ fingerprint store v
    | exception e -> "raises " ^ Printexc.to_string e
  in
  let ctx = Eval.make_ctx store in
  let engine = run (Eval.run ctx) in
  (engine, run (Xl_fuzz.Reference.run store), planned_some ctx)

(* Every Figure-16 target, and the query learned for it, on its 1x store;
   the XMark ones, and the XMark query texts, also on a 2x streamed
   store. *)
let test_fig16_quantified_parity () =
  let scenarios = fig16_scenarios () in
  let learned =
    Xl_exec.Pool.map pool
      (fun (suite, name, sc) ->
        let r = Xl_core.Learn.run sc in
        (suite, name, sc, Xl_xqtree.Xqtree.to_ast r.Xl_core.Learn.learned))
      scenarios
  in
  let _, fz2 =
    Xl_workload.Xmark_gen.generate_frozen (Xl_workload.Xmark_gen.scale_factor 2)
  in
  let store2 = Xml.Store.of_frozen [ fz2 ] in
  Xml.Store.prepare store2;
  let xmark_store =
    match scenarios with
    | ("xmark", _, (sc : Xl_core.Scenario.t)) :: _ -> sc.Xl_core.Scenario.store
    | _ -> Alcotest.fail "the Figure-16 scenarios start with the XMark suite"
  in
  let jobs =
    List.concat_map
      (fun (suite, name, (sc : Xl_core.Scenario.t), learned_ast) ->
        let target_ast = Xl_xqtree.Xqtree.to_ast sc.Xl_core.Scenario.target in
        let stores =
          ("1x", sc.Xl_core.Scenario.store)
          :: (if suite = "xmark" then [ ("2x", store2) ] else [])
        in
        List.concat_map
          (fun (scale, store) ->
            [
              (Printf.sprintf "%s %s target %s" suite name scale, store, target_ast);
              (Printf.sprintf "%s %s learned %s" suite name scale, store, learned_ast);
            ])
          stores)
      learned
    @ (* the XMark query texts on the same two stores *)
    List.concat_map
      (fun (q : Xl_workload.Xmark_queries.query) ->
        let ast = Parser.parse q.Xl_workload.Xmark_queries.text in
        List.map
          (fun (scale, store) ->
            (Printf.sprintf "xmark %s text %s" q.Xl_workload.Xmark_queries.id scale, store, ast))
          [ ("1x", xmark_store); ("2x", store2) ])
      Xl_workload.Xmark_queries.all
  in
  let outcomes =
    Xl_exec.Pool.map pool
      (fun (label, store, ast) ->
        let engine, reference, planned = run_both store ast in
        (label, engine, reference, planned))
      jobs
  in
  List.iter
    (fun (label, engine, reference, _) ->
      Alcotest.(check string) label reference engine)
    outcomes;
  (* the relay of XMark Q9 is the shape the semi-join exists for *)
  List.iter
    (fun (label, _, _, planned) ->
      if String.starts_with ~prefix:"xmark Q9 target" label then
        Alcotest.(check bool) (label ^ " planned a semi-join") true planned)
    outcomes

let quant_doc =
  {|<r>
  <a id="a1" k="01" n="1"><v>x</v><v>y</v></a>
  <a id="a2" k="1"><v>z</v></a>
  <a id="a3" k="NaN" n="3"><v>y</v></a>
  <a id="a4" k="two" n="4"/>
  <b ref="1" w="y"/>
  <b ref="NaN" w="q"/>
  <b ref="two" w="z"/>
  <b ref="7"/>
  <b w="x"/>
</r>|}

(* (label, query, whether the engine must plan a semi-join) *)
let quant_cases =
  let per_b body = "for $b in /r/b return " ^ body in
  [
    ( "numeric/string promotion",
      per_b "some $a in /r/a satisfies data($a/@k) = data($b/@ref)",
      true );
    ( "promotion against literals",
      "(some $a in /r/a satisfies data($a/@k) = 1, \
       some $a in /r/a satisfies data($a/@k) = \"1.0\", \
       some $a in /r/a satisfies data($a/@k) = true(), \
       some $a in /r/a satisfies data($a/@n) = \"01\")",
      true );
    ( "NaN keys meet nothing",
      "(some $a in /r/a satisfies data($a/@k) = \"NaN\", \
       some $a in /r/a satisfies data($a/@k) = data(/r/b[2]/@ref))",
      true );
    ( "keys with several values",
      per_b "some $a in /r/a satisfies data($a/v) = data($b/@w)",
      true );
    ( "several probe values",
      "some $a in /r/a satisfies data($a/@id) = data(/r/b/@ref)",
      true );
    ( "empty probe and empty build",
      per_b
        "(some $a in /r/a satisfies data($a/@k) = data($b/@missing), \
         some $a in /r/none satisfies data($a/@k) = data($b/@ref))",
      true );
    ( "residual rejects every candidate",
      per_b
        "some $a in /r/a satisfies data($a/@k) = data($b/@ref) and \
         data($a/@id) = \"zzz\"",
      true );
    ( "first witness in source order",
      (* a2 also matches b1 but has no @n: evaluating it raises, so the
         candidates must be tried in order and stop at a1 *)
      per_b "some $a in /r/a satisfies data($a/@k) = data($b/@ref) and $a/@n + 0 = 1",
      true );
    ( "join on the second of two bindings",
      per_b
        "some $x in /r/b, $a in /r/a satisfies data($a/@k) = data($x/@ref) \
         and $x is $b",
      true );
    ( "join on the first of two bindings",
      per_b
        "some $a in /r/a, $v in $a/v satisfies data($a/@k) = data($b/@ref) \
         and data($v) = \"x\"",
      true );
    ( "impure conjunct before the join (not planned)",
      per_b "some $a in /r/a satisfies $a/@n + 0 > 0 and data($a/@k) = data($b/@ref)",
      false );
    ( "correlated source (not planned)",
      per_b "some $v in $b/@w satisfies data($v) = \"y\"",
      false );
    ( "is (not planned)", per_b "some $a in /r/b satisfies $a is $b", false );
    ( "every (not planned)",
      per_b "every $a in /r/a satisfies data($a/@k) = data($b/@ref)",
      false );
    ( "non-equality comparison (not planned)",
      per_b "some $a in /r/a satisfies data($a/@k) > data($b/@ref)",
      false );
  ]

let test_quantified_join_cases () =
  let store =
    Xml.Store.of_docs [ Xml.Xml_parser.parse_doc ~uri:"q.xml" quant_doc ]
  in
  List.iter
    (fun (label, text, expect_planned) ->
      let engine, reference, planned = run_both store (Parser.parse text) in
      Alcotest.(check string) label reference engine;
      Alcotest.(check bool) (label ^ ": planned") expect_planned planned)
    quant_cases

(* The alphabet a context interns from the store's snapshots must be the
   one a preorder walk of the documents interns, id for id: learner
   statistics depend on symbol ids. *)
let walk_alphabet (store : Xml.Store.t) : string list =
  let a = Xl_automata.Alphabet.create () in
  List.iter
    (fun d ->
      List.iter
        (fun n -> ignore (Xl_automata.Alphabet.intern a (Xml.Node.symbol n)))
        (Xml.Doc.all_nodes d))
    (Xml.Store.docs store);
  ignore (Xl_automata.Alphabet.intern a "#text");
  Xl_automata.Alphabet.symbols a

let test_alphabet_matches_walk () =
  let xmark_tree =
    Xml.Store.of_docs
      [ Xl_workload.Xmark_gen.generate Xl_workload.Xmark_gen.default_scale ]
  in
  let _, fz2 =
    Xl_workload.Xmark_gen.generate_frozen (Xl_workload.Xmark_gen.scale_factor 2)
  in
  let stores =
    [
      ("xmp", Xl_workload.Xmp_data.store ());
      ("xmark 1x tree", xmark_tree);
      ("xmark 2x streamed", Xml.Store.of_frozen [ fz2 ]);
    ]
    @ List.init 25 (fun index ->
          let case = Xl_fuzz.Case.generate ~seed:20040301 ~index in
          (Printf.sprintf "fuzz case %d" index, Xl_fuzz.Case.store_of case))
  in
  List.iter
    (fun (label, store) ->
      Alcotest.(check (list string))
        (label ^ " alphabet")
        (walk_alphabet store)
        (Xl_automata.Alphabet.symbols (Eval.make_ctx store).Eval.alphabet))
    stores

let () =
  Alcotest.run "perf-parity"
    [
      ( "query-results",
        [
          Alcotest.test_case "xmark tiny instances, 3 seeds" `Quick
            test_xmark_parity;
          Alcotest.test_case "xmp use-case store" `Quick test_xmp_parity;
          Alcotest.test_case "randomized fuzz corpus, 25 seeds" `Quick
            test_fuzz_corpus_parity;
          Alcotest.test_case "fuzz corpus, frozen vs walk vs reference" `Quick
            test_fuzz_corpus_engines;
          Alcotest.test_case "fig16 stores, select-engine parity" `Quick
            test_select_engine_parity;
        ] );
      ( "semi-joins",
        [
          Alcotest.test_case "hand-written edge cases, fast vs naive" `Quick
            test_quantified_join_cases;
          Alcotest.test_case "context alphabet equals the document walk"
            `Quick test_alphabet_matches_walk;
          Alcotest.test_case "fig16 targets + learned queries, 1x and 2x" `Slow
            test_fig16_quantified_parity;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "fuzz corpus, streamed vs tree vs snapshot" `Quick
            test_streaming_fuzz_parity;
          Alcotest.test_case "fig16 documents, streamed vs tree" `Quick
            test_streaming_fig16_parity;
        ] );
      ( "learner",
        [
          Alcotest.test_case "xmark suite, streamed store vs tree store" `Slow
            test_streamed_store_learner_parity;
          Alcotest.test_case "fig16 suites, sequential vs pooled" `Slow
            test_learner_pool_parity;
          Alcotest.test_case "fuzz corpus, sequential vs pooled" `Slow
            test_fuzz_pool_parity;
          Alcotest.test_case "interaction counts pinned to BENCH_perf.json"
            `Slow test_pinned_fig16_counts;
        ] );
    ]
