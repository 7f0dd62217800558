(** Evaluator for the XQuery subset.

    Regular location paths are compiled (once, cached) to DFAs over the
    context's alphabet and evaluated by walking the tree while tracking
    the automaton state, with dead-state pruning — what makes "selection
    by regular path expression" cheap enough to recompute extents
    repeatedly during learning.

    One engine, no switches: the input picks each route.  A selection
    from a store-resident node scans the store's frozen arrays
    ({!Xl_xml.Frozen}); from a constructed node it walks the pointer
    tree; both are memoized per (DFA, base node) until the store
    changes.  Eligible equality [where] clauses run as cached hash joins,
    and a [some] quantifier whose [satisfies] clause holds such an
    equality runs as a hash semi-join — each outer tuple probes the
    cached build-side index and the rest of the clause runs only on the
    matching candidates, stopping at the first witness.  Every other
    FLWOR and quantifier runs as a nested loop.  Tuple streams are lazy
    and shared by FLWOR and the quantifiers. *)

type compiled_path = {
  dfa : Xl_automata.Dfa.t;
  live : bool array;  (** states from which a final state is reachable *)
}

(** Build side of a hash join, cached per (source sequence, key path). *)
type join_index = {
  items : Value.item array;  (** the build sequence, original order *)
  buckets : (string, int list) Hashtbl.t;
      (** {!Value.atom_hash_keys} key -> ascending indices into [items] *)
  built_at : int;  (** {!Xl_xml.Store.generation} at build time *)
}

(** A planned hash join for one FLWOR or [some] quantifier (see
    [plan_hash_join] in the implementation for the eligibility rules). *)
type join_plan = {
  jp_binding : int;  (** index of the build binding among the bindings *)
  jp_var : string;
  jp_source : Ast.expr;  (** closed source sequence of the build binding *)
  jp_key : Ast.expr;  (** build-side key, mentions only [jp_var] *)
  jp_probe : Ast.expr;  (** probe-side key, evaluable before the build *)
  jp_residual : Ast.expr option;
      (** rest of the [where] / [satisfies] clause, conjuncts in source
          order *)
}

type ctx = {
  store : Xl_xml.Store.t;
  alphabet : Xl_automata.Alphabet.t;
  cache : (Path_expr.t, compiled_path) Hashtbl.t;
  join_cache : (Ast.expr * Ast.expr, join_index) Hashtbl.t;
  plan_cache : (Ast.expr, join_plan option) Hashtbl.t;
      (** [Flwor] or [Some_] expression -> its join plan *)
  frozen_syms : (int, int array * int) Hashtbl.t;
      (** {!Xl_xml.Frozen.t} uid -> (local symbol id -> alphabet id or
          -1, alphabet size at build); rebuilt when the alphabet grows *)
  extent_cache : (Xl_automata.Dfa.t * int, Xl_xml.Node.t list) Hashtbl.t;
      (** (DFA, base node id) -> selection, flushed on store change — the
          cross-round extent cache of the learning loop *)
  mutable extent_cache_gen : int;  (** {!Xl_xml.Store.generation} stamp *)
  live_cache : (Xl_automata.Dfa.t, bool array) Hashtbl.t;
      (** liveness of externally compiled DFAs (the oracle's) *)
  mutable frozen_scratch : int array;
      (** dirty per-scan state scratch of the frozen engine (see the
          implementation's invariant note); grown on demand *)
}

val make_ctx : Xl_xml.Store.t -> ctx
(** Interns every symbol of every document in the store, read from the
    store's frozen snapshots ({!Xl_xml.Store.frozen_docs}, which builds
    the store's indexes if they are not yet built) in the order a
    preorder walk of the documents would meet them.  A context is
    confined to one domain; concurrent domains each make their own. *)

val ctx_of_doc : Xl_xml.Doc.t -> ctx

val intern_path_symbols : Xl_automata.Alphabet.t -> Path_expr.t -> unit
(** Intern a path's literal tags so wildcard expansion and compilation
    agree on the alphabet. *)

val compile_path : ctx -> Path_expr.t -> compiled_path

val select_dfa :
  ctx -> Xl_automata.Dfa.t -> Xl_xml.Node.t -> Xl_xml.Node.t list
(** Nodes under the base whose relative tag path the DFA accepts (the
    base itself when the DFA accepts ε — a relative learning task whose
    extent holds its own anchor learns such a DFA), document order: the
    extent selection of the learner.  Runs the frozen
    single-pass scan when the base is store-resident and the pointer walk
    otherwise, memoized per (DFA, base id).  Never interns. *)

val eval_path : ctx -> Path_expr.t -> Xl_xml.Node.t -> Xl_xml.Node.t list
(** Nodes reachable from the base by the regular path (the base's own
    symbol is not consumed), document order.  Compiles the path (cached)
    and selects via the same engine as {!select_dfa}.  Never interns:
    symbols outside the alphabet simply cannot match. *)

exception Type_error of string

val eval : ctx -> Env.t -> Ast.expr -> Value.t

val run : ?env:Env.t -> ctx -> Ast.expr -> Value.t
(** Evaluate a closed query. *)

val run_to_string : ?env:Env.t -> ctx -> Ast.expr -> string
(** Evaluate and serialize. *)
