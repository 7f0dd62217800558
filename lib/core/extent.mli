(** Extent computation — [EXT_{e,context(e)}] (Section 4.2).

    A hypothesis extent is the set of nodes reachable from a fragment's
    base by the hypothesis path automaton, filtered by the hypothesis
    conditions with the context variables pinned to their drops.
    Conditions may reference several variables bound per candidate (a
    collapse pair binds both halves), so filtering takes a per-candidate
    [bind] function.  The path part is {!Xl_xquery.Eval.select_dfa}. *)

open Xl_xml

val rel_path : base:Node.t -> Node.t -> string list option
(** Tag path below [base]; [None] outside its subtree. *)

val ancestor_at : Node.t -> int -> Node.t option
(** k levels up (0 = the node itself). *)

val env_of_bindings : (string * Node.t) list -> Xl_xquery.Env.t

val satisfies :
  Xl_xquery.Eval.ctx -> Teacher.context ->
  bindings:(string * Node.t) list -> Xl_xqtree.Cond.t list -> bool

val filter_conds :
  Xl_xquery.Eval.ctx -> Teacher.context -> bind:(Node.t -> (string * Node.t) list) ->
  Xl_xqtree.Cond.t list -> Node.t list -> Node.t list
