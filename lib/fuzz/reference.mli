(** The reference evaluator: the executable specification that
    {!Xl_xquery.Eval} must agree with.

    Naive on purpose: no planner, no caches, no DFAs and no frozen
    snapshots.  FLWORs and the quantifiers are nested loops over their
    bindings; a regular path is evaluated by structural recursion on
    {!Xl_xquery.Path_expr.t} over the pointer tree; path results are
    sorted into document order.  The operators (comparison, arithmetic,
    [order by], element construction) are the engine's own
    {!Xl_xquery.Operators}: what is specified here is selection and
    iteration, not operator semantics.  Evaluation order follows the
    engine's, so the first error raised, and its message, are the same
    on both sides.

    Users: the differential tests, the fuzzer's parity property
    ({!Props}) and the bench's nested-loop timing. *)

val select : Xl_xquery.Path_expr.t -> Xl_xml.Node.t -> Xl_xml.Node.t list
(** Nodes reachable from the base by the regular path (the base's own
    symbol is not consumed; [Eps] selects the base), document order. *)

val run :
  ?env:Xl_xquery.Env.t -> Xl_xml.Store.t -> Xl_xquery.Ast.expr -> Xl_xquery.Value.t
(** Evaluate a query against a store. *)
