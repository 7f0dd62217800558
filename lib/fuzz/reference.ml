(** The reference evaluator (see the interface). *)

module Node = Xl_xml.Node
module Doc = Xl_xml.Doc
module Store = Xl_xml.Store
module Ast = Xl_xquery.Ast
module Env = Xl_xquery.Env
module Value = Xl_xquery.Value
module Ops = Xl_xquery.Operators
module Pe = Xl_xquery.Path_expr

let uniq nodes = List.sort_uniq Node.compare_order nodes

(* the children and attributes of [n] that one step's test accepts *)
let step (test : Pe.test) (n : Node.t) : Node.t list =
  match test with
  | Pe.Tag t -> List.filter (fun c -> Node.is_element c && c.Node.name = t) n.Node.children
  | Pe.Any_elem -> List.filter Node.is_element n.Node.children
  | Pe.Attr a -> List.filter (fun c -> c.Node.name = a) n.Node.attributes
  | Pe.Any_attr -> n.Node.attributes
  | Pe.Text_node -> List.filter Node.is_text n.Node.children

let rec select (p : Pe.t) (n : Node.t) : Node.t list =
  match p with
  | Pe.Eps -> [ n ]
  | Pe.Step (Pe.Child, test) -> step test n
  | Pe.Step (Pe.Desc, test) ->
    (* //t is (any element)* t *)
    let rec elements_or_self m = m :: List.concat_map elements_or_self (step Pe.Any_elem m) in
    uniq (List.concat_map (step test) (elements_or_self n))
  | Pe.Seq (a, b) -> uniq (List.concat_map (select b) (select a n))
  | Pe.Alt (a, b) -> uniq (select a n @ select b n)
  | Pe.Star a ->
    (* the least node set that holds [n] and is closed under [a] *)
    let rec close seen =
      let seen' = uniq (seen @ List.concat_map (select a) seen) in
      if List.length seen' = List.length seen then seen else close seen'
    in
    close [ n ]

let rec eval (store : Store.t) (env : Env.t) (e : Ast.expr) : Value.t =
  match e with
  | Ast.Literal a -> [ Value.Atom a ]
  | Ast.Sequence es -> List.concat_map (eval store env) es
  | Ast.Var v -> Env.find_exn env v
  | Ast.Doc_root None -> [ Value.Node (Store.default store).Doc.doc_node ]
  | Ast.Doc_root (Some u) -> [ Value.Node (Store.find_exn store u).Doc.doc_node ]
  | Ast.Path (e, p) ->
    let v = eval store env e in
    Value.document_order (Value.of_nodes (List.concat_map (select p) (Value.nodes_of v)))
  | Ast.Simple (e, p) ->
    let v = eval store env e in
    Value.document_order
      (Value.of_nodes (List.concat_map (Xl_xquery.Simple_path.eval p) (Value.nodes_of v)))
  | Ast.Flwor f -> flwor store env f
  | Ast.Some_ (bs, body) -> Value.of_bool (exists_tuple store env bs (truth store body))
  | Ast.Every (bs, body) ->
    Value.of_bool (not (exists_tuple store env bs (fun env -> not (truth store body env))))
  | Ast.If (c, t, f) -> if truth store c env then eval store env t else eval store env f
  | Ast.Elem (tag, contents) ->
    let attrs, kids =
      List.fold_left
        (fun (attrs, kids) c ->
          match c with
          | Ast.Attr_c (name, e) ->
            (attrs @ [ (name, Value.string_value (eval store env e)) ], kids)
          | _ -> (attrs, kids @ Ops.content_kids (eval store env c)))
        ([], []) contents
    in
    [ Value.Node (Ops.element tag attrs kids) ]
  | Ast.Attr_c (_, e) | Ast.Text_c e ->
    [ Value.Atom (Value.Str (Value.string_value (eval store env e))) ]
  | Ast.Cmp (op, a, b) ->
    Value.of_bool (Ops.general_compare op (eval store env a) (eval store env b))
  | Ast.Arith (op, a, b) -> Ops.arith op (eval store env a) (eval store env b)
  | Ast.And (a, b) -> Value.of_bool (truth store a env && truth store b env)
  | Ast.Or (a, b) -> Value.of_bool (truth store a env || truth store b env)
  | Ast.Not a -> Value.of_bool (not (truth store a env))
  | Ast.Call (name, args) -> Xl_xquery.Functions.apply name (List.map (eval store env) args)
  | Ast.Union (a, b) -> Value.document_order (eval store env a @ eval store env b)

and truth store e env = Value.to_bool (eval store env e)

(* the nested loop: [k] runs on every tuple of [bs], in binding order *)
and for_each : 'a. Store.t -> Env.t -> Ast.binding list -> (Env.t -> 'a list) -> 'a list =
 fun store env bs k ->
  match bs with
  | [] -> k env
  | (v, e) :: rest ->
    List.concat_map (fun it -> for_each store (Env.bind env v [ it ]) rest k) (eval store env e)

(* the same loop, stopping at the first tuple that satisfies [p] *)
and exists_tuple store env bs p =
  match bs with
  | [] -> p env
  | (v, e) :: rest ->
    List.exists (fun it -> exists_tuple store (Env.bind env v [ it ]) rest p) (eval store env e)

and flwor store env (f : Ast.flwor) : Value.t =
  (* one tuple's [let] clauses, then its [where] filter *)
  let admit env =
    let env =
      List.fold_left (fun env (v, e) -> Env.bind env v (eval store env e)) env f.Ast.let_
    in
    match f.Ast.where with Some w when not (truth store w env) -> [] | _ -> [ env ]
  in
  let return env = eval store env f.Ast.return in
  match f.Ast.order_by with
  | [] -> for_each store env f.Ast.for_ (fun env -> List.concat_map return (admit env))
  | keys ->
    let key env =
      List.map (fun k -> (Value.atomize (eval store env k.Ast.key), k.Ast.descending)) keys
    in
    let decorated = List.map (fun env -> (key env, env)) (for_each store env f.Ast.for_ admit) in
    let sorted = List.stable_sort (fun (ka, _) (kb, _) -> Ops.compare_keys ka kb) decorated in
    List.concat_map (fun (_, env) -> return env) sorted

let run ?(env = Env.empty) (store : Store.t) (e : Ast.expr) : Value.t = eval store env e
