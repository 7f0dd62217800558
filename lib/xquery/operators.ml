(** The operators of the XQuery subset: general comparison, arithmetic,
    [order by] key comparison and element construction.

    These are value semantics, shared by the evaluator ({!Eval}) and the
    reference evaluator of the differential tests: the two differ in
    how they select and join — routes, caches, loops — never in what an
    operator means. *)

open Xl_xml

exception Type_error of string

(** [a op b] over two sequences: [is] is node identity, the other
    operators hold when some atom of [a] and some atom of [b] compare so
    (existential general comparison). *)
let general_compare (op : Ast.cmp_op) (va : Value.t) (vb : Value.t) : bool =
  match op with
  | Ast.Is ->
    let is_node n = function Value.Node m -> Node.equal n m | Value.Atom _ -> false in
    List.exists (function Value.Node n -> List.exists (is_node n) vb | Value.Atom _ -> false) va
  | _ ->
    let holds a b =
      let c = Value.atom_compare a b in
      match op with
      | Ast.Eq -> Value.atom_equal a b
      | Ast.Ne -> not (Value.atom_equal a b)
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0
      | Ast.Is -> assert false
    in
    let atoms_b = Value.atomize vb in
    List.exists (fun a -> List.exists (holds a) atoms_b) (Value.atomize va)

(** Arithmetic on two singleton numeric sequences; raises {!Type_error}
    on an empty or longer operand. *)
let arith (op : Ast.arith_op) (va : Value.t) (vb : Value.t) : Value.t =
  let num v =
    match List.filter_map Value.numeric_of_atom (Value.atomize v) with
    | [ n ] -> n
    | [] -> raise (Type_error "arithmetic on empty sequence")
    | _ -> raise (Type_error "arithmetic on a sequence")
  in
  let a = num va and b = num vb in
  Value.of_float
    (match op with
    | Ast.Add -> a +. b
    | Ast.Sub -> a -. b
    | Ast.Mul -> a *. b
    | Ast.Div -> a /. b
    | Ast.Mod -> Float.rem a b)

(** One atomized [order by] key and its [descending] flag. *)
type key = Value.atom list * bool

(** Compare two tuples' keys: an empty key sorts first, otherwise the
    first atoms compare; the first unequal key decides. *)
let compare_keys (ka : key list) (kb : key list) : int =
  let rec go a b =
    match a, b with
    | (xa, desc) :: ra, (xb, _) :: rb ->
      let c =
        match xa, xb with
        | [], [] -> 0
        | [], _ -> -1
        | _, [] -> 1
        | a0 :: _, b0 :: _ -> Value.atom_compare a0 b0
      in
      if c <> 0 then if desc then -c else c else go ra rb
    | _ -> 0
  in
  go ka kb

(* ---------- element construction ---------------------------------------- *)

(* Constructed content: adjacent atoms joined by a space, nodes copied.
   Construction builds the node tree directly — same ids, Dewey numbering
   and text splitting as a Frag round-trip through [Doc.of_frag], without
   serializing copied subtrees or allocating a document and its id table
   (constructed trees are never registered in the store). *)

type kid =
  | K_text of string
  | K_copy of Node.t  (** element to deep-copy *)

let rec item_kids (it : Value.item) : kid list =
  match it with
  | Value.Atom a -> [ K_text (Value.atom_to_string a) ]
  | Value.Node n -> (
    match n.Node.kind with
    | Node.Text | Node.Attribute -> [ K_text n.Node.value ]
    | Node.Element -> [ K_copy n ]
    | Node.Document -> List.concat_map item_kids (Value.of_nodes n.Node.children))

(** The children an element constructor makes of one content value. *)
let rec content_kids (v : Value.t) : kid list =
  match v with
  | [] -> []
  | Value.Atom a :: (Value.Atom _ :: _ as rest) ->
    K_text (Value.atom_to_string a ^ " ") :: content_kids rest
  | it :: rest -> item_kids it @ content_kids rest

let fresh_node kind name value dewey =
  {
    Node.id = Doc.fresh_id ();
    kind;
    name;
    value;
    parent = None;
    children = [];
    attributes = [];
    dewey;
  }

(* An element at [dewey] whose attributes and children are made, in
   order, from [attrs] and [kids].  Ids are drawn in preorder (element,
   its attributes, its children) and Dewey codes numbered with the
   shared attribute/child counter [Doc.of_frag] uses. *)
let element_at dewey tag attrs make_attr kids make_kid : Node.t =
  let n = fresh_node Node.Element tag "" dewey in
  let k = ref 0 in
  let child make x =
    incr k;
    let c = make x (Dewey.child dewey !k) in
    c.Node.parent <- Some n;
    c
  in
  n.Node.attributes <- List.map (child make_attr) attrs;
  n.Node.children <- List.map (child make_kid) kids;
  n

(* deep copy with fresh ids, renumbered under [dewey] *)
let rec copy dewey (src : Node.t) : Node.t =
  element_at dewey src.Node.name src.Node.attributes
    (fun (a : Node.t) d -> fresh_node Node.Attribute a.Node.name a.Node.value d)
    src.Node.children
    (fun (c : Node.t) d ->
      if Node.is_text c then fresh_node Node.Text "" c.Node.value d else copy d c)

(** A parentless, unregistered element [<tag attrs>kids</tag>]. *)
let element tag (attrs : (string * string) list) (kids : kid list) : Node.t =
  element_at Dewey.root tag attrs
    (fun (name, value) d -> fresh_node Node.Attribute name value d)
    kids
    (fun kid d ->
      match kid with
      | K_text s -> fresh_node Node.Text "" s d
      | K_copy src -> copy d src)
