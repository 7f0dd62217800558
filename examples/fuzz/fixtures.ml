(* Pinned regression fixtures: minimized counterexamples found while
   the fuzzing harness was being developed, each of which exposed (and
   now pins) a real pipeline bug.  A fixture is the tiny DTD + training
   document + target query of the minimized case; test/test_fuzz.ml
   runs the full learning pipeline on each and asserts the learned
   query is extent-equivalent to the target on the training document. *)

module Pe = Xl_xquery.Path_expr
module Sp = Xl_xquery.Simple_path
module Cond = Xl_xqtree.Cond
module Xqtree = Xl_xqtree.Xqtree

type t = {
  name : string;
  bug : string;  (** what the original counterexample exposed *)
  dtd : string;
  root : string;
  training : string;
  target : Xqtree.t;
}

(* Seed 20040301: a nested box re-selecting its own context node.  The
   relative hypothesis is the empty path, whose language is {ε} — both
   DFA selection (Eval.select_dfa) and Eval.eval_path used to drop the origin
   node, so the hypothesis extent stayed empty and the teacher repeated
   the same counterexample forever; rebuild additionally kept the
   target's absolute source for the relatively-anchored task. *)
let eps_extent =
  {
    name = "eps-extent";
    bug = "the empty relative path must select the origin node itself";
    dtd = "<!ELEMENT r (b*)>\n<!ELEMENT b (#PCDATA)>";
    root = "r";
    training = "<r><b>x</b></r>";
    target =
      Xqtree.make "N1" ~tag:"results"
        ~children:
          [
            Xqtree.make "N1.1" ~tag:"outer" ~var:"v1"
              ~source:(Xqtree.Abs (None, Pe.steps [ "r" ]))
              ~children:
                [
                  Xqtree.make "N1.1.1" ~tag:"inner" ~var:"v2"
                    ~source:(Xqtree.Abs (None, Pe.steps [ "r" ]));
                ];
          ];
  }

(* Seed 20040301: a join whose drop-context extent is unchanged without
   it ($v1 = a("p1") matches every b), so greedy minimization discards
   it — yet the sibling context $v1 = a("p2") separates the two
   hypotheses.  End-to-end verification fails and the repair sweep must
   restore the minimized-away candidate from the negative
   counterexample. *)
let spare_join =
  {
    name = "spare-join";
    bug = "the verification sweep must restore a minimized-away join";
    dtd =
      "<!ELEMENT r (a*,b*)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>";
    root = "r";
    training = "<r><a>p1</a><a>p2</a><b>p1</b><b>p1</b></r>";
    target =
      Xqtree.make "N1" ~tag:"results"
        ~children:
          [
            Xqtree.make "N1.1" ~tag:"m" ~var:"v1"
              ~source:(Xqtree.Abs (None, Pe.steps [ "r"; "a" ]))
              ~children:
                [
                  Xqtree.make "N1.1.1" ~tag:"n" ~var:"v2"
                    ~source:(Xqtree.Abs (None, Pe.steps [ "r"; "b" ]))
                    ~conds:[ Cond.Join (Cond.ep "v2", Cond.ep "v1") ];
                ];
          ];
  }

(* Seed 20040301, case 233: two join endpoints that coincide on the
   training instance (data($v2/c/d) agrees with data($v2/d/@k) on every
   context).  The teacher is instance-bound, so either conjunction is a
   correct answer; the pipeline must still converge and match the
   target on the training document. *)
let twin_join =
  {
    name = "twin-join";
    bug = "coinciding join endpoints must still verify on the instance";
    dtd =
      "<!ELEMENT r (b*)>\n\
       <!ELEMENT b (c+,d*)>\n\
       <!ATTLIST b\n\
      \  k CDATA #REQUIRED>\n\
       <!ELEMENT c (d*)>\n\
       <!ELEMENT d (#PCDATA)>\n\
       <!ATTLIST d\n\
      \  k CDATA #REQUIRED>";
    root = "r";
    training =
      "<r><b k=\"d1_0\"><c><d k=\"d0_0\">d0_1</d></c><c><d \
       k=\"d0_1\">d0_2</d></c><d k=\"d0_1\">d0_2</d></b></r>";
    target =
      Xqtree.make "N1" ~tag:"results"
        ~children:
          [
            Xqtree.make "N1.1" ~tag:"c" ~var:"v1"
              ~source:(Xqtree.Abs (None, Pe.steps [ "r"; "b"; "c" ]))
              ~children:
                [
                  Xqtree.make "N1.1.1" ~tag:"b" ~var:"v2"
                    ~source:(Xqtree.Abs (None, Pe.steps [ "r"; "b" ]))
                    ~conds:
                      [
                        Cond.Join
                          ( Cond.ep ~path:(Sp.of_string "d/@k") "v2",
                            Cond.ep ~path:(Sp.of_string "d/@k") "v1" );
                      ];
                ];
          ];
  }

let all = [ eps_extent; spare_join; twin_join ]
