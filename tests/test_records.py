"""Every record class keeps the semantics it had as a dataclass: equal only
within its own class, a hash consistent with equality, the same repr text,
copies and pickles, and no field set once a frozen record is built.  The
atoms are interned: each build, copy and pickle of one is the one object."""

import copy
import gc
import pickle

import pytest

from miniscp.configs import make_config, restriction
from miniscp.driving import Branch, _Scratch
from miniscp.harness import (
    Corpus, PatternArtifacts, SweepResult, VerificationReport,
)
from miniscp.interpreter import Outcome
from miniscp.kmp import Automaton
from miniscp.record import Record
from miniscp.residual import ResidualProgram, StructuralReport
from miniscp.scp import Node, ProcessGraph, ScpReport, specialize_pattern
from miniscp.syntax import (
    NIL, TRUE, Call, Cons, FalseVal, ListParam, ListVar, Nil, Rule, Sym,
    SymParam, SymVar, TrueVal, ValidationError, _Token, chain, parse_program,
    word,
)

HELD = restriction([(SymParam("c"), Sym("a"))])


def _config():
    return make_config(Call("S", (word("ab"), ListParam("y"))))


def _branch(*steps):
    return Branch(((ListParam("y"), NIL),), HELD, 2, _config(), *steps)


# class -> (build an instance, its repr, frozen, hashable)
CASES = {
    Sym: (lambda: Sym("a"), "'a'", True, True),
    SymVar: (lambda: SymVar("a"), "s.a", True, True),
    SymParam: (lambda: SymParam("x"), "#s.x", True, True),
    ListVar: (lambda: ListVar("x"), "x", True, True),
    ListParam: (lambda: ListParam("x"), "#x", True, True),
    Nil: (Nil, "Nil", True, True),
    TrueVal: (TrueVal, "T", True, True),
    FalseVal: (FalseVal, "F", True, True),
    Cons: (lambda: word("ab"), '"ab"', True, True),
    Call: (lambda: Call("F", (word("a"), ListParam("y"))), 'F("a", #y)',
           True, True),
    Rule: (lambda: Rule((Sym("a"), ListVar("y")), TRUE), "'a', y = T;",
           True, True),
    type(parse_program("F { x = T; }")): (
        lambda: parse_program("F { x = T; }\nG { x = x; }"), "<Program F/G>",
        True, True),
    _Token: (lambda: _Token("NAME", "x", 1, 2),
             "_Token(kind='NAME', text='x', line=1, col=2)", False, False),
    type(HELD): (lambda: restriction([(Sym("a"), SymParam("c"))]),
                 "'a'≠#s.c", True, True),
    type(_config()): (
        lambda: make_config(Call("S", (word("ab"),
                                       Cons(SymParam("c"), ListParam("y")))),
                            HELD),
        "⟨S(\"ab\", #s.c:#y) ; 'a'≠#s.c⟩", True, True),
    Branch: (lambda: _branch(3),
             "Branch(subst=((#y, Nil),), added='a'≠#s.c, rule_index=2, "
             "child=⟨S(\"ab\", #y)⟩, steps=3)",
             True, True),
    Outcome: (lambda: Outcome(TRUE, 4), "Outcome(value=T, steps=4)",
              True, True),
    Node: (lambda: Node(_config(), "pivot", 0),
           "Node(config=⟨S(\"ab\", #y)⟩, kind='pivot', parent=0, "
           "branch=None, children=[], fold=None)", False, False),
    ProcessGraph: (lambda: ProcessGraph([Node(_config())]),
                   "ProcessGraph(nodes=[Node(config=⟨S(\"ab\", #y)⟩, "
                   "kind='', parent=None, branch=None, children=[], "
                   "fold=None)], root=0)", False, False),
    ScpReport: (lambda: ScpReport(0, [_config()], 1, 0),
                "ScpReport(generalizations_attempted=0, "
                "pivots=[⟨S(\"ab\", #y)⟩], node_count=1, fold_count=0, "
                "whistle_pairs=[], drive_steps=0, ground_steps=0, "
                "transient_steps=0, whistle_checks=0, ground_runs=0)",
                False, False),
    ResidualProgram: (
        lambda: ResidualProgram(parse_program("F { x = T; }"),
                                {"F": _config()}, "F"),
        "ResidualProgram(program=<Program F>, "
        "provenance={'F': ⟨S(\"ab\", #y)⟩}, entry='F')", True, False),
    StructuralReport: (lambda: StructuralReport(0, 1, 2),
                       "StructuralReport(constants_in_rhs=0, "
                       "repeated_params_in_rhs=1, max_lhs_cons_depth=2)",
                       True, True),
    Automaton: (lambda: Automaton("ab"), "Automaton(pattern='ab')",
                False, False),
    Corpus: (lambda: Corpus(("a", "ab")),
             "Corpus(patterns=('a', 'ab'), exhaustive_len=8, "
             "random_count=1000, random_max_len=200, seed=7)", True, True),
    VerificationReport: (
        lambda: VerificationReport("ab", True, True, True, True, True, True,
                                   False, {"nodes": 3}),
        "VerificationReport(pattern='ab', first_path_ok=True, "
        "restart_ok=True, covering_ok=True, structural_ok=True, "
        "equivalence_ok=True, linearity_ok=True, automaton_ok=False, "
        "metrics={'nodes': 3}, failures=())", False, False),
    PatternArtifacts: (
        lambda: PatternArtifacts("ab", None, None, None),
        "PatternArtifacts(pattern='ab', graph=None, report=None, "
        "residual=None)", False, False),
    SweepResult: (lambda: SweepResult(True, False, 1.5, None, "too long"),
                  "SweepResult(equivalence_ok=True, linearity_ok=False, "
                  "max_steps_ratio=1.5, counterexample=None, "
                  "bound_violation='too long')", True, True),
}


ATOMS = (Sym, SymVar, SymParam, ListVar, ListParam)


def _twin(record):
    """An instance of another record class with the same fields and
    values."""
    cls = type(record)
    twin = type("Twin", (Record,), {"__slots__": cls._fields})
    return twin(*(getattr(record, f) for f in cls._fields))


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_record_semantics(cls):
    build, text, frozen, hashable = CASES[cls]
    a, b = build(), build()
    assert type(a) is cls
    if cls in ATOMS:  # one object per class and character or name
        assert a is b and pickle.loads(pickle.dumps(a)) is a \
            and copy.deepcopy(a) is a
    else:
        assert a is not b
    assert a == b and not a != b
    assert a != _twin(a) and _twin(a) != a
    assert repr(a) == text
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    fields = cls._fields
    if frozen:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(b, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b
    else:
        setattr(a, fields[0], None)
        assert a != b


def test_equal_only_within_one_class():
    assert Sym("a") != SymVar("a") and SymVar("a") != ListVar("a")
    assert SymParam("x") != ListParam("x")
    assert hash(SymParam("x")) == hash(SymParam("x"))
    assert Nil() == NIL and Nil() != TrueVal() and TrueVal() != FalseVal()
    # a word built by word() and the same chain built cell by cell
    cells = chain([Sym("a"), Sym("b")], NIL)
    assert word("ab") == cells and hash(word("ab")) == hash(cells)
    assert word("ab") != chain([Sym("a"), Sym("b")], ListParam("y"))


def _live_params() -> int:
    return len(SymParam._live) + len(ListParam._live)


def test_parameters_live_only_while_referred_to():
    # driving names parameters it never uses again (see driving._Scratch);
    # the intern tables keep none of them once nothing refers to them
    gc.collect()
    level = _live_params()
    scratch = _Scratch()
    made = [scratch.fresh_sym(), scratch.fresh_list()]
    assert _live_params() == level + 2
    del made
    gc.collect()
    assert _live_params() == level
    specialize_pattern("ab" * 5)
    gc.collect()
    level = _live_params()
    specialize_pattern("ab" * 5)
    gc.collect()
    assert _live_params() == level


def test_a_refused_symbol_is_refused_on_every_build():
    for _ in range(2):  # a refused character is not interned
        with pytest.raises(ValidationError):
            Sym("{")


def test_defaults_and_checks_stay():
    with pytest.raises(ValidationError):
        Sym("ab")
    report = ScpReport(0, [], 0, 0)
    other = ScpReport(0, [], 0, 0)
    assert report.whistle_pairs == [] \
        and report.whistle_pairs is not other.whistle_pairs
    assert (report.drive_steps, report.ground_steps, report.transient_steps,
            report.whistle_checks, report.ground_runs) == (0, 0, 0, 0, 0)
    graph = ProcessGraph([])
    assert graph.root == 0
    node = Node(_config(), parent=3)
    assert (node.kind, node.parent, node.branch, node.children, node.fold) \
        == ("", 3, None, [], None)
    assert Node(_config()).children is not Node(_config()).children
    assert _branch().steps == 1
    assert make_config(Call("F", (NIL,))).restriction == restriction([])
    with pytest.raises(TypeError):
        Outcome(TRUE)
    with pytest.raises(TypeError):
        Outcome(TRUE, 1, 2)
    with pytest.raises(TypeError):
        Corpus(("a",), colour=3)
