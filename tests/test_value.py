"""The value classes: construction, equality, hashing, immutability and repr.

Every exported syntax tree node, `Team`, `Assignment`, `CheckOutcome`, the
graph records, the CNF record and the command line's parameter
report are built on `teamcheck.value.Value`.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys

import pytest

from teamcheck import (
    CNF,
    And,
    Assignment,
    CheckOutcome,
    CNFError,
    Const,
    DepAtom,
    Engine,
    Equality,
    Exists,
    Forall,
    Func,
    Graph,
    Or,
    RelAtom,
    Structure,
    SyntacticParams,
    Team,
    TeamError,
    TreeDecomposition,
    ValidationResult,
    Var,
    Vocabulary,
    parse_formula,
    structure_to_text,
)
from teamcheck.cli import ParameterReport
from teamcheck.value import Value

from conftest import SRC

x, y = Var("x"), Var("y")
EQ = Equality(x, y)
REL = RelAtom("R", (x,))
PARAMS = (1, 0, 1, 2, 2, 5)


def _one_of_each():
    """One instance of every value class."""
    return [
        Vocabulary({"R": 1}),
        x,
        Const("c"),
        Func("f", (x,)),
        EQ,
        REL,
        DepAtom((x,), (y,)),
        And(EQ, REL),
        Or(EQ, REL),
        Exists("y", EQ),
        Forall("y", EQ),
        SyntacticParams(*PARAMS),
        Assignment(("x",), (0,)),
        Team(("x",), {(0,), (1,)}),
        CheckOutcome(True, Engine.OPTIMIZED, 3),
        Graph.from_edges("ab", [("a", "b")]),
        TreeDecomposition([{"a", "b"}], []),
        ValidationResult(True),
        CNF(1, [(1, 1, -1)]),
        ParameterReport(*PARAMS, 2, 2, 1, True),
    ]


def test_every_value_class_is_covered():
    covered = {type(v) for v in _one_of_each()}
    assert len(covered) == 20

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert {c for c in subclasses(Value) if c.__module__.startswith("teamcheck.")} == covered


def test_equality_tells_the_classes_apart():
    assert And(EQ, REL) != Or(EQ, REL)
    assert Exists("y", EQ) != Forall("y", EQ)
    assert Var("x") != Const("x")
    assert SyntacticParams(*PARAMS) != ParameterReport(*PARAMS, 2, 2, 1, True)
    assert len({And(EQ, REL), Or(EQ, REL), And(EQ, REL)}) == 2
    assert Var("x") != "x" and Var("x") != ("x",)


def test_equal_values_hash_alike():
    vocab = Vocabulary(relations={"R": 2}, functions={"f": 1}, constants={"c"})
    text = "exists y (R(x,f(y)) & =(x,c;y)) | forall z !R(z,x)"
    first, second = parse_formula(text, vocab), parse_formula(text, vocab)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert {first: 1}[second] == 1
    for value, twin in zip(_one_of_each(), _one_of_each()):
        assert value == twin and hash(value) == hash(twin)
    assert Team(["x"], [[0]]) == Team(("x",), frozenset({(0,)}))


def test_values_are_immutable():
    for value in _one_of_each():
        field = value._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(AttributeError):
            object.__setattr__(value, field, None)
        assert not hasattr(value, "__dict__")


def test_vocabulary_arities_are_read_only():
    # a structure's vocabulary is the one holder of its arities
    s = Structure(
        ["a", "b"], relations={"E": (2, [("a", "b")])}, functions={"f": (1, {"a": "b", "b": "a"})}
    )
    vocab = s.vocabulary()
    for twin in (vocab, copy.deepcopy(vocab), pickle.loads(pickle.dumps(vocab))):
        with pytest.raises(TypeError):
            twin.relations["E"] = 3
        with pytest.raises(TypeError):
            del twin.functions["f"]
        assert not hasattr(twin.relations, "update")
        assert twin.relations["E"] == 2 and "E" in twin.relations
        assert twin.relations.get("F") is None and twin.functions == {"f": 1}
        assert hash(twin) == hash(vocab)
    assert structure_to_text(s).splitlines()[1] == "relation E/2: (a,b)"


def test_repr_strings():
    assert repr(REL) == "RelAtom(name='R', args=(Var(name='x'),), negated=False)"
    assert repr(Team(("x", "y"), {(0, 1)})) == "Team(domain=('x', 'y'), rows=frozenset({(0, 1)}))"
    assert repr(ValidationResult(True)) == "ValidationResult(ok=True, violation=None)"
    assert (
        repr(ValidationResult(False, "bag 0 is empty"))
        == "ValidationResult(ok=False, violation='bag 0 is empty')"
    )
    assert repr(Vocabulary()) == (
        "Vocabulary(relations=mappingproxy({}), functions=mappingproxy({}), constants=frozenset())"
    )
    assert repr(Graph.from_edges("ab", [("a", "b")])) == (
        "Graph(vertices=('a', 'b'), adjacency=(2, 1))"
    )


def test_keyword_and_default_construction():
    assert Vocabulary() == Vocabulary(relations={}, functions={}, constants=frozenset())
    assert Vocabulary().relations == {} and Vocabulary().constants == frozenset()
    assert RelAtom("R", (x,)) == RelAtom(name="R", args=(x,), negated=False)
    assert RelAtom("R", (x,)).negated is False
    assert ValidationResult(ok=False).violation is None
    assert Team(rows=[(0,)], domain=["x"]) == Team(("x",), {(0,)})
    assert And(right=REL, left=EQ) == And(EQ, REL)
    report = ParameterReport(*PARAMS, structure_size=2, team_size=2, treewidth=1,
                             treewidth_is_exact=False)
    assert report.lines()[-1] == "treewidth=1(upper-bound)"
    assert report._asdict()["splits"] == 1
    for bad in (lambda: And(EQ), lambda: And(EQ, REL, REL), lambda: Var(nom="x")):
        with pytest.raises(TypeError):
            bad()


def test_validating_constructors_still_raise():
    with pytest.raises(TeamError, match="duplicate"):
        Team(("x", "x"), set())
    with pytest.raises(TeamError, match="domain width"):
        Team(("x",), {(0, 1)})
    with pytest.raises(TeamError, match="differ in length"):
        Assignment(("x",), (0, 1))
    with pytest.raises(TeamError, match="duplicate"):
        Assignment(("x", "x"), (0, 1))
    for relations, message in [
        ({"1R": 1}, "invalid symbol"),
        ({"forall": 1}, "reserved keyword"),
        ({"R": 0}, "arity >= 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            Vocabulary(relations=relations)
    with pytest.raises(ValueError, match="more than once"):
        Vocabulary(relations={"R": 1}, constants={"R"})
    with pytest.raises(ValueError, match="nonempty consequent"):
        DepAtom((x,), ())
    with pytest.raises(CNFError, match="negative"):
        CNF(-1, [])
    with pytest.raises(CNFError, match="exactly 3"):
        CNF(2, [(1, 2)])
    with pytest.raises(CNFError, match="out of range"):
        CNF(2, [(1, 2, 3)])


def test_constructors_normalize_their_fields():
    assert Team(["x"], [[0]]).domain == ("x",)
    assert Team(["x"], [[0]]).rows == frozenset({(0,)})
    assert CNF(2, [[1, 2, -1]]).clauses == ((1, 2, -1),)
    decomposition = TreeDecomposition([["a", "b"], {"b"}], [[1, 0]])
    assert decomposition.bags == (frozenset("ab"), frozenset("b"))
    assert decomposition.tree_edges == frozenset({(0, 1)})
    vocab = Vocabulary(relations=(("R", 2),), constants=["c"])
    assert vocab.relations == {"R": 2} and vocab.constants == frozenset({"c"})
    # a graph stores one adjacency mask per vertex; its edges are derived
    assert Graph._fields == ("vertices", "adjacency")
    graph = Graph.from_edges("abc", [("b", "a")])
    assert graph.adjacency == (2, 1, 0) and graph.edges == frozenset({("a", "b")})


def test_values_copy_and_pickle():
    for value in _one_of_each():
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value


IMPORT_PROBE = """
import sys
import argparse, contextlib, enum, functools, itertools, operator, pathlib, re, typing
calls = []
def hook(event, args):
    # the import system compiles and runs the package's own .py files; any
    # other compile or exec (such as generated methods) is recorded
    if event == "compile" and not str(args[1]).endswith(".py"):
        calls.append((event, args[1]))
    elif event == "exec" and not args[0].co_filename.endswith(".py") and not (
        args[0].co_filename.startswith("<frozen ")  # a frozen standard module
    ):
        calls.append((event, args[0].co_filename))
sys.addaudithook(hook)
import teamcheck.cli
print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules), calls)
"""


def test_importing_the_command_line_generates_no_code():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE], env=env, capture_output=True, encoding="utf-8",
        check=True,
    ).stdout
    assert out.strip() == "[] []"
