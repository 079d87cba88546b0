from __future__ import annotations

import random

import pytest

from teamcheck import (
    And,
    Const,
    DepAtom,
    Exists,
    Forall,
    FormulaSyntaxError,
    Func,
    Or,
    RelAtom,
    Var,
    Vocabulary,
    all_variables,
    analyze,
    formula_size,
    free_variables,
    has_dependence_atoms,
    parse_formula,
    pretty,
)
from teamcheck.syntax import subformulas, subterms

from conftest import outcome
from depgen import random_formula, random_structure

R2 = Vocabulary(relations={"R": 2})
TERMS = Vocabulary(relations={"R": 2, "S": 1}, functions={"f": 2, "g": 1}, constants={"c"})


def dep(*names):
    """dep(a, ..., m; n, ...) given as two name groups split by None."""
    split = names.index(None)
    return DepAtom(
        tuple(Var(n) for n in names[:split]),
        tuple(Var(n) for n in names[split + 1:]),
    )


def test_parse_triple_split_is_left_associative():
    f = parse_formula("=(x;y) | =(u;v) | =(u;v)")
    d1 = dep("x", None, "y")
    d2 = dep("u", None, "v")
    assert f == Or(Or(d1, d2), d2)
    assert analyze(f).splits == 2
    assert sum(1 for _ in _dep_atoms(f)) == 3


def _dep_atoms(f):
    if isinstance(f, DepAtom):
        yield f
    elif isinstance(f, (And, Or)):
        yield from _dep_atoms(f.left)
        yield from _dep_atoms(f.right)
    elif isinstance(f, (Exists, Forall)):
        yield from _dep_atoms(f.body)


def test_parse_quantifier_chain():
    f = parse_formula("forall x exists y R(x,y)", R2)
    assert f == Forall("x", Exists("y", RelAtom("R", (Var("x"), Var("y")))))
    assert free_variables(f) == frozenset()


def test_negated_equality_is_rejected():
    with pytest.raises(FormulaSyntaxError, match="relation atoms"):
        parse_formula("!(x = y)")


def test_negated_dependence_atom_is_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("!=(x;y)")


def test_unknown_symbol_reports_position():
    with pytest.raises(FormulaSyntaxError, match="unknown function or relation") as info:
        parse_formula("forall x Q(x)")
    assert info.value.position == 9


def test_arity_mismatch_rejected():
    with pytest.raises(FormulaSyntaxError, match="expects 2 arguments"):
        parse_formula("R(x)", R2)


def test_relation_symbol_cannot_be_a_term():
    with pytest.raises(FormulaSyntaxError, match="used as a term"):
        parse_formula("R(x,y) & x = R", R2)


def test_lex_error_reports_position():
    with pytest.raises(FormulaSyntaxError) as info:
        parse_formula("R(x,y) @ R(y,x)", R2)
    assert info.value.position == 7


def test_constancy_atom_accepted_with_arity_zero():
    f = parse_formula("=(;y)")
    assert f == DepAtom((), (Var("y"),))
    assert analyze(f).arity == 0
    assert has_dependence_atoms(f)


def test_empty_consequent_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("=(x;)")


def test_conjunction_binds_tighter_than_split():
    f = parse_formula("R(x,y) & R(y,x) | R(x,x)", R2)
    assert isinstance(f, Or)
    assert isinstance(f.left, And)


def test_quantifier_scopes_over_a_single_unit():
    f = parse_formula("forall x R(x,x) | R(x,x)", R2)
    assert isinstance(f, Or)
    assert isinstance(f.left, Forall)
    g = parse_formula("forall x (R(x,x) | R(x,x))", R2)
    assert isinstance(g, Forall)


def test_function_and_constant_terms():
    vocab = Vocabulary(relations={"R": 1}, functions={"f": 1}, constants={"c"})
    f = parse_formula("R(f(c)) & f(x) = c", vocab)
    assert isinstance(f, And)
    assert pretty(f) == "R(f(c)) & f(x) = c"
    assert parse_formula(pretty(f), vocab) == f


def test_free_variables_of_dependence_atom():
    assert free_variables(parse_formula("=(x;y)")) == {"x", "y"}


def test_quantifier_binds_variable():
    vocab = Vocabulary(relations={"R": 2})
    assert free_variables(parse_formula("exists x R(x,y)", vocab)) == {"y"}


def test_sentence_has_no_free_variables():
    f = parse_formula("forall x exists y R(x,y)", R2)
    assert free_variables(f) == frozenset()
    assert all_variables(f) == {"x", "y"}


def test_analyze_triple_split():
    p = analyze(parse_formula("=(x;y) | =(u;v) | =(u;v)"))
    assert (p.splits, p.foralls, p.arity, p.free_vars, p.vars) == (2, 0, 1, 4, 4)
    # node count 5 plus eight variable occurrences, under the size convention
    assert p.size == 11


def test_analyze_binary_antecedent_arity():
    assert analyze(parse_formula("=(x,y;z)")).arity == 2


def test_analyze_sentence():
    p = analyze(parse_formula("forall x exists y R(x,y)", R2))
    assert (p.free_vars, p.foralls, p.splits, p.arity) == (0, 1, 0, 0)


def test_requantified_variable_counted_once():
    f = parse_formula("exists x exists x R(x,x)", R2)
    assert all_variables(f) == {"x"}
    assert analyze(f).vars == 1


@pytest.mark.parametrize(
    "text, params, subformula_count",
    [
        (
            "forall x (R(f(x,c),g(g(y))) | exists x (=(x,g(c);y) & f(x,x) = c)) | !S(z)",
            (2, 1, 2, 3, 2, 24),
            9,
        ),
        ("exists x exists x =(;x) | forall y S(y)", (1, 1, 0, 2, 0, 8), 6),
    ],
)
def test_analyze_term_heavy_formulas(text, params, subformula_count):
    f = parse_formula(text, TERMS)
    p = analyze(f)
    assert (p.splits, p.foralls, p.arity, p.vars, p.free_vars, p.size) == params
    assert sum(1 for _ in subformulas(f)) == subformula_count


def test_subformulas_and_subterms_are_preorder_left_first():
    f = parse_formula("exists x exists x =(;x) | forall y S(f(g(c),x))", TERMS)
    kinds = [type(g).__name__ for g in subformulas(f)]
    assert kinds == ["Or", "Exists", "Exists", "DepAtom", "Forall", "RelAtom"]
    term = f.right.body.args[0]
    inner = Func("g", (Const("c"),))
    assert list(subterms(term)) == [term, inner, Const("c"), Var("x")]
    assert term == Func("f", (inner, Var("x")))
    with pytest.raises(TypeError, match="not a formula"):
        list(subformulas(And(Var("x"), Var("y"))))


def test_cannot_quantify_declared_symbol():
    vocab = Vocabulary(relations={"R": 1}, constants={"c"})
    with pytest.raises(FormulaSyntaxError, match="declared symbol"):
        parse_formula("exists c R(c)", vocab)


def test_trailing_input_rejected():
    with pytest.raises(FormulaSyntaxError, match="after formula"):
        parse_formula("=(x;y) =(u;v)")


def test_vocabulary_rejects_overlapping_names():
    with pytest.raises(ValueError, match="more than once"):
        Vocabulary(relations={"R": 1}, functions={"R": 1})


def test_size_dominates_every_syntactic_parameter_on_random_formulas():
    rng = random.Random(4021)
    for _ in range(300):
        structure = random_structure(rng)
        f = random_formula(rng, structure, ["x", "y", "z"], depth=3)
        p = analyze(f)
        assert p.size >= max(p.splits, p.foralls, p.arity, p.vars, p.free_vars)
        assert p.free_vars <= p.vars
        assert free_variables(f) <= all_variables(f)
        assert p.size == formula_size(f)


def test_pretty_parse_round_trip_on_random_formulas():
    rng = random.Random(515)
    for _ in range(300):
        structure = random_structure(rng)
        f = random_formula(rng, structure, ["x", "y", "z"], depth=4)
        assert parse_formula(pretty(f), structure.vocabulary()) == f


@pytest.mark.parametrize(
    "text, message",
    [
        ("exists forall x = x", "expected a variable name, found 'forall' (at position 7)"),
        ("exists R R(x,x)", "cannot quantify over declared symbol 'R' (at position 7)"),
        ("x = x &", "unexpected end of input (at position 7)"),
        ("!Q(x)", "unknown relation symbol 'Q' (at position 1)"),
        ("f(x) = x", "function 'f' expects 2 arguments, got 1 (at position 0)"),
    ],
)
def test_formula_input_errors(text, message):
    assert outcome(lambda: parse_formula(text, TERMS)) == (FormulaSyntaxError, message)
