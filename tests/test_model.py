from __future__ import annotations

import collections
import functools
import random
import re

import pytest

from teamcheck import (
    Assignment,
    Structure,
    StructureError,
    Team,
    TeamError,
    parse_structure,
    parse_team,
    structure_to_text,
    team_to_text,
)
from teamcheck import model

from brute import team_file_by_lines
from conftest import outcome
from depgen import random_structure, random_team


@pytest.fixture()
def abc() -> Structure:
    return Structure(
        ["a", "b", "c"],
        relations={"E": (2, [("a", "b"), ("b", "c")])},
        functions={"f": (1, {"a": "b", "b": "c", "c": "a"})},
        constants={"one": "b"},
    )


# --- teams ---------------------------------------------------------------------

def test_restrict_to_full_domain_is_identity(abc):
    team = Team.from_named_rows(("x", "y"), [("a", "b"), ("b", "c")], abc)
    assert team.restrict(("x", "y")) == team


def test_restrict_projects_and_deduplicates(flight_instance):
    structure, team = flight_instance
    gates = team.restrict(("Gate",))
    names = {row.named(structure)["Gate"] for row in gates.assignments()}
    assert names == {"C1", "C3", "C2", "A5", "B6", "A1"}
    assert len(gates) == 6


def test_restrict_to_nothing_gives_single_empty_assignment(abc):
    team = Team.from_named_rows(("x",), [("a",), ("b",)], abc)
    assert team.restrict(()) == Team.of_empty_assignment()


def test_restrict_of_empty_team_stays_empty(abc):
    team = Team(("x",), frozenset())
    assert team.restrict(()) == Team((), frozenset())


def test_restrict_requires_subset_of_domain(abc):
    team = Team.from_named_rows(("x",), [("a",)], abc)
    with pytest.raises(TeamError, match="unknown variables"):
        team.restrict(("y",))


def test_restrict_composes(abc):
    rng = random.Random(99)
    for _ in range(100):
        team = random_team(rng, abc, ("x", "y", "z"), max_rows=6)
        assert team.restrict(("x", "y")).restrict(("x",)) == team.restrict(("x",))
        assert len(team.restrict(("x",))) <= len(team)


def test_supplement_expands_single_empty_assignment(abc):
    team = Team.of_empty_assignment()
    out = team.supplement("x", lambda row: (0, 1))
    assert out == Team(("x",), frozenset({(0,), (1,)}))


def test_supplement_with_full_universe_equals_duplicate(abc):
    team = Team.from_named_rows(("x",), [("a",), ("b",)], abc)
    everything = tuple(range(abc.size))
    assert team.supplement("y", lambda row: everything) == team.duplicate("y", abc)


def test_supplement_singleton_valued_does_not_grow(abc):
    rng = random.Random(7)
    for _ in range(50):
        team = random_team(rng, abc, ("x", "y"), max_rows=5)
        out = team.supplement("z", lambda row: (row["x"],))
        assert len(out) <= len(team)
        if team.rows:
            assert len(out) >= 1


def test_supplement_with_fresh_variable_never_shrinks(abc):
    rng = random.Random(13)
    for _ in range(50):
        team = random_team(rng, abc, ("x", "y"), max_rows=5)
        choices = {
            a: tuple(sorted(rng.sample(range(abc.size), rng.randint(1, abc.size))))
            for a in team.assignments()
        }
        out = team.supplement("z", choices)
        assert len(team) <= len(out) <= sum(len(v) for v in choices.values())


def test_supplement_overwrites_requantified_variable(abc):
    team = Team.from_named_rows(("x", "y"), [("a", "b")], abc)
    out = team.supplement("x", lambda row: (abc.element_index("c"),))
    assert out.domain == ("x", "y")
    assert out == Team.from_named_rows(("x", "y"), [("c", "b")], abc)


def test_supplement_rejects_empty_choice_sets(abc):
    team = Team.from_named_rows(("x",), [("a",)], abc)
    with pytest.raises(TeamError, match="empty set"):
        team.supplement("y", lambda row: ())


def test_supplement_mapping_must_cover_every_row(abc):
    team = Team.from_named_rows(("x",), [("a",), ("b",)], abc)
    only_a = {Assignment(("x",), (abc.element_index("a"),)): (0,)}
    with pytest.raises(TeamError, match="undefined"):
        team.supplement("y", only_a)


def test_duplicate_of_single_empty_assignment():
    two = Structure(["0", "1"])
    out = Team.of_empty_assignment().duplicate("x", two)
    assert len(out) == 2


def test_duplicate_of_empty_team_is_empty(abc):
    assert Team(("x",), frozenset()).duplicate("y", abc) == Team(("x", "y"), frozenset())


def test_duplicate_row_count_is_product(abc):
    team = Team.from_named_rows(("x",), [("a",), ("b",)], abc)
    assert len(team.duplicate("y", abc)) == 6


def test_team_size_bounded_by_universe_power():
    rng = random.Random(31)
    for _ in range(100):
        structure = random_structure(rng)
        domain = ("x", "y")[: rng.randint(1, 2)]
        team = random_team(rng, structure, domain, max_rows=9)
        assert len(team) <= structure.size ** len(domain)


def test_empty_team_and_unit_team_are_distinct():
    assert Team((), frozenset()) != Team.of_empty_assignment()
    assert len(Team((), frozenset())) == 0
    assert len(Team.of_empty_assignment()) == 1


def test_team_rejects_ragged_rows():
    with pytest.raises(TeamError, match="domain width"):
        Team(("x", "y"), frozenset({(0,)}))


def test_team_rejects_duplicate_domain():
    with pytest.raises(TeamError, match="duplicate"):
        Team(("x", "x"), frozenset())


# --- structure validation ---------------------------------------------------------

def test_structure_requires_nonempty_universe():
    with pytest.raises(StructureError, match="nonempty"):
        Structure([])


def test_structure_rejects_duplicate_elements():
    with pytest.raises(StructureError, match="duplicate"):
        Structure(["a", "a"])


def test_structure_rejects_arity_mismatch():
    with pytest.raises(StructureError, match="arity"):
        Structure(["a"], relations={"R": (2, [("a",)])})


def test_structure_rejects_partial_function():
    with pytest.raises(StructureError, match="not total"):
        Structure(["a", "b"], functions={"f": (1, {"a": "b"})})


def test_structure_rejects_unknown_elements():
    with pytest.raises(StructureError, match="not in the universe"):
        Structure(["a"], constants={"c": "z"})


# --- file formats ---------------------------------------------------------------

STRUCTURE_TEXT = """\
# comment line
universe: a b c
relation E/2: (a,b) (b,c)
function f/1: a->b b->c c->a
constant one = b
"""


def test_parse_structure_round_trip():
    structure = parse_structure(STRUCTURE_TEXT)
    assert structure.universe == ("a", "b", "c")
    assert structure.relations["E"] == frozenset({(0, 1), (1, 2)})
    assert structure.functions["f"][(2,)] == 0
    assert structure.constants["one"] == 1
    again = parse_structure(structure_to_text(structure))
    assert again.universe == structure.universe
    assert again.relations == structure.relations
    assert again.functions == structure.functions
    assert again.constants == structure.constants


def test_parse_structure_binary_function():
    text = "universe: a b\nfunction g/2: (a,a)->a (a,b)->b (b,a)->b (b,b)->a\n"
    structure = parse_structure(text)
    assert structure.functions["g"][(0, 1)] == 1
    assert parse_structure(structure_to_text(structure)).functions == structure.functions


def test_parse_structure_requires_universe():
    with pytest.raises(StructureError, match="universe"):
        parse_structure("relation R/1: (a)\n")


def test_parse_structure_rejects_stray_text():
    with pytest.raises(StructureError, match="stray"):
        parse_structure("universe: a\nrelation R/1: (a) junk\n")


@pytest.mark.parametrize(
    "declaration, name",
    [("relation R/0: ()", "R"), ("function f/0:", "f"), ("relation R/0:", "R")],
)
def test_parse_structure_rejects_arity_zero_at_its_line(declaration, name):
    # the vocabulary's arity rule, at the declaration, whatever its tuples
    message = f"line 2: symbol {name!r} must have arity >= 1, got 0"
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        parse_structure(f"universe: a b\n{declaration}\n")


@pytest.mark.parametrize(
    "tuples, message",
    [
        ("(a,b) (a,zz) (a)", "element 'zz' is not in the universe"),
        ("(a) (a,zz)", "relation 'R' tuple ('a',) does not have arity 2"),
    ],
)
def test_first_bad_relation_tuple_is_named(tuples, message):
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        parse_structure(f"universe: a b\nrelation R/2: {tuples}\n")
    rows = [tuple(group.split(",")) for group in re.findall(r"\(([^()]*)\)", tuples)]
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        Structure(["a", "b"], relations={"R": (2, rows)})


def test_relation_tables_match_a_tuple_by_tuple_reading():
    # random tables, some with a tuple of the wrong arity or a value outside
    # the universe, and white space around some values: a good table loads
    # as read tuple by tuple, and a bad one names its first bad tuple
    rng = random.Random(17)
    universe = ["a", "b", "c"]
    index = {name: i for i, name in enumerate(universe)}
    outcomes = collections.Counter()
    for _ in range(400):
        arity = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(0, 6)):
            width = arity if rng.random() < 0.9 else rng.choice([1, 2, 3, 4])
            rows.append(tuple(rng.choice(universe + ["zz"] * (rng.random() < 0.1))
                              for _ in range(width)))
        expected = None
        for row in rows:
            if len(row) != arity:
                expected = f"relation 'R' tuple {row!r} does not have arity {arity}"
            elif "zz" in row:
                expected = "element 'zz' is not in the universe"
            if expected:
                break
        spaced = " ".join(
            "(" + ",".join(rng.choice(["", " "]) + v + rng.choice(["", "\t"]) for v in row) + ")"
            for row in rows
        )
        text = f"universe: a b c\nrelation R/{arity}: {spaced}\n"
        for load in (lambda: parse_structure(text),
                     lambda: Structure(universe, relations={"R": (arity, iter(rows))})):
            if expected is None:
                table = {tuple(index[v] for v in row) for row in rows}
                assert load().relations["R"] == table
            else:
                with pytest.raises(StructureError, match=f"^{re.escape(expected)}$"):
                    load()
        outcomes[expected is None, "zz" in (expected or "")] += 1
    assert len(outcomes) == 3 and min(outcomes.values()) >= 30


@pytest.mark.parametrize(
    "first, second, kind",
    [
        ("relation R/1: (a)", "relation R/1: (b)", "relation 'R'"),
        ("function f/1: a->a b->b", "function f/1: a->b b->a", "function 'f'"),
        ("constant c = a", "constant c = b", "constant 'c'"),
    ],
)
def test_parse_structure_rejects_duplicate_declarations(first, second, kind):
    text = f"universe: a b\n{first}\n{second}\n"
    with pytest.raises(StructureError, match=f"line 3: duplicate {kind}"):
        parse_structure(text)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "universe: a b c\nfunction f/1: a->b a->c b->a c->a\n",
            r"line 2: function 'f' maps \('a',\) to both 'b' and 'c'",
        ),
        (
            "universe: a b\nfunction g/2: (a,a)->a (a,b)->b (b,a)->b (b,b)->a (a, b)->a\n",
            r"line 2: function 'g' maps \('a', 'b'\) to both 'b' and 'a'",
        ),
    ],
    ids=["unary", "binary"],
)
def test_parse_structure_rejects_conflicting_function_entries(text, message):
    with pytest.raises(StructureError, match=message):
        parse_structure(text)


def test_parse_structure_accepts_repeated_function_entry():
    structure = parse_structure("universe: a b\nfunction f/1: a->b b->a a->b\n")
    assert structure.functions["f"] == {(0,): 1, (1,): 0}


def test_parse_structure_rejects_unknown_directive():
    with pytest.raises(StructureError, match="unrecognized"):
        parse_structure("universe: a\npredicate R/1: (a)\n")


@pytest.mark.parametrize(
    "line", ["universe a b", "relation R/1 (a)", "function f/1 a->b b->a"]
)
def test_parse_structure_names_a_directive_missing_its_colon(line):
    message = f"line 1: directive {line.split()[0]!r} is missing its ':'"
    assert outcome(lambda: parse_structure(line + "\n")) == (StructureError, message)


@pytest.mark.parametrize(
    "text, message",
    [
        ("universe x: a\n", "line 1: bad universe line 'universe x'"),
        ("universe: a\nconstant: c = a\n", "line 2: bad constant declaration"),
        ("universe: a\nrelation: (a)\n", "line 2: bad relation declaration 'relation'"),
        ("universe: a\nfunction:f/1: a->a\n", "line 2: bad function declaration 'function'"),
        ("universe: a\npredicate: p\n", "line 2: unrecognized directive 'predicate'"),
    ],
    ids=["universe", "constant", "relation", "function", "unrecognized"],
)
def test_parse_structure_names_a_directive_with_text_at_its_colon(text, message):
    # the directive is the first word up to white space or ':', so text
    # between it and its ':' (or a ':' glued to it) is an error of that directive
    assert outcome(lambda: parse_structure(text)) == (StructureError, message)


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(
            lambda: Structure(["a"], functions={"f": (2, {"a": "a"})}),
            (StructureError, "function 'f' entry ('a',) does not have arity 2"),
            id="function-entry-arity",
        ),
        pytest.param(
            lambda: Structure(["a"], relations={"R": (1, [])}, constants={"R": "a"}),
            (StructureError, "symbol 'R' declared more than once"),
            id="relation-and-constant-share-a-name",
        ),
        pytest.param(
            lambda: Assignment(("x",), (0,))["y"],
            (TeamError, "variable 'y' is not bound by this assignment"),
            id="unbound-variable",
        ),
        pytest.param(
            lambda: parse_structure("universe: a\nrelation R: (a)\n"),
            (StructureError, "line 2: bad relation declaration 'relation R'"),
            id="relation-without-arity",
        ),
        # an arity is ASCII digits; int() alone reads other scripts' digits
        pytest.param(
            lambda: parse_structure("universe: a\nrelation R/\uff11: (a)\n"),
            (StructureError, "line 2: bad relation declaration 'relation R/\uff11'"),
            id="arity-fullwidth-digit",
        ),
        pytest.param(
            lambda: parse_structure("universe: a\nrelation R/\u0661: (a)\n"),
            (StructureError, "line 2: bad relation declaration 'relation R/\u0661'"),
            id="arity-arabic-indic-digit",
        ),
        pytest.param(
            lambda: parse_structure("universe: a\nuniverse: b\n"),
            (StructureError, "line 2: duplicate universe line"),
            id="second-universe",
        ),
        pytest.param(
            lambda: parse_structure("universe: a\nfunction f/1: a->a b\n"),
            (StructureError, "line 2: stray text in function entries"),
            id="stray-function-text",
        ),
        pytest.param(
            lambda: parse_structure("universe: a\nconstant c a\n"),
            (StructureError, "line 2: bad constant declaration"),
            id="constant-without-equals",
        ),
    ],
)
def test_structure_input_errors(call, expected):
    assert outcome(call) == expected


def test_parse_team_round_trip(flight_instance):
    structure, team = flight_instance
    assert len(team) == 8
    assert team.domain == ("Flight", "Destination", "Gate", "Date", "Time")
    again = parse_team(team_to_text(team, structure), structure)
    assert again == team


def test_parse_team_header_only_is_empty_team(abc):
    team = parse_team("x y\n", abc)
    assert team.domain == ("x", "y")
    assert team.is_empty()


def test_parse_team_rejects_ragged_rows(abc):
    with pytest.raises(TeamError, match="expected 2"):
        parse_team("x y\na\n", abc)


def test_parse_team_rejects_unknown_values(abc):
    with pytest.raises(TeamError, match="not in the universe"):
        parse_team("x\nzz\n", abc)


def test_parse_team_equals_named_rows_on_a_generated_team():
    rng = random.Random(77)
    structure = Structure([f"e{i}" for i in range(9)])
    domain = ("w", "x", "y", "z")
    rows = [tuple(rng.choice(structure.universe) for _ in domain) for _ in range(2000)]
    lines = [" ".join(domain) + "  # header"]
    for i, row in enumerate(rows):
        lines.append(" ".join(row) if i % 97 else "\t" + "  ".join(row) + " # note")
        if i % 250 == 0:
            lines.append("")
    team = parse_team("\n".join(lines) + "\n", structure)
    assert team == Team.from_named_rows(domain, rows, structure)
    assert team.rows == {tuple(map(structure.element_index, row)) for row in rows}
    assert len(team) == len(set(rows)) < 2000


@pytest.mark.parametrize(
    "rows, message",
    [
        (["a b", "zz a", "a"], "element 'zz' is not in the universe"),
        (["a b", "a", "zz a"], "line 3: row has 1 values, expected 2"),
    ],
    ids=["unknown-first", "ragged-first"],
)
def test_parse_team_reports_the_first_bad_row(abc, rows, message):
    text = "x y\n" + "\n".join(rows) + "\n"
    with pytest.raises(TeamError) as info:
        parse_team(text, abc)
    assert str(info.value) == message


def test_parse_team_deduplicates_rows(abc):
    team = parse_team("x\na\na\nb\n", abc)
    assert len(team) == 2


def test_empty_domain_team_round_trips_via_dash_marker(abc):
    unit = Team.of_empty_assignment()
    text = team_to_text(unit, abc)
    assert text == "-\n-\n"
    assert parse_team(text, abc) == unit
    assert parse_team("-\n", abc) == Team((), frozenset())


def test_writers_refuse_names_that_would_not_read_back():
    structure = Structure(["a", "a#b"])
    with pytest.raises(TeamError, match="'a#b' cannot be written"):
        team_to_text(Team.from_named_rows(("x",), [("a#b",)], structure), structure)
    with pytest.raises(TeamError, match="one variable '-'"):
        team_to_text(Team(("-",), frozenset({(0,)})), structure)
    with pytest.raises(StructureError, match="'a#b' cannot be written"):
        structure_to_text(structure)


def test_writers_raise_or_round_trip():
    rng = random.Random(23)
    alphabet, weights = "ab-># (),\t", [24] * 4 + [1] * 6

    def names(low):
        drawn = ("".join(rng.choices(alphabet, weights, k=rng.randint(0, 3))) for _ in range(5))
        return list(dict.fromkeys(drawn))[: rng.randint(low, 4)]

    outcomes = {"structure": collections.Counter(), "team": collections.Counter()}
    for _ in range(600):
        universe = names(1)
        pick = functools.partial(rng.choice, universe)
        structure = Structure(
            universe,
            relations={"E": (2, [(pick(), pick()) for _ in range(rng.randint(0, 3))])},
            functions={
                "f": (1, {u: pick() for u in universe}),
                "g": (2, {(u, v): pick() for u in universe for v in universe}),
            },
            constants={"c": pick()},
        )
        try:
            text = structure_to_text(structure)
        except StructureError:
            outcomes["structure"]["raised"] += 1
        else:
            again = parse_structure(text)
            for field in ("universe", "relations", "functions", "constants"):
                assert getattr(again, field) == getattr(structure, field), repr(text)
            outcomes["structure"]["read back"] += 1
        domain = tuple(names(0))
        team = Team(domain, frozenset(
            tuple(rng.randrange(len(universe)) for _ in domain) for _ in range(rng.randint(0, 3))
        ))
        try:
            text = team_to_text(team, structure)
        except TeamError:
            outcomes["team"]["raised"] += 1
        else:
            assert parse_team(text, structure) == team, repr(text)
            outcomes["team"]["read back"] += 1
    assert min(min(counts.values()) for counts in outcomes.values()) >= 100, outcomes


# --- the team loader ---------------------------------------------------------------
#
# parse_team reads every valid text with C-level iterators and calls
# _content_lines only to name the first bad row of a bad text.  The oracle is
# brute.team_file_by_lines, a literal line-by-line reader of the documented
# format.  Each corpus text is also read with a comment line or a blank line
# on top, and with PER_LINE appended, which must change nothing else.

PER_LINE = "\n# per-line\n"


def _team_or_error(text, structure):
    try:
        return parse_team(text, structure)
    except TeamError as exc:
        return str(exc)


def _refuse_line_by_line(text):
    raise AssertionError("parse_team read the text line by line")


def _loader_corpus(abc):
    rng = random.Random(11)
    for _ in range(200):
        structure = random_structure(rng)
        domain = tuple(rng.sample(("u", "v", "w", "x", "y"), rng.randint(0, 3)))
        team = random_team(rng, structure, domain, max_rows=8)
        yield structure, team_to_text(team, structure)
    for text in [
        "",
        "\n\n",
        " \t \n",
        "x y\n",
        "x y",
        "\nx y\na b\n",
        "  x\ty  \n a   b \n",
        "x y\n\n   \na b\n\t\nc a\n\n",
        "x y\r\na b\r\n\r\nb c\r\n",
        "x y\ra b\rb c\r",
        "x y\x0ca b\x0c\x0cb c\n",
        "x y\x1ca b\x85b c c a\n",
        "x y\na\xa0b\n",
        "x y z\na b c\nb c\n",
        "x y z\na b\nc a b c\n",
        "x y\nzz a\na\n",
        "x y\na\nzz a\n",
        "x y\na b\nb zz\n",
        "x x\na b\n",
        "x y x\na b c\n",
        "-\n-\n",
        "-\n-\n-\n",
        "-\n",
        "-\na\n",
        " - \n - \n",
        "- x\na b\n",
        "x\n-\n",
        # comments and blank lines
        "#\n# only comments\n",
        "x y\na b\n# note\n#\n  # indented note\nb c\n",
        "x y # the header\na b\n",
        "x y#\na b\n",
        "\n  \n# exported\n\t\n# again\nx y\na b\n",
        "x y\na b#c\n",
        "-#x\n",
        "-#x\n-#x\n",
        "-\n\n# unit\n - # the empty assignment\n",
        "-#x\na#x\n",
        "x\n-#x\n",
        "x y\n# note\na b\nc\n",
        "x y\na b\n# note\nzz a # bad\n",
        "# top\r\nx y # header\r\na b # row\r\n\r\n# note\r\nb c\r\n",
        "# top\r\nx y\r\na b # row\r\nc # short\r\n",
        # a comment line between a '\r' and a '\n' keeps its own line number
        "x y\r# note\na b\r#\nb c\n",
        "x y\r# note\na b\r#\nc\n",
        "x y # h\u2028a b #r\u2029b c#\x1dc a\x1e#\x85a\n",
        "x\x0b# v\x0ca #f\x1cb\x1fc\n",
    ]:
        yield abc, text
    # '#' starts a comment even where the universe has names that hold it
    hashes = Structure(["a", "b", "#", "a#b"])
    for text in ["x y\n# a\na b\n", "x\na#b\n", "x y\na b # b\n"]:
        yield hashes, text


def test_bulk_team_loader_agrees_with_the_line_by_line_path(abc, monkeypatch):
    loaded = 0
    for structure, text in _loader_corpus(abc):
        for variant in (text, "# exported\n" + text, "\n" + text, text + PER_LINE):
            expected = team_file_by_lines(variant, structure)
            assert _team_or_error(variant, structure) == expected, repr(variant)
            if isinstance(expected, Team):
                with monkeypatch.context() as patch:
                    patch.setattr(model, "_content_lines", _refuse_line_by_line)
                    assert parse_team(variant, structure) == expected, repr(variant)
                loaded += bool(expected.domain)
    assert loaded >= 600


def test_bulk_team_loader_reads_without_the_line_by_line_path(monkeypatch):
    structure = Structure([f"e{i:03d}" for i in range(240)])
    rng = random.Random(5)
    domain = ("x", "y", "z")
    rows = frozenset(tuple(rng.randrange(240) for _ in domain) for _ in range(20_000))
    team = Team(domain, rows)
    canonical = team_to_text(team, structure)
    spaced = canonical.replace("\n", "\n\n  \t\n").replace(" ", "\t ")
    header, *lines = canonical.splitlines()
    commented = "\n \n# exported rows\n" + header + "  # the variables\n" + "".join(
        line + (" # note\n" if i % 3 else "\n# every third row\n") for i, line in enumerate(lines)
    )

    monkeypatch.setattr(model, "_content_lines", _refuse_line_by_line)
    for text in (canonical, spaced, commented, canonical + PER_LINE):
        assert parse_team(text, structure) == team
    for bad_row in ("e000 e001", "e000 e001 zz"):
        with pytest.raises(AssertionError, match="read the text line by line"):
            parse_team(commented + bad_row + "\n", structure)


# The bulk loader splits the body model._BLOCK lines at a time, from the line
# after the header.  Each of these lines goes on the last line of one block
# and on the first line of the next; the last two must leave the bulk path.
BOUNDARY_LINES = {
    "comment-only line": ("  # a note", True),
    "blank line": (" \t", True),
    "ragged row": ("e1 e2", False),
    "unknown element": ("e1 zz e2", False),
}
BLOCK = model._BLOCK


@pytest.mark.parametrize("body", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_bulk_team_loader_block_boundaries(body, monkeypatch):
    structure = Structure([f"e{i}" for i in range(9)])
    rng = random.Random(body)
    rows = [" ".join(f"e{rng.randrange(9)}" for _ in range(3)) for _ in range(body)]
    places = {BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK, body - 1} & set(range(body))
    cases = [(rows, True)]
    for special, valid in BOUNDARY_LINES.values():
        cases += [(rows[:at] + [special] + rows[at + 1:], valid) for at in sorted(places)]
    if body > BLOCK:  # a bad row on each side of a boundary: the first is named
        for pair in (["e1 e2", "e1 zz e2"], ["e1 zz e2", "e1 e2"]):
            cases.append((rows[:BLOCK - 1] + pair + rows[BLOCK + 1:], False))
    for header in ("x y z\n", "# exported\n\nx y z # the variables\n"):
        for lines, valid in cases:
            text = header + "\n".join(lines) + "\n"
            expected = team_file_by_lines(text, structure)
            assert isinstance(expected, Team) == valid, expected
            assert _team_or_error(text, structure) == expected
            if valid:
                with monkeypatch.context() as patch:
                    patch.setattr(model, "_content_lines", _refuse_line_by_line)
                    assert parse_team(text, structure) == expected
