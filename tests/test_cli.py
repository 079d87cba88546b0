from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from teamcheck import (
    Structure, Team, cli, parse_formula, pretty, structure_to_text, team_to_text,
)

from conftest import DATA, SRC, cyclic_garbage, outcome


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def flight_files(tmp_path):
    def formula_file(text: str) -> str:
        return write(tmp_path / "query.formula", text + "\n")

    return str(DATA / "flights.structure"), str(DATA / "flights.team"), formula_file


# --- check -------------------------------------------------------------------

def test_check_satisfied_exits_zero(flight_files, capsys):
    structure, team, formula_file = flight_files
    rc = run_cli("check", structure, team, formula_file("=(Flight,Date,Time;Destination,Gate)"))
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "SAT"
    assert out[1] == "engine=optimized"
    assert out[2].startswith("expansions=")


def test_check_unsatisfied_exits_one_with_witness(flight_files, capsys):
    structure, team, formula_file = flight_files
    rc = run_cli("check", structure, team, formula_file("=(Destination,Gate;Time)"))
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("UNSAT\n")
    lines = dict(
        line.split("=", 1) for line in out.splitlines() if line.startswith("witness_row")
    )
    assert len(lines) == 2
    flights = {line.split()[0] for line in lines.values()}
    assert flights == {"FIN-70", "FIN-80"}


def test_check_engine_flag(flight_files, capsys):
    structure, team, formula_file = flight_files
    rc = run_cli(
        "check", structure, team,
        formula_file("=(Flight,Date,Time;Destination,Gate)"),
        "--engine", "naive",
    )
    assert rc == 0
    assert "engine=naive" in capsys.readouterr().out


def test_check_unknown_symbol_exits_two(flight_files, capsys):
    structure, team, formula_file = flight_files
    rc = run_cli("check", structure, team, formula_file("Q(Flight)"))
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err


def test_check_budget_exceeded_exits_three(tmp_path, capsys):
    structure = write(tmp_path / "s", "universe: a b\nrelation R/1:\n")
    team = write(tmp_path / "t", "x\na\nb\n")
    formula = write(tmp_path / "f", "R(x) | R(x)\n")
    rc = run_cli("check", structure, team, formula, "--engine", "opt", "--budget", "2")
    captured = capsys.readouterr()
    assert rc == 3
    assert "budget" in captured.err


def test_negative_budget_exits_two(tmp_path, capsys):
    structure = write(tmp_path / "s", "universe: a b\nrelation R/1:\n")
    team = write(tmp_path / "t", "x\na\nb\n")
    formula = write(tmp_path / "f", "R(x) | R(x)\n")
    for argv in (
        ("check", structure, team, formula, "--engine", "opt", "--budget", "-1"),
        ("bench", "--family", "splits", "--range", "0..2", "--budget", "-5"),
    ):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --budget must be 0")


@pytest.mark.parametrize(
    "role, content, message",
    [
        ("structure", "universe: a b\nrelation R/1: (a) junk\n", "stray text"),
        ("team", "x\nz\n", "element 'z' is not in the universe"),
        ("formula", "R(x\n", "unexpected end of input"),
        ("team", b"x\n\xff\xfe\n", "can't decode"),
        ("structure", None, "No such file"),
        ("structure", "universe: a b\nrelation R/0: ()\n", "line 2: symbol 'R' must have arity"),
        ("structure", "universe: a b\nfunction f/0:\n", "line 2: symbol 'f' must have arity"),
    ],
    ids=[
        "bad-structure", "unknown-element", "formula-syntax", "non-utf8-team", "missing-file",
        "arity-zero-relation", "arity-zero-function",
    ],
)
def test_input_errors_exit_two(tmp_path, capsys, role, content, message):
    files = {
        "structure": "universe: a b\nrelation R/1: (a)\n",
        "team": "x\na\n",
        "formula": "R(x)\n",
    }
    files[role] = content
    paths = {}
    for name, data in files.items():
        path = tmp_path / name
        if data is not None:
            path.write_bytes(data if isinstance(data, bytes) else data.encode())
        paths[name] = str(path)
    for command in ("check", "params"):
        rc = run_cli(command, paths["structure"], paths["team"], paths["formula"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert message in captured.err


@pytest.mark.parametrize("given", ["./nope//t", ""], ids=["dot-and-double-slash", "empty"])
def test_read_errors_name_the_path_as_given(tmp_path, monkeypatch, capsys, given):
    # a pathlib.Path would report 'nope/t', and read '' as the directory '.'
    monkeypatch.chdir(tmp_path)
    team = write(tmp_path / "team", "x\na\n")
    formula = write(tmp_path / "formula", "x = x\n")
    for argv in (
        ("check", given, team, formula),
        ("params", given, team, formula),
        ("reduce", "3sat", given, "out"),
        ("reduce", "pdl", given, "out"),
    ):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: {given!r}\n"


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_and_byte_order_mark_read_like_plain_lf(tmp_path, capsys, newline):
    texts = {
        "structure": (DATA / "flights.structure").read_text(encoding="utf-8"),
        "team": (DATA / "flights.team").read_text(encoding="utf-8"),
        "sat": "=(Flight,Date,Time;Destination,Gate)\n",
        "unsat": "=(Destination,Gate;Time)\n",
        # the error's position counts one character per line end
        "bad": "=(Flight;Gate) &\n=(Gate;Date) =(Date;Time)\n",
    }

    def outputs(tag: str, encode) -> list:
        paths = {}
        for name, text in texts.items():
            paths[name] = tmp_path / f"{name}.{tag}"
            paths[name].write_bytes(encode(text))
        files = [str(paths[name]) for name in ("structure", "team")]
        seen = []
        for command, formula in (("check", "sat"), ("check", "unsat"), ("params", "sat"),
                                 ("check", "bad"), ("params", "bad")):
            rc = run_cli(command, *files, str(paths[formula]))
            seen.append((rc, capsys.readouterr()))
        return seen

    expected = outputs("lf", str.encode)
    assert [rc for rc, _ in expected] == [0, 1, 0, 2, 2]
    assert "witness_row1=" in expected[1][1].out
    assert "(at position 30)" in expected[3][1].err
    bom = b"\xef\xbb\xbf"
    assert outputs("bom", lambda text: bom + text.replace("\n", newline).encode()) == expected


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    bom = b"\xef\xbb\xbf"
    plain = {
        "structure": (DATA / "flights.structure").read_bytes(),
        "team": (DATA / "flights.team").read_bytes(),
        "sat": b"=(Flight,Date,Time;Destination,Gate)\n",
        "unsat": b"=(Destination,Gate;Time)\n",
        "cnf": b"p cnf 2 2\n1 2 2 0\n-1 -2 -2 0\n",
        "pdl": b"=(p1;p2) | p1\n",
    }

    def outputs(prefix: bytes) -> list:
        paths = {}
        for name, data in plain.items():
            paths[name] = tmp_path / f"{name}.{len(prefix)}"
            paths[name].write_bytes(prefix + data)
        files = [str(paths[name]) for name in ("structure", "team")]
        seen = []
        for argv in (
            ("check", *files, str(paths["sat"])),
            ("check", *files, str(paths["unsat"])),
            ("params", *files, str(paths["sat"])),
        ):
            rc = run_cli(*argv)
            seen.append((rc, capsys.readouterr()))
        for kind, source in (("3sat", "cnf"), ("pdl", "pdl")):
            out = tmp_path / f"{kind}-{len(prefix)}"
            assert run_cli("reduce", kind, str(paths[source]), str(out)) == 0
            capsys.readouterr()
            seen.append([out.with_suffix(s).read_bytes() for s in (".structure", ".team", ".formula")])
        return seen

    expected = outputs(b"")
    assert [rc for rc, _ in expected[:3]] == [0, 1, 0]
    assert "witness_row1=" in expected[1][1].out
    assert outputs(bom) == expected


def test_commented_team_file_reads_like_the_plain_one(tmp_path, capsys):
    structure = str(DATA / "flights.structure")
    commented = (DATA / "flights.team").read_text(encoding="utf-8")
    assert commented.startswith("\n\n#") and " # " in commented.splitlines()[-1]
    contents = [line.partition("#")[0].strip() for line in commented.splitlines()]
    plain = write(tmp_path / "plain.team", "\n".join(filter(None, contents)) + "\n")
    sat = write(tmp_path / "sat.formula", "=(Flight,Date,Time;Destination,Gate)\n")
    unsat = write(tmp_path / "unsat.formula", "=(Destination,Gate;Time)\n")

    def outputs(team):
        seen = []
        for command, formula in (("check", sat), ("check", unsat), ("params", sat)):
            rc = run_cli(command, structure, team, formula)
            seen.append((rc, capsys.readouterr()))
        return seen

    expected = outputs(plain)
    assert [rc for rc, _ in expected] == [0, 1, 0]
    assert "witness_row2=FIN-80 HEL-FI C1 04.10.2021 19:55\n" in expected[1][1].out
    assert outputs(str(DATA / "flights.team")) == expected

    lines = commented.splitlines()
    lines.insert(6, "SAS-477 HAJ-DE C2  # a short row")
    ragged = write(tmp_path / "ragged.team", "\n".join(lines) + "\n")
    for command in ("check", "params"):
        assert run_cli(command, structure, ragged, sat) == 2
        assert capsys.readouterr().err == "error: line 7: row has 3 values, expected 5\n"


@pytest.mark.parametrize(
    "text",
    [
        " | ".join(["R(x)"] * 2000),
        "(" * 3000 + "R(x)" + ")" * 3000,
        "".join(f"exists y{i} " for i in range(1500)) + "R(x)",
    ],
    ids=["split-2000", "parens-3000", "exists-1500"],
)
def test_check_deep_formula_exits_two(tmp_path, capsys, text):
    structure = write(tmp_path / "s", "universe: a b\nrelation R/1: (a)\n")
    team = write(tmp_path / "t", "x\na\n")
    formula = write(tmp_path / "f", text + "\n")
    for command in ("check", "params"):
        rc = run_cli(command, structure, team, formula)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: formula is nested too deeply\n"


@pytest.mark.parametrize(
    "text",
    [
        "".join(f"exists y{i} " for i in range(400)) + "R(x)",
        # one requantified variable, since distinct ones give `opt` 2^depth rows
        "forall y " * 300 + "R(x)",
        " & ".join(["R(x)"] * 450),
        "forall y " * 450 + "R(x)",
    ],
    ids=["exists-400", "forall-300", "and-450", "forall-450"],
)
def test_check_deep_quantifier_chain_agrees_with_opt(tmp_path, capsys, text):
    structure = write(tmp_path / "s", "universe: a b\nrelation R/1: (a)\n")
    team = write(tmp_path / "t", "x\na\n")
    formula = write(tmp_path / "f", text + "\n")
    verdicts = []
    for engine in ("auto", "opt"):
        rc = run_cli("check", "--engine", engine, structure, team, formula)
        captured = capsys.readouterr()
        verdicts.append((rc, captured.out.splitlines()[:1], captured.err))
    assert verdicts[0] == verdicts[1] == (0, ["SAT"], "")


# --- params ------------------------------------------------------------------

def test_params_on_reduced_instance(tmp_path, capsys):
    dimacs = write(tmp_path / "in.cnf", "p cnf 4 4\n1 2 3 0\n-1 2 4 0\n-2 -3 -4 0\n1 -2 3 0\n")
    prefix = str(tmp_path / "out")
    assert run_cli("reduce", "3sat", dimacs, prefix) == 0
    capsys.readouterr()
    rc = run_cli("params", f"{prefix}.structure", f"{prefix}.team", f"{prefix}.formula")
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out == [
        "splits=2",
        "foralls=0",
        "arity=1",
        "vars=4",
        "free_vars=4",
        "size=11",
        "structure_size=9",
        "team_size=12",
        "treewidth=0(exact)",
    ]


def test_params_departures_treewidth(tmp_path, capsys):
    structure = str(DATA / "depsmall.structure")
    team = write(tmp_path / "t", "x y\nF7 C1\n")
    formula = write(tmp_path / "f", "=(x;y)\n")
    rc = run_cli("params", structure, team, formula)
    out = capsys.readouterr().out
    assert rc == 0
    assert "treewidth=2(exact)" in out


def test_params_sentence_has_no_free_variables(tmp_path, capsys):
    structure = write(tmp_path / "s", "universe: a b\nrelation E/2: (a,b)\n")
    team = write(tmp_path / "t", "x\na\n")
    formula = write(tmp_path / "f", "forall x exists y E(x,y)\n")
    rc = run_cli("params", structure, team, formula)
    out = capsys.readouterr().out
    assert rc == 0
    assert "free_vars=0" in out
    assert "foralls=1" in out


def grid_structure(path: Path, rows: int, cols: int) -> str:
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    names = {cell: f"v{cell[0]}_{cell[1]}" for cell in cells}
    pairs = [(cell, (cell[0] + 1, cell[1])) for cell in cells if cell[0] + 1 < rows]
    pairs += [(cell, (cell[0], cell[1] + 1)) for cell in cells if cell[1] + 1 < cols]
    tuples = " ".join(f"({names[a]},{names[b]})" for a, b in pairs)
    return write(path, f"universe: {' '.join(names.values())}\nrelation E/2: {tuples}\n")


@pytest.mark.parametrize(
    "rows, cols, expected",
    [(4, 5, "treewidth=4(exact)"), (3, 7, "treewidth=3(upper-bound)")],
)
def test_params_treewidth_tag_follows_the_vertex_limit(tmp_path, capsys, rows, cols, expected):
    # 20 vertices get the exact treewidth; 21 get the min-fill upper bound
    structure = grid_structure(tmp_path / "s", rows, cols)
    team = write(tmp_path / "t", "x\nv0_0\n")
    formula = write(tmp_path / "f", "exists y E(x,y)\n")
    rc = run_cli("params", structure, team, formula)
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert f"structure_size={rows * cols}" in out
    assert out[-1] == expected


def params_corpus():
    """300 seeded structures of 1 to 24 elements with one to three random
    relations of arity 1 to 3, each with a team over x and a formula."""
    rng = random.Random(2024)
    for _ in range(300):
        size = rng.randint(1, 24)
        universe = [f"e{i}" for i in range(size)]
        relations = {}
        for r in range(rng.randint(1, 3)):
            arity = rng.randint(1, 3)
            count = rng.randint(0, 3 * size // arity + 1)
            rows = [tuple(rng.choice(universe) for _ in range(arity)) for _ in range(count)]
            relations[f"R{r}"] = (arity, rows)
        structure = Structure(universe, relations)
        team = Team(("x",), frozenset((rng.randrange(size),) for _ in range(rng.randint(0, 4))))
        args = ",".join(["x"] + ["y"] * (relations["R0"][0] - 1))
        formula = parse_formula(f"exists y (R0({args}) | =(x;y))", structure.vocabulary())
        yield structure, team, formula


def test_params_pinned_on_random_structures():
    # every line of every report, exact treewidth up to 20 elements and the
    # min-fill bound above; a refactor of the treewidth code must keep each
    reports = [cli.build_report(*case).lines() for case in params_corpus()]
    assert len(reports) == 300
    assert hashlib.sha256(repr(reports).encode()).hexdigest()[:16] == "7fcee7f7d8de1b7c"


# --- reduce ------------------------------------------------------------------

def test_reduce_single_clause_team_file(tmp_path, capsys):
    dimacs = write(tmp_path / "one.cnf", "p cnf 3 1\n1 -2 -3 0\n")
    prefix = str(tmp_path / "inst")
    rc = run_cli("reduce", "3sat", dimacs, prefix)
    assert rc == 0
    team_lines = Path(f"{prefix}.team").read_text(encoding="utf-8").splitlines()
    assert team_lines[0].split() == ["x", "y", "u", "v"]
    assert {tuple(line.split()) for line in team_lines[1:]} == {
        ("p1", "1", "1", "0"),
        ("p2", "0", "1", "1"),
        ("p3", "0", "1", "2"),
    }
    formula = Path(f"{prefix}.formula").read_text(encoding="utf-8")
    assert formula.strip() == "=(x;y) | =(u;v) | =(u;v)"


def test_reduce_prints_and_writes_normalized_output_paths(tmp_path, capsys):
    # the outputs are pathlib paths, which drop the './' and the '//'
    dimacs = write(tmp_path / "one.cnf", "p cnf 3 1\n1 -2 -3 0\n")
    (tmp_path / "sub").mkdir()
    assert run_cli("reduce", "3sat", dimacs, f"{tmp_path}/./sub//inst") == 0
    outputs = [f"{tmp_path}/sub/inst{suffix}" for suffix in (".structure", ".team", ".formula")]
    assert capsys.readouterr().out == "".join(path + "\n" for path in outputs)
    assert sorted(map(str, (tmp_path / "sub").iterdir())) == sorted(outputs)


def test_reduce_then_check_round_trip(tmp_path, capsys):
    sat = write(tmp_path / "sat.cnf", "p cnf 2 2\n1 2 2 0\n-1 -2 -2 0\n")
    unsat = write(tmp_path / "unsat.cnf", "p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    for path, expected in ((sat, 0), (unsat, 1)):
        prefix = str(tmp_path / ("r" + str(expected)))
        assert run_cli("reduce", "3sat", path, prefix) == 0
        rc = run_cli("check", f"{prefix}.structure", f"{prefix}.team", f"{prefix}.formula")
        assert rc == expected


def test_reduce_pdl_formula_file(tmp_path, capsys):
    source = write(tmp_path / "f.pdl", "p1\n")
    prefix = str(tmp_path / "pdl")
    rc = run_cli("reduce", "pdl", source, prefix)
    assert rc == 0
    assert Path(f"{prefix}.formula").read_text(encoding="utf-8").strip() == "exists x1 TRUE(x1)"
    assert run_cli("check", f"{prefix}.structure", f"{prefix}.team", f"{prefix}.formula") == 0


@pytest.mark.parametrize(
    "text",
    [
        " & ".join(["p1"] * 5000),
        "(" * 3000 + "p1" + ")" * 3000,
        " | ".join(["p1"] * 3000),
    ],
    ids=["conjunction-5000", "parens-3000", "split-3000"],
)
def test_reduce_pdl_deep_formula_exits_two(tmp_path, capsys, text):
    source = write(tmp_path / "f.pdl", text + "\n")
    rc = run_cli("reduce", "pdl", source, str(tmp_path / "pdl"))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: formula is nested too deeply\n"


def test_reduce_bad_input_exits_two(tmp_path, capsys):
    bad = write(tmp_path / "bad.cnf", "p cnf 2 1\n1 2 0\n")
    rc = run_cli("reduce", "3sat", bad, str(tmp_path / "x"))
    assert rc == 2
    # a proposition named TRUE has two readings under {TRUE/1}
    bad = write(tmp_path / "bad.pdl", "p & =(q;TRUE)\n")
    capsys.readouterr()
    assert run_cli("reduce", "pdl", bad, str(tmp_path / "x")) == 2
    assert "found 'TRUE' (at position 8)" in capsys.readouterr().err


def test_out_of_memory_exits_two(tmp_path):
    # each command allocates far more than the child's 128 MiB of address
    # space; the limit is set in the child only, after it forks
    resource = pytest.importorskip("resource")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))

    cnf = write(tmp_path / "huge.cnf", "p cnf 99999999999 1\n1 2 3 0\n")
    huge = "99999999999999999999"
    for argv in (
        ("reduce", "3sat", cnf, str(tmp_path / "r")),
        ("bench", "--family", "team-size", "--range", f"{huge}..{huge}", "--budget", "5"),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "teamcheck.cli", *argv], capture_output=True, encoding="utf-8",
            env=dict(os.environ, PYTHONPATH=str(SRC)), preexec_fn=cap_address_space,
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


# --- output files ----------------------------------------------------------------
#
# `reduce` and `bench --out` write over an existing file's bytes instead of
# truncating it first; each case compares the result with `Path.write_text`.

_CNF = "p cnf 4 3\n1 2 3 0\n-1 2 4 0\n-2 -3 -4 0\n"
_SUFFIXES = (".structure", ".team", ".formula")


def _reduced_texts() -> list[str]:
    from teamcheck.reductions import parse_dimacs, reduce_3sat

    structure, team, formula = reduce_3sat(parse_dimacs(_CNF))
    return [structure_to_text(structure), team_to_text(team, structure), pretty(formula) + "\n"]


@pytest.mark.parametrize("old", ["#" * 5000 + "\n", "x\n"], ids=["longer", "shorter"])
def test_reduce_writes_over_existing_outputs(tmp_path, capsys, old):
    cnf = write(tmp_path / "in.cnf", _CNF)
    for side in ("out", "ref"):
        for suffix in _SUFFIXES:
            path = tmp_path / (side + suffix)
            path.write_text(old, encoding="utf-8")
            path.chmod(0o640)
            os.link(path, tmp_path / (side + suffix + ".link"))
    before = [(tmp_path / ("out" + s)).stat().st_ino for s in _SUFFIXES]
    assert run_cli("reduce", "3sat", cnf, str(tmp_path / "out")) == 0
    assert capsys.readouterr().out.split() == [str(tmp_path / ("out" + s)) for s in _SUFFIXES]
    for suffix, text, inode in zip(_SUFFIXES, _reduced_texts(), before):
        ref = tmp_path / ("ref" + suffix)
        ref.write_text(text, encoding="utf-8")
        out = tmp_path / ("out" + suffix)
        assert out.read_bytes() == ref.read_bytes() == text.encode()
        assert (tmp_path / ("out" + suffix + ".link")).read_bytes() == ref.read_bytes()
        stat, ref_stat = out.stat(), ref.stat()
        assert stat.st_ino == inode
        assert (stat.st_mode, stat.st_nlink) == (ref_stat.st_mode, ref_stat.st_nlink)


def test_reduce_writes_through_a_symlinked_output(tmp_path, capsys):
    cnf = write(tmp_path / "in.cnf", _CNF)
    target = tmp_path / "target"
    target.write_text("#" * 5000 + "\n", encoding="utf-8")
    (tmp_path / "out.team").symlink_to(target)
    assert run_cli("reduce", "3sat", cnf, str(tmp_path / "out")) == 0
    assert (tmp_path / "out.team").is_symlink()
    ref = tmp_path / "ref"
    ref.write_text(_reduced_texts()[1], encoding="utf-8")
    assert target.read_bytes() == ref.read_bytes()


def test_new_outputs_get_the_mode_write_text_gives(tmp_path, capsys):
    cnf = write(tmp_path / "in.cnf", _CNF)
    umask = os.umask(0o002)
    try:
        assert run_cli("reduce", "3sat", cnf, str(tmp_path / "out")) == 0
        assert run_cli(
            "bench", "--family", "splits", "--range", "0..1", "--out", str(tmp_path / "b.csv")
        ) == 0
        (tmp_path / "ref").write_text("x\n", encoding="utf-8")
    finally:
        os.umask(umask)
    expected = (tmp_path / "ref").stat().st_mode
    assert expected & 0o777 == 0o664
    for name in ("out.structure", "out.team", "out.formula", "b.csv"):
        assert (tmp_path / name).stat().st_mode == expected, name


def test_bench_out_to_dev_null_exits_zero(capsys):
    assert run_cli("bench", "--family", "splits", "--range", "0..1", "--out", os.devnull) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("command", ["reduce", "bench"])
def test_output_path_that_is_a_directory_exits_two(tmp_path, capsys, command):
    cnf = write(tmp_path / "in.cnf", _CNF)
    if command == "reduce":
        directory = tmp_path / "out.structure"
        argv = ("reduce", "3sat", cnf, str(tmp_path / "out"))
    else:
        directory = tmp_path / "b.csv"
        argv = ("bench", "--family", "splits", "--range", "0..1", "--out", str(directory))
    directory.mkdir()
    error, message = outcome(lambda: directory.write_text("x\n", encoding="utf-8"))
    assert error is IsADirectoryError
    assert run_cli(*argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_write_that_fails_partway_leaves_no_old_bytes(tmp_path):
    # a 64-byte file size limit stops each write partway; what a failed write
    # leaves is the written prefix of the new text, as with `Path.write_text`,
    # not that prefix followed by the old file's tail
    cnf = write(tmp_path / "in.cnf", _CNF)
    for name in ("out.team", "ref"):
        (tmp_path / name).write_text("#" * 5000 + "\n", encoding="utf-8")
    script = (
        "import resource, sys\n"
        "from pathlib import Path\n"
        "from teamcheck import cli\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (64, resource.RLIM_INFINITY))\n"
        "try:\n"
        "    Path(sys.argv[1]).write_text(sys.argv[2], encoding='utf-8')\n"
        "except OSError:\n"
        "    pass\n"
        "sys.exit(cli.main(sys.argv[3:]))\n"
    )
    text = _reduced_texts()[1]
    assert len(text) > 64
    result = subprocess.run(
        [
            sys.executable, "-c", script, str(tmp_path / "ref"), text,
            "reduce", "3sat", cnf, str(tmp_path / "out"),
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, encoding="utf-8",
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: ") and "File too large" in result.stderr
    ref = (tmp_path / "ref").read_bytes()
    assert ref == text.encode()[:64]
    assert (tmp_path / "out.team").read_bytes() == ref


def test_no_command_writes_with_the_locale_encoding(tmp_path):
    # every file a command reads or writes is UTF-8, whatever the locale
    commands = _commands(tmp_path)
    out = str(tmp_path / "b.csv")
    runs = [
        commands["check-opt-unsat"],
        commands["params"],
        commands["reduce-3sat"],
        (("bench", "--family", "splits", "--range", "0..2", "--out", out), 0),
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv, code in runs:
        result = subprocess.run(
            [
                sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                "-m", "teamcheck.cli", *argv,
            ],
            env=env, capture_output=True, encoding="utf-8",
        )
        assert (result.returncode, result.stderr) == (code, ""), argv


# --- bench ---------------------------------------------------------------------

def test_bench_csv_shape_and_monotone_nodes(tmp_path):
    out_path = tmp_path / "bench.csv"
    rc = run_cli(
        "bench", "--family", "team-size", "--range", "2..6",
        "--engine", "opt", "--out", str(out_path),
    )
    assert rc == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "param,value,engine,nodes,millis,status"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["2", "3", "4", "5", "6"]
    assert all(r[0] == "team-size" and r[2] == "opt" and r[5] == "ok" for r in rows)
    nodes = [int(r[3]) for r in rows]
    assert nodes == sorted(nodes)


def test_bench_deterministic_modulo_timing(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert run_cli(
            "bench", "--family", "splits", "--range", "0..4",
            "--engine", "naive", "--out", str(path),
        ) == 0
        paths.append(path)

    def strip_millis(text: str) -> list[str]:
        rows = []
        for line in text.splitlines():
            parts = line.split(",")
            if len(parts) == 6 and parts[4] != "millis":
                parts[4] = "_"
            rows.append(",".join(parts))
        return rows

    first, second = (strip_millis(path.read_text(encoding="utf-8")) for path in paths)
    assert first == second


def test_bench_budget_rows_are_marked(tmp_path):
    out_path = tmp_path / "b.csv"
    rc = run_cli(
        "bench", "--family", "team-size", "--range", "2..8",
        "--engine", "naive", "--budget", "100", "--out", str(out_path),
    )
    assert rc == 0
    rows = [line.split(",") for line in out_path.read_text(encoding="utf-8").splitlines()[1:]]
    statuses = {r[1]: r[5] for r in rows}
    assert statuses["2"] == "ok"
    assert statuses["8"] == "budget-exceeded"
    assert len(rows) == 7  # marked, not dropped


@pytest.mark.parametrize(
    "family,value_range",
    [("universe-size", "1..5"), ("splits", "0..6"), ("team-size", "2..7")],
)
def test_bench_families_monotone_nodes(tmp_path, family, value_range):
    out_path = tmp_path / "fam.csv"
    assert run_cli(
        "bench", "--family", family, "--range", value_range,
        "--engine", "naive", "--out", str(out_path),
    ) == 0
    rows = [line.split(",") for line in out_path.read_text(encoding="utf-8").splitlines()[1:]]
    nodes = [int(r[3]) for r in rows]
    assert nodes == sorted(nodes)


def test_bench_bad_range_exits_two(capsys):
    # str.isdigit accepts a superscript two, which int() rejects
    for value_range in ("oops", "\u00b2..3"):
        assert run_cli("bench", "--family", "splits", "--range", value_range) == 2
        assert capsys.readouterr().err == f"error: bad range {value_range!r}, expected LO..HI\n"


def test_bench_universe_of_no_elements_exits_two(capsys):
    assert run_cli("bench", "--family", "universe-size", "--range", "0..2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: universe-size values must be at least 1\n"


def test_bench_reversed_range_exits_two(capsys):
    # LO > HI would bench nothing; a one-value range LO == HI stays valid
    assert run_cli("bench", "--family", "team-size", "--range", "5..2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad range '5..2', expected LO..HI\n"
    assert run_cli("bench", "--family", "splits", "--range", "3..3") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["3"]


# --- argparse usage errors ---------------------------------------------------------

def test_parser_is_reused_without_leaking_state(flight_files, tmp_path, capsys):
    structure, team, formula_file = flight_files
    formula = formula_file("=(Flight,Date,Time;Destination,Gate)")
    calls = [
        ("check", structure, team, formula, "--engine", "naive"),
        ("check", structure, team, formula),
        ("frobnicate",),
        ("params", structure, team, formula),
    ]

    def outputs(fresh: bool) -> list:
        results = []
        for argv in calls:
            if fresh:
                cli.build_arg_parser.cache_clear()
            try:
                rc = run_cli(*argv)
            except SystemExit as exc:
                rc = exc.code
            captured = capsys.readouterr()
            results.append((rc, captured.out, captured.err))
        return results

    parser = cli.build_arg_parser()
    shared = outputs(fresh=False)
    assert cli.build_arg_parser() is parser
    assert shared == outputs(fresh=True)
    assert [rc for rc, _, _ in shared] == [0, 0, 2, 0]
    assert "engine=naive" in shared[0][1]
    assert "engine=optimized" in shared[1][1]


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        run_cli("frobnicate")
    assert info.value.code == 2


def test_readme_library_example_prints_true(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {})
    assert capsys.readouterr().out == "True\n"


def fresh_python(code: str, *args: str) -> str:
    """The standard output of `code` run in a new interpreter that imports
    this checkout's `teamcheck`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, encoding="utf-8",
        check=True,
    ).stdout


TRACER_PROBE = """
import sys
from teamcheck import cli
assert "teamcheck.graph" not in sys.modules
original = getattr(cli, "gaifman")
calls = []
def counting(*args):
    calls.append(args)
    return original(*args)
setattr(cli, "gaifman", counting)
code = cli.main(sys.argv[1:])
print(code, len(calls), cli.gaifman is counting)
"""


def test_benchmark_tracer_names_bind_to_their_layers(tmp_path, capsys):
    # perfbench/spans.py rebinds each traced name on teamcheck.cli; each must
    # be the layer's own function, imported by name
    import importlib.util

    path = Path(__file__).parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for name, metric in spans.TRACED.items():
        layer = importlib.import_module("teamcheck." + metric.split(".")[0])
        assert getattr(cli, name) is getattr(layer, name), name
    # a name rebound before its module's first use stays rebound, and runs
    argv, code = _commands(tmp_path)["params"]
    *lines, last = fresh_python(TRACER_PROBE, *argv).splitlines()
    assert last == f"{code} 1 True"
    assert run_cli(*argv) == code
    assert lines == capsys.readouterr().out.splitlines()


MODULES_PROBE = """
import contextlib, io, json, sys
from teamcheck import cli
argv = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(argv) if argv else None
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "teamcheck")]))
"""

_CHECK_MODULES = [
    "teamcheck", "teamcheck.cli", "teamcheck.evaluator", "teamcheck.model",
    "teamcheck.syntax", "teamcheck.value",
]


@pytest.mark.parametrize(
    "name, deferred",
    [
        (None, []),
        ("check-opt-sat", []),
        ("check-auto-unsat", []),
        ("check-fo-sat", []),
        ("check-syntax-error", []),
        ("bench-splits", []),
        ("params", ["teamcheck.graph"]),
        ("params-grid", ["teamcheck.graph"]),
        ("reduce-3sat", ["teamcheck.reductions"]),
        ("reduce-pdl", ["teamcheck.reductions"]),
    ],
)
def test_commands_load_only_the_modules_they_run(tmp_path, name, deferred):
    argv, code = _commands(tmp_path)[name] if name else ((), None)
    out = fresh_python(MODULES_PROBE, *argv)
    assert json.loads(out) == [code, sorted(_CHECK_MODULES + deferred)]


# every name `teamcheck` exports, by the module that defines it
PUBLIC_NAMES = {
    "evaluator": [
        "BudgetExceededError", "CheckOutcome", "Engine", "check", "check_fo_tarski",
        "find_dep_violation", "run_check",
    ],
    "graph": [
        "Graph", "GraphError", "TreeDecomposition", "ValidationResult",
        "decomposition_from_text", "decomposition_to_text", "gaifman",
        "treewidth_exact", "treewidth_greedy", "validate_decomposition",
    ],
    "model": [
        "Assignment", "Structure", "StructureError", "Team", "TeamError",
        "parse_structure", "parse_team", "structure_to_text", "team_to_text",
    ],
    "reductions": [
        "CNF", "CNFError", "evaluate_cnf", "extract_valuation", "parse_dimacs",
        "parse_pdl", "pdl_check", "pdl_propositions", "pdl_sat_brute", "pretty_pdl",
        "reduce_3sat", "reduce_pdl", "sat_brute",
    ],
    "syntax": [
        "And", "Const", "DepAtom", "Equality", "Exists", "Forall", "Formula",
        "FormulaSyntaxError", "Func", "Or", "RelAtom", "SyntacticParams", "Term",
        "Var", "Vocabulary", "all_variables", "analyze", "formula_size",
        "free_variables", "has_dependence_atoms", "parse_formula", "pretty",
    ],
}

API_PROBE = """
import importlib, json, sys
import teamcheck
listed = set(dir(teamcheck))
starred = {}
exec("from teamcheck import *", starred)
wrong = []
for module, names in json.loads(sys.argv[1]).items():
    home = importlib.import_module("teamcheck." + module)
    for name in names:
        imported = {}
        exec(f"from teamcheck import {name}", imported)
        same = imported[name] is getattr(home, name) is starred[name]
        if not (same and name in listed):
            wrong.append(name)
print(json.dumps([wrong, hasattr(teamcheck, "no_such_name")]))
"""


def test_public_names_resolve_to_their_defining_modules():
    assert sum(map(len, PUBLIC_NAMES.values())) == 61
    out = fresh_python(API_PROBE, json.dumps(PUBLIC_NAMES))
    assert json.loads(out) == [[], False]


DEFERRED_PROBE = """
import json
import teamcheck
from teamcheck import cli
names = list(teamcheck._DEFERRED)
wrong = [name for name in names if getattr(cli, name, None) is not getattr(teamcheck, name)]
print(json.dumps([len(names), wrong, hasattr(cli, "no_such_name")]))
"""


def test_cli_binds_every_deferred_name_as_the_package_does():
    # cli reads the package's one table of deferred names: each resolves
    # through cli, before the package resolved it, to the package's object
    assert json.loads(fresh_python(DEFERRED_PROBE)) == [23, [], False]


# --- the cyclic collector ------------------------------------------------------

def _commands(tmp_path) -> dict[str, tuple[tuple[str, ...], int]]:
    """Command lines covering every command and exit code, by name, each
    with the exit code it gives."""
    flights = str(DATA / "flights.structure"), str(DATA / "flights.team")
    departures = str(DATA / "depsmall.structure"), write(tmp_path / "pair", "x y\nF7 C1\nF8 C1\n")
    sat = write(tmp_path / "sat", "=(Flight,Date,Time;Destination,Gate)\n")
    unsat = write(tmp_path / "unsat", "=(Destination,Gate;Time)\n")
    commands = {}
    for engine in ("naive", "opt", "auto"):
        commands[f"check-{engine}-sat"] = ("check", *flights, sat, "--engine", engine), 0
        commands[f"check-{engine}-unsat"] = ("check", *flights, unsat, "--engine", engine), 1
    fo_sat = write(tmp_path / "fo-sat", "exists z R(y,x,z)\n")
    commands["check-fo-sat"] = ("check", *departures, fo_sat, "--engine", "fo"), 0
    fo_unsat = write(tmp_path / "fo-unsat", "S(x,y)\n")
    commands["check-fo-unsat"] = ("check", *departures, fo_unsat, "--engine", "fo"), 1
    commands["check-syntax-error"] = ("check", *flights, write(tmp_path / "bad", "=(Flight;\n")), 2
    commands["check-missing-file"] = ("check", str(tmp_path / "missing"), flights[1], sat), 2
    commands["check-budget"] = (
        "check", write(tmp_path / "s", "universe: a b\nrelation R/1:\n"),
        write(tmp_path / "t", "x\na\nb\n"), write(tmp_path / "f", "R(x) | R(x)\n"),
        "--engine", "opt", "--budget", "2",
    ), 3
    cnf = write(tmp_path / "in.cnf", "p cnf 4 3\n1 2 3 0\n-1 2 4 0\n-2 -3 -4 0\n")
    commands["reduce-3sat"] = ("reduce", "3sat", cnf, str(tmp_path / "r3")), 0
    pdl = write(tmp_path / "in.pdl", "(p & =(p;q)) | (!q & =(;r))\n")
    commands["reduce-pdl"] = ("reduce", "pdl", pdl, str(tmp_path / "rp")), 0
    commands["params"] = ("params", *departures, fo_sat), 0
    grid = grid_structure(tmp_path / "grid", 3, 4)
    grid_files = write(tmp_path / "g", "x\nv0_0\n"), write(tmp_path / "e", "exists y E(x,y)\n")
    commands["params-grid"] = ("params", grid, *grid_files), 0
    for family in ("team-size", "universe-size", "splits"):
        commands[f"bench-{family}"] = ("bench", "--family", family, "--range", "1..3"), 0
    assert sorted(commands) == sorted(_COMMAND_NAMES)
    return commands


_COMMAND_NAMES = [
    *(f"check-{engine}-{answer}" for engine in ("naive", "opt", "auto", "fo")
      for answer in ("sat", "unsat")),
    "check-syntax-error", "check-missing-file", "check-budget",
    "reduce-3sat", "reduce-pdl", "params", "params-grid",
    "bench-team-size", "bench-universe-size", "bench-splits",
]


@pytest.mark.parametrize("name", _COMMAND_NAMES)
def test_commands_leave_no_reference_cycles(tmp_path, capsys, name):
    # `main` runs every command with the cyclic collector paused; that
    # leaves nothing unfreed only as long as no command builds a cycle
    argv, code = _commands(tmp_path)[name]
    assert run_cli(*argv) == code  # warms the cached parser
    assert cyclic_garbage(run_cli, *argv) == (code, 0)


def _set_collector(enabled: bool) -> None:
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "name", ["check-opt-sat", "check-opt-unsat", "check-syntax-error", "check-budget"]
)
def test_main_restores_the_collector_state(tmp_path, capsys, enabled, name):
    argv, code = _commands(tmp_path)[name]
    _set_collector(enabled)
    try:
        assert run_cli(*argv) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state_on_escaping_exceptions(monkeypatch, enabled):
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        raise RuntimeError("command failed")

    _set_collector(enabled)
    try:
        with pytest.raises(SystemExit):
            run_cli("frobnicate")
        assert gc.isenabled() is enabled
        parser = SimpleNamespace(parse_args=lambda argv: SimpleNamespace(func=command))
        monkeypatch.setattr(cli, "build_arg_parser", lambda: parser)
        with pytest.raises(RuntimeError, match="command failed"):
            run_cli("anything")
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False]


def test_check_of_a_large_team_starts_no_collection(tmp_path, capsys):
    # 5,000 rows allocate far more tuples than the young generation's
    # threshold; a command runs with the collector paused, so none starts
    names = [f"e{i}" for i in range(100)]
    rows = (f"{names[i % 100]} {names[i // 100]} {names[i * 7 % 100]}" for i in range(5000))
    structure = write(tmp_path / "s", f"universe: {' '.join(names)}\n")
    team = write(tmp_path / "t", "x y z\n" + "\n".join(rows) + "\n")
    formula = write(tmp_path / "f", "=(x,y;z)\n")
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        assert run_cli("check", structure, team, formula) == 0
    finally:
        gc.callbacks.remove(count)
    assert starts == []
