"""Self-tests of the benchmark: seeded inputs repeat exactly, the oracles
agree with the engines (and reject a flipped verdict), and the printed
metrics match BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, bigteam_expected, write_files  # noqa: E402

from teamcheck import cli  # noqa: E402


def cheap(workload: str, ops):
    """A few fast operations of a pass: the tests stay within seconds."""
    if workload == "sat3":
        picked = [op for op in ops if len(op.case.clauses) <= 2]
    elif workload == "skolem":
        picked = [op for op in ops if op.case.size == 6]
    elif workload == "bigteam":
        picked = sorted(ops, key=lambda op: Path(op.case.team_path).stat().st_size)[:2]
    else:
        picked = [op for op in ops if op.case.size <= 14]
    return picked[:4]


def make(workload: str, seed: int, directory: Path):
    """Generate a workload's pass and write its instance files."""
    ops, texts = WORKLOADS[workload][0](seed, directory)
    write_files(texts)
    return ops


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_files_and_expansions(workload, tmp_path):
    expansions = []
    for name in ("a", "b"):
        directory = tmp_path / name
        directory.mkdir()
        ops = cheap(workload, make(workload, 7, directory))
        tracer = Tracer(cli)
        with tracer:
            for op in ops:
                run.run_op(tracer.main, op)
        expansions.append([s.expansions for s in tracer.spans if s.name == "run_check"])
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert expansions[0] == expansions[1] and sum(expansions[0]) > 0
    other = tmp_path / "other"
    other.mkdir()
    make(workload, 8, other)
    assert files(other) != files(tmp_path / "a")


def _flip(results):
    """The same outputs with the last command's verdict inverted."""
    *head, (code, out) = results
    lines = out.splitlines()
    lines[0] = "UNSAT" if lines[0] == "SAT" else "SAT"
    return (*head, (1 - code, "\n".join(lines) + "\n"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_oracle_agrees_with_engine_and_rejects_flipped_verdict(workload, tmp_path):
    verify = WORKLOADS[workload][1]
    ops = cheap(workload, make(workload, 3, tmp_path))
    for op in ops:
        results = run.run_op(cli.main, op)
        assert verify(op.case, results) is None, results
        assert verify(op.case, _flip(results)) is not None


def test_bigteam_oracle_reproduces_witness_of_planted_violation(tmp_path):
    verify = WORKLOADS["bigteam"][1]
    ops = make("bigteam", 5, tmp_path)
    unsat = [op for op in ops if bigteam_expected(op.case.team_path)[0] == "UNSAT"]
    op = min(unsat, key=lambda op: Path(op.case.team_path).stat().st_size)
    results = run.run_op(cli.main, op)
    assert verify(op.case, results) is None
    code, out = results[0]
    *head, row1, row2 = out.splitlines()
    assert row1.startswith("witness_row1=") and row2.startswith("witness_row2=")
    swapped = head + ["witness_row1=" + row2.split("=", 1)[1], "witness_row2=" + row1.split("=", 1)[1]]
    assert verify(op.case, ((code, "\n".join(swapped) + "\n"),)) is not None


def test_times_scale_to_nominal_speed():
    nominal = run.REFERENCE_MS / 1000.0
    # a machine at half speed: the reference and the work take twice as long
    assert run.at_nominal_speed([0.2, 0.4], [2 * nominal] * 2) == pytest.approx([0.1, 0.2])
    # one slow reference run among five does not move the scale
    refs = [nominal, nominal, 9 * nominal, nominal, nominal]
    assert run.at_nominal_speed([0.1] * 5, refs) == pytest.approx([0.1] * 5)


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][-1] == "perfbench/run.py"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fo-params", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result_line(proc.stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[section]}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sat3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
