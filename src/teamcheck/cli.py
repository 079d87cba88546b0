"""Command-line front end: check, params, reduce, and bench subcommands.

Exit codes: 0 team satisfies the formula, 1 it does not, 2 usage or parse
error, 3 work budget exceeded.  All machine-readable output is
line-oriented ``key=value`` text (CSV for bench).
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
import time
from pathlib import Path

from .evaluator import (
    BudgetExceededError,
    Engine,
    find_dep_violation,
    run_check,
)
from .model import (
    Structure,
    Team,
    parse_structure,
    parse_team,
    structure_to_text,
    team_to_text,
)
from .syntax import (
    DepAtom,
    Formula,
    _NUMBER,
    analyze,
    parse_formula,
    pretty,
)
from .value import Value, new_value

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

DEFAULT_BUDGET = 10_000_000


def _bind(module: str) -> None:
    """Bind here the names the package defers to `module`, so that a `check`
    compiles neither `graph` nor `reductions`.  A name already bound stays,
    such as one a tracer has rebound."""
    package = sys.modules[__package__]
    scope = globals()
    for name, home in package._DEFERRED.items():
        if home == module and name not in scope:
            scope[name] = getattr(package, name)


def __getattr__(name: str):
    home = sys.modules[__package__]._DEFERRED.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(home)
    return globals()[name]


_ENGINES = {
    "naive": Engine.NAIVE,
    "opt": Engine.OPTIMIZED,
    "fo": Engine.FO_TARSKI,
    "auto": Engine.AUTO,
}


class ParameterReport(Value):
    """The nine parameter values of a model-checking instance."""

    __slots__ = ()

    def __new__(
        cls,
        splits: int, foralls: int, arity: int, vars: int, free_vars: int, size: int,
        structure_size: int, team_size: int, treewidth: int, treewidth_is_exact: bool,
    ):
        return new_value(cls, (
            cls, splits, foralls, arity, vars, free_vars, size,
            structure_size, team_size, treewidth, treewidth_is_exact,
        ))

    def lines(self) -> list[str]:
        """One `key=value` line per parameter, with treewidth tagged."""
        values = self._asdict()
        tag = "exact" if values.pop("treewidth_is_exact") else "upper-bound"
        values["treewidth"] = f"{self.treewidth}({tag})"
        return [f"{key}={value}" for key, value in values.items()]


def build_report(structure: Structure, team: Team, formula: Formula) -> ParameterReport:
    """All nine parameters; treewidth is exact where `treewidth_exact` takes the graph."""
    _bind("graph")
    params = analyze(formula)
    graph = gaifman(structure)
    try:
        treewidth, _ = treewidth_exact(graph)
        exact = True
    except GraphError:  # too many vertices for the exact search
        treewidth, _ = treewidth_greedy(graph)
        exact = False
    return ParameterReport(
        **params._asdict(),
        structure_size=structure.size,
        team_size=len(team),
        treewidth=treewidth,
        treewidth_is_exact=exact,
    )


def _read(path: str) -> str:
    """An input file as UTF-8 text, without a leading byte-order mark, with
    CR LF and CR line ends read as LF.  A read error names `path` as given,
    which a `Path` would not: it rewrites `./`, `//` and the empty string."""
    with open(path, encoding="utf-8-sig") as file:
        return file.read()


def _write(path: str | Path, text: str) -> None:
    """Write `text` as UTF-8 over the file's old bytes, then cut off what is
    left of the old file past the bytes written, also when a write fails.
    Truncating a non-empty file to zero first, as `Path.write_text` does,
    makes ext4 (`auto_da_alloc`) start writing the file out on close."""
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0) as file:
        old_size = os.fstat(file.fileno()).st_size
        done = 0
        try:
            while done < len(data):
                done += file.write(data[done:])
        finally:
            if old_size > done:
                file.truncate(done)


def _load_instance(args) -> tuple[Structure, Team, Formula]:
    structure = parse_structure(_read(args.structure_file))
    team = parse_team(_read(args.team_file), structure)
    formula = parse_formula(_read(args.formula_file).strip(), structure.vocabulary())
    return structure, team, formula


def _resolve_budget(value: int) -> int | None:
    if value < 0:
        raise ValueError(f"--budget must be 0 (unlimited) or positive, got {value}")
    return value or None


def cmd_check(args) -> int:
    budget = _resolve_budget(args.budget)
    structure, team, formula = _load_instance(args)
    outcome = run_check(structure, team, formula, _ENGINES[args.engine], budget)
    print("SAT" if outcome.satisfied else "UNSAT")
    print(f"engine={outcome.engine.value}")
    print(f"expansions={outcome.expansions}")
    if not outcome.satisfied and isinstance(formula, DepAtom):
        pair = find_dep_violation(structure, team, formula)
        if pair is not None:
            for tag, assignment in zip(("witness_row1", "witness_row2"), pair):
                print(f"{tag}=" + " ".join(map(structure.element_name, assignment.values)))
    return EXIT_SAT if outcome.satisfied else EXIT_UNSAT


def cmd_params(args) -> int:
    structure, team, formula = _load_instance(args)
    for line in build_report(structure, team, formula).lines():
        print(line)
    return EXIT_SAT


def cmd_reduce(args) -> int:
    _bind("reductions")
    text = _read(args.input_file)
    if args.kind == "3sat":
        structure, team, formula = reduce_3sat(parse_dimacs(text))
    else:
        structure, team, formula = reduce_pdl(parse_pdl(text))
    prefix = args.output_prefix
    texts = {
        Path(f"{prefix}.structure"): structure_to_text(structure),
        Path(f"{prefix}.team"): team_to_text(team, structure),
        Path(f"{prefix}.formula"): pretty(formula) + "\n",
    }
    for path, text in texts.items():
        _write(path, text)
    for path in texts:
        print(path)
    return EXIT_SAT


# --- bench families ---------------------------------------------------------
#
# Each family stresses exactly one growth direction with an unsatisfiable
# instance, so no search can short-circuit and the node counts expose the
# engines' asymptotics.

def _bench_instance(family: str, value: int) -> tuple[Structure, Team, Formula]:
    if family == "team-size":
        names = [f"e{i}" for i in range(max(value, 1))]
        structure = Structure(names, relations={"R": (1, [])})
        team = Team.from_named_rows(("x",), [(n,) for n in names[:value]], structure)
        formula = parse_formula("R(x) | R(x)", structure.vocabulary())
        return structure, team, formula
    if family == "universe-size":
        if value < 1:
            raise ValueError("universe-size values must be at least 1")
        names = [f"e{i}" for i in range(value)]
        structure = Structure(names, relations={"R": (1, [])})
        return structure, Team.of_empty_assignment(), parse_formula(
            "exists z R(z)", structure.vocabulary()
        )
    # "splits", the last of the three families argparse admits
    structure = Structure(("0", "1"), relations={"R": (1, [])})
    team = Team.from_named_rows(("x",), [("0",), ("1",)], structure)
    formula = parse_formula(
        " | ".join(["R(x)"] * (value + 1)), structure.vocabulary()
    )
    return structure, team, formula


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not (sep and _NUMBER.fullmatch(lo) and _NUMBER.fullmatch(hi)) or int(lo) > int(hi):
        raise ValueError(f"bad range {text!r}, expected LO..HI")
    return range(int(lo), int(hi) + 1)


def cmd_bench(args) -> int:
    values = _parse_range(args.range)
    engine = _ENGINES[args.engine]
    budget = _resolve_budget(args.budget)
    lines = ["param,value,engine,nodes,millis,status"]
    for value in values:
        structure, team, formula = _bench_instance(args.family, value)
        start = time.perf_counter()
        try:
            outcome = run_check(structure, team, formula, engine, budget)
            nodes, status = outcome.expansions, "ok"
        except BudgetExceededError as exc:
            nodes, status = exc.expansions, "budget-exceeded"
        millis = round((time.perf_counter() - start) * 1000.0, 3)
        lines.append(f"{args.family},{value},{args.engine},{nodes},{millis},{status}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_SAT


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later calls.

    Callers only parse with it; none may add to or change it.
    """
    parser = argparse.ArgumentParser(
        prog="teamcheck",
        description="Team-semantics model checking for dependence-logic formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine_flags(p, engine):
        p.add_argument(
            "--engine",
            choices=sorted(_ENGINES),
            default=engine,
            help=f"evaluation engine (default: {engine})",
        )
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_BUDGET,
            help=f"node-expansion budget, 0 for unlimited (default: {DEFAULT_BUDGET})",
        )

    check = sub.add_parser("check", help="decide whether the team satisfies the formula")
    params = sub.add_parser("params", help="report the nine instance parameters")
    for p in (check, params):
        for name in ("structure_file", "team_file", "formula_file"):
            p.add_argument(name)
    add_engine_flags(check, "auto")
    check.set_defaults(func=cmd_check)
    params.set_defaults(func=cmd_params)

    reduce_p = sub.add_parser("reduce", help="emit a model-checking instance")
    reduce_p.add_argument("kind", choices=("3sat", "pdl"))
    reduce_p.add_argument("input_file")
    reduce_p.add_argument("output_prefix")
    reduce_p.set_defaults(func=cmd_reduce)

    bench = sub.add_parser("bench", help="run a scaling benchmark family")
    bench.add_argument(
        "--family", choices=("team-size", "universe-size", "splits"), required=True
    )
    bench.add_argument("--range", required=True, help="inclusive LO..HI")
    add_engine_flags(bench, "opt")
    bench.add_argument("--out", help="CSV output path (default: stdout)")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    # No command builds a reference cycle, so the cyclic collector would
    # free nothing while one runs: pause it, and restore the caller's state.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        # every input error (FormulaSyntaxError, StructureError, TeamError,
        # CNFError, GraphError, UnicodeDecodeError) is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: formula is nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
