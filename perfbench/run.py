"""teamcheck benchmark: verdict latency, throughput, set-up time and memory.

Run from the repository root:

    python3 perfbench/run.py --workload {sat3,skolem,bigteam,fo-params,all} \\
        --seed N --seconds S --trace {0,1}

Each workload runs in a child process of its own, so that ``peak_rss_mb``
is that workload's alone.  The child imports ``teamcheck`` from ``src/``,
writes the seeded instance files under ``.bench_work/`` and drives the
documented user path in-process: ``teamcheck.cli.main(argv)`` with its
output captured, one closed-loop client, one operation (verdict) at a
time, no threads.  It repeats whole passes over the workload's operations
for about ``--seconds`` (the first pass sets how many fit, at least one)
and until at least ten samples lie beyond the tail percentile; whole
passes keep the instance mix of every run the same.  Times are reported
at a nominal machine speed, measured with a fixed reference workload run
before each timed piece of work (see ``at_nominal_speed``); the notes
lines also give the wall-clock figures.
Afterwards, outside every timed metric, it checks every verdict against
the workload's oracle.

With ``--trace 1`` the child runs each operation untraced and then with
the calls into each layer traced (see ``spans.py``), and reports the
per-layer metrics plus the tracing overhead instead of the end-to-end
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every operation succeeded with the oracle's verdict.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, write_files  # noqa: E402

SETUPS = 9                  # imports per run; setup_s is their median
TAIL_BEYOND = 10            # samples that must lie beyond the tail percentile
# Chosen per workload to lie inside one cost level of its pass (see
# workloads.py) with at least TAIL_BEYOND samples beyond it in a 20 s run.
TAIL_PERCENTILE = {"sat3": 85, "skolem": 80, "bigteam": 75, "fo-params": 90}
CHILD_TIMEOUT_S = 170
# The speed of the shared machine drifts by up to 2x within seconds, for
# the program and for any fixed code alike.  So before each timed piece of
# work the benchmark times a fixed reference workload, and reports times
# at a nominal speed: each time is scaled by REFERENCE_MS over the median
# reference time of the REFERENCE_WINDOW runs centred on it.
REFERENCE_MS = 2.0
REFERENCE_WINDOW = 5


def _percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _beyond(samples: list[float], pct: int) -> int:
    cut = _percentile(samples, pct)
    return sum(1 for s in samples if s > cut)


def _reference_work() -> int:
    """Fixed pure-Python work of the program's kind: tuples, dicts, sets,
    string splitting and sorting.  It never changes with the program."""
    counts: dict[tuple, int] = {}
    total = 0
    for i in range(1000):
        row = (i % 37, i % 11, i)
        counts[row[:2]] = counts.get(row[:2], 0) + 1
        total += len({i % 13, i % 17, i % 19})
        total += len(f"e{i % 240:03d} e{i % 7:03d}".split())
    return total + len(sorted(counts.items()))


def reference_s() -> float:
    t0 = perf_counter()
    _reference_work()
    return perf_counter() - t0


def at_nominal_speed(times: list[float], refs: list[float]) -> list[float]:
    """`times`, each scaled to a machine on which the reference takes
    REFERENCE_MS; refs[i] was measured just before times[i]."""
    half = REFERENCE_WINDOW // 2
    return [
        t * REFERENCE_MS / 1000.0 / statistics.median(refs[max(0, i - half):i + half + 1])
        for i, t in enumerate(times)
    ]


# --- child: one workload in its own process ----------------------------------

def set_up(workload: str, seed: int, work: Path):
    """Generate the instances and write their files, untimed: that is the
    benchmark's own work, and the samplers' running time depends on the
    seed.  Then import ``teamcheck.cli`` afresh SETUPS times, timed."""
    generate, _ = WORKLOADS[workload]
    ops, files = generate(seed, work)
    work.mkdir(parents=True)
    write_files(files)
    times, refs = [], []
    for _ in range(SETUPS):
        for name in [m for m in sys.modules if m.split(".")[0] == "teamcheck"]:
            del sys.modules[name]
        gc.collect()
        refs.append(reference_s())
        start = perf_counter()
        cli = importlib.import_module("teamcheck.cli")
        times.append(perf_counter() - start)
    return cli, ops, times, refs


def run_op(main, op) -> tuple:
    """All command lines of one operation: ((exit code, stdout), ...)."""
    results = []
    for argv in op.calls:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = main(list(argv))
            except SystemExit as exc:          # argparse usage errors
                code = exc.code
            except Exception as exc:           # counted as a failed operation
                code = f"{type(exc).__name__}: {exc}"
        results.append((code, out.getvalue()))
    return tuple(results)


def collect_garbage() -> None:
    """Untimed, between operations: every ``cli.main`` call leaves argparse
    reference cycles behind.  Collecting the young generations keeps them
    from piling up between the interpreter's own full collections, so each
    operation starts from a heap like a fresh command-line process, and the
    peak memory does not depend on how many passes ran."""
    gc.collect(1)


def run_pass(main, ops, durations: list[float], refs: list[float], outcomes: list[dict]) -> None:
    """One closed-loop pass over the operations, each after a reference run."""
    for i, op in enumerate(ops):
        refs.append(reference_s())
        t0 = perf_counter()
        results = run_op(main, op)
        durations.append(perf_counter() - t0)
        outcomes[i][results] = outcomes[i].get(results, 0) + 1
        collect_garbage()


def check_outcomes(workload: str, ops, outcomes: list[dict]) -> tuple[int, list[str]]:
    """Failed operations (bad exit code, exception or wrong verdict) and why."""
    _, verify = WORKLOADS[workload]
    failed, problems = 0, []
    for i, op in enumerate(ops):
        for results, count in outcomes[i].items():
            codes = [code for code, _ in results]
            if any(code not in (0, 1) for code in codes):
                problem = f"exit codes {codes}"
            else:
                problem = verify(op.case, results)
            if problem:
                failed += count
                problems.append(f"operation {i} ({' | '.join(map(' '.join, op.calls))}): {problem}")
    return failed, problems


def timed_run(workload: str, ops, cli, seconds: int, setup: tuple) -> dict:
    pct = TAIL_PERCENTILE[workload]
    raw: list[float] = []
    refs: list[float] = []
    outcomes: list[dict] = [{} for _ in ops]
    run_pass(cli.main, ops, raw, refs, outcomes)
    passes = 1
    planned = max(1, round(seconds / sum(raw)))
    while passes < planned or _beyond(at_nominal_speed(raw, refs), pct) < TAIL_BEYOND:
        run_pass(cli.main, ops, raw, refs, outcomes)
        passes += 1
    durations = at_nominal_speed(raw, refs)
    setup_times = at_nominal_speed(*setup)
    elapsed = sum(durations)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, problems = check_outcomes(workload, ops, outcomes)
    n = len(durations)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "verdicts_per_s": (n / elapsed, "1/s"),
        "verdict_ms_p50": (statistics.median(durations) * 1000.0, "ms"),
        "verdict_ms_tail": (_percentile(durations, pct) * 1000.0, "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "ok_frac": ((n - failed) / n, "frac"),
    }
    notes = [
        f"times are at nominal speed (reference work {REFERENCE_MS} ms); "
        f"measured reference: median {statistics.median(refs) * 1000.0:.3f} ms, "
        f"range {min(refs) * 1000.0:.3f}-{max(refs) * 1000.0:.3f} ms",
        f"setup_s: median of {SETUPS} imports: "
        + ", ".join(f"{t:.4f}" for t in setup_times)
        + f"; wall-clock median {statistics.median(setup[0]):.4f} s",
        f"verdicts_per_s: {n} verdicts in {passes} passes of {len(ops)}, "
        f"{elapsed:.3f} s of verdict time; wall-clock {n / sum(raw):.4g}/s",
        f"verdict_ms_p50: median of {n} samples; "
        f"wall-clock {statistics.median(raw) * 1000.0:.4g} ms",
        f"verdict_ms_tail: p{pct} of {n} samples, {_beyond(durations, pct)} beyond it; "
        f"wall-clock {_percentile(raw, pct) * 1000.0:.4g} ms",
        "peak_rss_mb: ru_maxrss of the workload process after the timed section",
        f"ok_frac: {n - failed} of {n} verdicts succeeded and matched the oracle",
    ]
    return _report(n, failed, problems, metrics, notes)


def traced_run(workload: str, ops, cli, seconds: int) -> dict:
    """Each operation runs untraced and traced back to back, so that both see
    the same machine speed, in alternating order, so that neither always
    runs second on warm caches; passes repeat until `seconds` have elapsed."""
    outcomes: list[dict] = [{} for _ in ops]
    tracer = Tracer(cli)
    spent = {False: 0.0, True: 0.0}
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            tracer.op = passes * len(ops) + i
            for with_trace in (False, True) if (tracer.op % 2) else (True, False):
                with tracer if with_trace else nullcontext():
                    t0 = perf_counter()
                    results = run_op(tracer.main if with_trace else cli.main, op)
                    spent[with_trace] += perf_counter() - t0
                outcomes[i][results] = outcomes[i].get(results, 0) + 1
                collect_garbage()
        passes += 1
    plain, traced = spent[False], spent[True]
    failed, problems = check_outcomes(workload, ops, outcomes)
    traced_ops = len(ops) * passes
    metrics = tracer.summary(traced_ops, passes)
    metrics["trace.overhead_ms"] = ((traced - plain) * 1000.0 / traced_ops, "ms/op")
    notes = [
        f"{passes} passes of {len(ops)} operations, each run untraced and traced; "
        f"{len(tracer.spans)} spans",
        "*_ms: self time per operation (span minus child spans); "
        "*.calls, evaluator.expansions: per pass",
        f"trace.overhead_ms: traced {traced:.3f} s minus untraced {plain:.3f} s, "
        "per operation",
    ]
    return _report(2 * traced_ops, failed, problems, metrics, notes)


def _report(attempted, failed, problems, metrics, notes) -> dict:
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }


def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    cli, ops, *setup = set_up(args.workload, args.seed, Path(args.child))
    if args.trace:
        report = traced_run(args.workload, ops, cli, args.seconds)
    else:
        report = timed_run(args.workload, ops, cli, args.seconds, setup)
    print(json.dumps(report))
    return 0


# --- parent: spawn, collect, print ------------------------------------------

def run_child(args, workload: str) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-{args.seed}-{os.getpid()}"
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--child", str(work),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        # run() kills the child on timeout and waits for it
        proc = subprocess.run(
            argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: workload {workload} ran past {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:     # another run's files are still there
            pass
    if proc.returncode != 0:
        raise SystemExit(f"error: workload {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "teamcheck" / "cli.py").is_file():
        print(f"error: no teamcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(
        f"python={platform.python_version()} host={platform.node()} "
        f"nproc={len(os.sched_getaffinity(0))} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}"
    )
    attempted = failed = 0
    metrics = {}
    for name in names:
        report = run_child(args, name)
        attempted += report["attempted"]
        failed += report["failed"]
        print(f"== {name}: {report['attempted']} operations, {report['failed']} failed")
        for key, metric in report["metrics"].items():
            print(f"{name}.{key} = {metric['value']:.6g} {metric['unit']}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = metric
        for line in report["notes"] + report["problems"]:
            print(f"  {line}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
