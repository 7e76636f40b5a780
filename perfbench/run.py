"""qgames benchmark: seeded closed-loop workloads with checked answers.

Usage:
    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload is one closed-loop client: it sends the next query only after
the last one returned, in whole rounds, until the queries have taken
--seconds. Every answer is checked against references that do not depend on
how qgames computes it (see oracle.py). With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates a fixed number of untraced
and traced rounds and reports per-layer metrics per traced query. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from launch import ROOT, import_qgames, pin_threads

pin_threads()

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5  # fresh interpreters per set-up measurement; the median is reported
P90_MIN_QUERIES = 100  # a p90 needs at least ten samples beyond it

# Per-layer metric: (span, total). Each is reported per query; "calls" and
# "work" as counts, the times ("s": whole span, "self_s": minus child spans)
# in ms. qcore.amplitude_updates sums the work of the state-vector stages.
LAYER_METRICS = {
    "protocol.evals_per_query": ("protocol.final_state", "calls"),
    "protocol.expected_payoffs.calls": ("protocol.expected_payoffs", "calls"),
    "protocol.final_state.self_ms": ("protocol.final_state", "self_s"),
    "protocol.expected_payoffs.self_ms": ("protocol.expected_payoffs", "self_s"),
    "equilibrium.best_response.self_ms": ("equilibrium.best_response", "self_s"),
    "equilibrium.enumerate_equilibria.self_ms": ("equilibrium.enumerate_equilibria", "self_s"),
    "equilibrium.pareto_check.self_ms": ("equilibrium.pareto_check", "self_s"),
    "equilibrium.payoff_sweep.self_ms": ("equilibrium.payoff_sweep", "self_s"),
    "qcore.basis.ms": ("qcore.basis", "s"),
    "qcore.entangle.ms": ("qcore.entangle", "s"),
    "qcore.disentangle.ms": ("qcore.disentangle", "s"),
    "qcore.tensor_apply.ms": ("qcore.tensor_apply", "s"),
    "qcore.is_unitary.calls": ("qcore.is_unitary", "calls"),
    "qcore.is_unitary.ms": ("qcore.is_unitary", "s"),
    "qcore.probabilities.ms": ("qcore.probabilities", "s"),
    "qcore.amplitude_updates": (None, "work"),
    "strategies.unitary_of.calls": ("strategies.unitary_of", "calls"),
    "gamespec.parse_game_spec.ms": ("gamespec.parse_game_spec", "s"),
    "gamespec.validate.ms": ("gamespec.validate", "s"),
    "strategies.parse_strategy.ms": ("strategies.parse_strategy", "s"),
    "cli.main.self_ms": ("cli.main", "self_s"),
}


class Tally:
    """Outcome of every query a pass attempted."""

    def __init__(self):
        self.durations: list[float] = []
        self.kinds: list[str] = []
        self.raised: list[tuple[str, str]] = []
        self.wrong: list[tuple[str, str]] = []

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def failed(self) -> int:
        return len(self.raised) + len(self.wrong)


def run_round(workload, qg, tally: Tally, r: int, tracer=None) -> float:
    """Run round r; returns the seconds spent inside its queries.

    Each answer is checked right after its query returns, outside the timing.
    """
    busy = 0.0
    for query in workload.round(qg, r):
        started = perf_counter()
        try:
            if tracer is None:
                result = query.call()
            else:
                result = tracer.run_query(tally.attempted, query.call)
        except Exception as exc:  # a query that raises is a failed query, not a crash
            elapsed = perf_counter() - started
            tally.raised.append((query.kind, f"{type(exc).__name__}: {exc}"))
        else:
            elapsed = perf_counter() - started
            try:
                problem = query.check(result)
            except Exception as exc:  # an answer the check cannot read is wrong
                problem = f"unreadable answer: {type(exc).__name__}: {exc}"
            if problem:
                tally.wrong.append((query.kind, problem))
        tally.durations.append(elapsed)
        tally.kinds.append(query.kind)
        busy += elapsed
    return busy


def measure_setup(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters: import qgames, build the specs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def print_environment(seed: int) -> None:
    import numpy

    print(f"env: commit={commit()} python={platform.python_version()} "
          f"numpy={numpy.__version__} nproc={os.cpu_count()} seed={seed} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def print_failures(tally: Tally) -> None:
    for label, items in (("raised", tally.raised), ("wrong answer", tally.wrong)):
        kinds: dict[str, list[str]] = {}
        for kind, message in items:
            kinds.setdefault(kind, []).append(message)
        for kind, messages in kinds.items():
            print(f"  {label}: {kind} x{len(messages)}: {messages[0]}")


def result_line(tally: Tally, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_untraced(workload, qg, seconds: float) -> dict:
    setup_s = measure_setup(workload.name, workload.seed)
    tally = Tally()
    rounds, busy = 0, 0.0
    while busy < seconds:
        busy += run_round(workload, qg, tally, rounds)
        rounds += 1
    n = tally.attempted
    completed = n - len(tally.raised)
    metrics = {
        "query_p50_ms": (statistics.median(tally.durations) * 1e3, "ms"),
        "queries_per_s": (completed / busy, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{workload.name}: {n} queries in {rounds} rounds, {busy:.3f} s inside queries")
    print(f"  query_p50_ms   {metrics['query_p50_ms'][0]:.4f} ms ({n} samples)")
    if n >= P90_MIN_QUERIES:
        p90 = statistics.quantiles(tally.durations, n=10)[8] * 1e3
        print(f"  query_p90_ms   {p90:.4f} ms ({n} samples)")
    else:
        print(f"  query_p90_ms   omitted: {n} samples, fewer than {P90_MIN_QUERIES}")
    print(f"  queries_per_s  {metrics['queries_per_s'][0]:.4f} 1/s")
    print(f"  error_rate     {tally.failed / n:.4f} ({tally.failed} of {n}: "
          f"{len(tally.raised)} raised, {len(tally.wrong)} wrong answers)")
    print(f"  setup_s        {setup_s:.4f} s (median of {SETUP_REPEATS} fresh interpreters)")
    print(f"  peak_rss_mb    {metrics['peak_rss_mb'][0]:.2f} MB")
    by_kind: dict[str, list[float]] = {}
    for kind, duration in zip(tally.kinds, tally.durations):
        by_kind.setdefault(kind, []).append(duration)
    print("  median ms by query kind: " + ", ".join(
        f"{kind} {statistics.median(d) * 1e3:.4g} (n={len(d)})" for kind, d in by_kind.items()))
    print_failures(tally)
    return result_line(tally, metrics)


def run_traced(workload, qg) -> dict:
    from spans import Tracer

    cache = qg.strategies.unitary_of
    cache_info = getattr(cache, "cache_info", None)
    clear = getattr(cache, "cache_clear", lambda: None)

    # Untraced and traced rounds alternate, so that drift in the machine's
    # speed falls on both sides of trace.overhead_ratio alike. Rounds differ
    # only in their seeded numbers, not in their cost.
    tally = Tally()
    tracer = Tracer()
    reference = traced = 0.0
    hits = misses = queries = 0
    clear()
    for r in range(2 * workload.rounds_traced):
        if r % 2 == 0:
            reference += run_round(workload, qg, tally, r)
            continue
        before = cache_info() if cache_info else None
        start = tally.attempted
        tracer.install()
        try:
            traced += run_round(workload, qg, tally, r, tracer)
        finally:
            tracer.uninstall()
        queries += tally.attempted - start
        if cache_info:
            after = cache_info()
            hits += after.hits - before.hits
            misses += after.misses - before.misses
    tracer.write(HERE / "out" / f"spans-{workload.name}-seed{workload.seed}.npz")

    t = tracer.totals()
    absent = sorted(set(tracer.absent))
    if cache_info is None:
        absent.append("strategies.unitary_of.cache_info")
    hit_ratio = hits / (hits + misses) if hits + misses else 0.0

    values = {}
    for metric, (span, total) in LAYER_METRICS.items():
        value = t[span][total] if span else sum(v[total] for v in t.values())
        timed = total in ("s", "self_s")
        values[metric] = (value * (1e3 if timed else 1) / queries, "ms" if timed else "count")
    values["strategies.unitary_of.hit_ratio"] = (hit_ratio, "ratio")
    values["trace.overhead_ratio"] = (traced / reference, "ratio")

    print(f"{workload.name} traced: {queries} queries in {workload.rounds_traced} rounds, "
          f"{traced:.3f} s traced against {reference:.3f} s in as many untraced rounds; "
          f"{len(tracer.start)} spans; per-layer values are per query")
    for name, (value, unit) in values.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  absent: {', '.join(absent) if absent else 'none'}")
    evals = t["protocol.final_state"]["calls"]
    if evals:
        print("  ROADMAP re-anchor (N=3): 124 us per profile, ~88 us of it tensor_apply, "
              "~30 us unitarity checks; 20.6k evaluations per best reply")
        print(f"  this run (N mixed as in the workload): "
              f"{reference / evals * 1e6:.1f} us of untraced query time per profile, "
              f"{t['protocol.expected_payoffs']['s'] / evals * 1e6:.1f} us traced, "
              f"{t['qcore.tensor_apply']['s'] / evals * 1e6:.1f} us tensor_apply, "
              f"{t['qcore.is_unitary']['s'] / evals * 1e6:.1f} us is_unitary; "
              f"{evals / queries:.0f} evaluations per query")
    print_failures(tally)
    return result_line(tally, values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    qg = import_qgames()
    print_environment(args.seed)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    workdir = HERE / "work" / f"run-{os.getpid()}"
    try:
        for name in names:
            workload = workloads.WORKLOADS[name](args.seed)
            workload.setup(qg)
            workdir.mkdir(parents=True, exist_ok=True)
            workload.prepare(workdir)
            if args.trace:
                results[name] = run_traced(workload, qg)
            else:
                results[name] = run_untraced(workload, qg, args.seconds)
            print(json.dumps(results[name]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
