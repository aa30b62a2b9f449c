"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; cyclichd is imported from ./src.
One process is one closed-loop client: each operation starts only after
the previous one returned, and its answer is checked before the next one
(checks are not timed).  Throughput and CPU time are those of the median
round of operations.  Every time is scaled to reference speed by probes of
fixed work timed next to the operations (see `loop_probe`).
--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half traced, and prints the per-layer metrics.  The last line
of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Full results, the environment and (traced) spans go to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

from check import Tally  # noqa: E402
from selftest import self_test  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402

SETUP_REPEATS = 5
SETUP_PROBES = 3  # bare interpreter starts before each set-up time
LOOP_ITERATIONS = 20_000
# the probes' medians on the reference machine: an Intel Xeon (family 6,
# model 143) KVM guest with 2 vCPUs at 2.0 GHz, Python 3.11.7
LOOP_REFERENCE_S = 0.002
PROCESS_REFERENCE_S = 0.065
IMPORT_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def loop_probe() -> float:
    """Slowness of the machine for work inside this process: the time of a
    fixed pure-Python loop over LOOP_REFERENCE_S.

    On a shared host the speed of the same work drifts with the load on
    the other hardware threads, over minutes: identical rounds of `decide`
    had 30-second means spread by 12% of their median, with no change to
    the program.  The loop slows with them, so a run's times divided by
    the median slowness of loops taken before its operations are steadier
    across runs.  The probes share no code with cyclichd and touch none of
    its memory, so a change to the program cannot move them.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(LOOP_ITERATIONS):
        x += i * i % 7
    return (time.perf_counter() - t0) / LOOP_REFERENCE_S


def process_probe() -> float:
    """Slowness of the host for fresh processes: the time of a bare
    interpreter start, `python -I -c pass`, over PROCESS_REFERENCE_S.
    The loop does not follow a cold process's time; an interpreter start
    does (correlation 0.88 over 20-second windows of cold CLI calls)."""
    t0 = time.perf_counter()
    # no timeout: with one, wait() polls at growing intervals and rounds
    # the time up by tens of milliseconds
    subprocess.run([sys.executable, "-I", "-c", "pass"], check=True)
    return (time.perf_counter() - t0) / PROCESS_REFERENCE_S


def setup_time() -> float:
    """Seconds from process start to `import cyclichd` returning, in a fresh
    interpreter.

    The child reads perf_counter, CLOCK_MONOTONIC on Linux, which every
    process shares, so its reading and the parent's start time compare.
    """
    code = "import time, cyclichd; print(repr(time.perf_counter()), cyclichd.__file__)"
    t0 = time.perf_counter()
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=child_env(SRC), cwd=ROOT, timeout=60)
    wall = time.perf_counter() - t0
    if r.returncode != 0:
        raise RuntimeError(f"import cyclichd failed:\n{r.stderr}")
    stamp, path = r.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"cyclichd imported from {path.strip()}, not {SRC}")
    return min(max(float(stamp) - t0, 0.0), wall)


def import_ms(repeats: int) -> dict[str, float]:
    """Cumulative import ms of cyclichd, numpy and scipy (`-X importtime`),
    each counted once at its outermost import, median over runs, scaled
    by bare interpreter starts taken before each run."""
    pkgs = ("cyclichd", "numpy", "scipy")
    runs, probes = [], []
    for _ in range(repeats):
        probes.append(process_probe())
        r = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cyclichd"],
                           capture_output=True, text=True, env=child_env(SRC),
                           cwd=ROOT, timeout=60)
        if r.returncode != 0:
            raise RuntimeError(f"import cyclichd failed:\n{r.stderr}")
        entries = []
        for line in r.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                cum = int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2][1:]
            entries.append(((len(name) - len(name.lstrip())) // 2, name.strip(), cum))
        total = dict.fromkeys(pkgs, 0)
        stack: list[tuple[int, frozenset]] = []
        # importtime lists children before parents; reversed, each entry
        # follows its ancestors, so a stack by depth holds the open chain
        for level, name, cum in reversed(entries):
            while stack and stack[-1][0] >= level:
                stack.pop()
            inside = stack[-1][1] if stack else frozenset()
            hits = frozenset(p for p in pkgs if name == p or name.startswith(p + "."))
            for p in hits - inside:
                total[p] += cum
            stack.append((level, inside | hits))
        runs.append(total)
    slow = statistics.median(probes)
    return {p: statistics.median(t[p] for t in runs) / 1000 / slow for p in pkgs}


def run_op(workload, case):
    """One operation: (wall s, CPU s, output, failure or None)."""
    c0 = workload.cpu_clock()
    t0 = time.perf_counter()
    try:
        out, problem = workload.op(case), None
    except Exception as exc:  # a failed operation; the run goes on
        out, problem = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    c1 = workload.cpu_clock()
    return t1 - t0, c1 - c0, out, problem


def verdict(workload, case, out, problem: str | None) -> str | None:
    if problem is not None:
        return problem
    try:
        return workload.check(case, out)
    except Exception as exc:  # output of a shape the checks do not expect
        return f"unreadable output: {type(exc).__name__}: {exc}"


def warm_up(workload, rounds, tally: Tally) -> None:
    """One untimed, checked operation: compiles bytecode, fills caches."""
    case = next(rounds)[0]
    _, _, out, problem = run_op(workload, case)
    tally.record(verdict(workload, case, out, problem))


@dataclass
class Sample:
    """Timings of a stretch of operations, in seconds."""

    wall: list[float] = field(default_factory=list)  # per operation
    orders: list[int] = field(default_factory=list)
    rounds: list[tuple[int, float, float]] = field(default_factory=list)  # (ops, wall, cpu)
    probes: list[float] = field(default_factory=list)  # slowness before each operation

    def slowness(self) -> float:
        return statistics.median(self.probes)

    def throughput(self) -> float:
        """Operations per second of the median round, at reference speed."""
        return statistics.median(n / w for n, w, _ in self.rounds) * self.slowness()

    def cpu_per_op(self) -> float:
        """CPU seconds per operation of the median round, at reference speed."""
        return statistics.median(c / n for n, _, c in self.rounds) / self.slowness()


def measure(workload, rounds, until: float, tally: Tally, sample: Sample, tracer=None):
    """Add whole rounds of operations to `sample` until it holds `until`
    seconds of operation time.  Every answer is checked, outside the
    timing."""
    gc.collect()
    while sum(sample.wall) < until:
        round_wall = round_cpu = 0.0
        cases = next(rounds)
        for case in cases:
            sample.probes.append(process_probe() if workload.cold else loop_probe())
            if tracer is not None:
                tracer.begin_op(len(sample.orders))
            w, c, out, problem = run_op(workload, case)
            if tracer is not None:
                tracer.end_op()
            sample.wall.append(w)
            sample.orders.append(len(case.degrees))
            round_wall += w
            round_cpu += c
            tally.record(verdict(workload, case, out, problem))
        sample.rounds.append((len(cases), round_wall, round_cpu))


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it: the (TAIL_BEYOND + 1)-th largest sample."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * k / len(ordered)


def end_to_end(workload, rounds, seconds: float, tally: Tally):
    setup_time()  # may compile bytecode; not counted
    warm_up(workload, rounds, tally)
    # set-up times are spread over the run so that their median sees the
    # machine over the same half minute as the operations do
    sample = Sample()
    setup, setup_probes = [], []
    for k in range(1, SETUP_REPEATS + 1):
        setup_probes += [process_probe() for _ in range(SETUP_PROBES)]
        setup.append(setup_time())
        measure(workload, rounds, seconds * k / SETUP_REPEATS, tally, sample)
    slow = sample.slowness()
    value, pct = tail(sample.wall)
    metrics = {
        "throughput_ops_s": (sample.throughput(), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(sample.wall) / slow, "ms"),
        "latency_tail_ms": (1000 * value / slow, "ms"),
        "cpu_ms_per_op": (1000 * sample.cpu_per_op(), "ms"),
        "setup_s": (statistics.median(setup) / statistics.median(setup_probes), "s"),
        "peak_rss_mb": (workload.peak_rss_kb() / 1024, "MB"),
    }
    notes = {"latency_tail_percentile": round(pct, 2), "latency_samples": len(sample.wall),
             "rounds": len(sample.rounds), "setup_samples_s": setup,
             "setup_slowness": statistics.median(setup_probes), "slowness": slow,
             "unscaled_total_ops_s": len(sample.wall) / sum(sample.wall)}
    return metrics, notes


# (metric, unit, span, statistic).  Statistics are means per traced
# operation, except "hits/call" and "value/call", which are per call of the
# span (0 when it was never called).
LAYER_METRICS = [
    ("recognizer.recognize.self_ms", "ms", "recognizer.recognize", "self_ms"),
    ("recognizer.candidate_lengths.ms", "ms", "recognizer.candidate_lengths", "ms"),
    ("recognizer.candidates_per_call", "count", "recognizer.candidate_lengths", "value/call"),
    ("recognizer.feasible.calls", "count", "recognizer.feasible", "calls"),
    ("recognizer.feasible.self_ms", "ms", "recognizer.feasible", "self_ms"),
    ("recognizer.feasible.accept_ratio", "ratio", "recognizer.feasible", "hits/call"),
    ("recognizer.perfect_matching.calls", "count", "recognizer.perfect_matching", "calls"),
    ("recognizer.perfect_matching.ms", "ms", "recognizer.perfect_matching", "ms"),
    ("recognizer.perfect_matching.success_ratio", "ratio", "recognizer.perfect_matching",
     "hits/call"),
    ("ranges.bounds_evals", "count", "recognizer.feasible", "order"),
    ("witness.build_witness.ms", "ms", "witness.build_witness", "ms"),
    ("witness.solve_start.calls", "count", "witness.solve_start", "calls"),
    ("witness.solve_start.self_ms", "ms", "witness.solve_start", "self_ms"),
    ("witness.materialize_edges.ms", "ms", "witness.materialize_edges", "ms"),
    ("witness.edges_per_op", "count", "witness.materialize_edges", "edges"),
    ("witness.edge_bytes_computed", "B", "witness.materialize_edges", "bytes"),
    ("witness.verify_witness.ms", "ms", "witness.verify_witness", "ms"),
    ("witness.verify_witness.pass_ratio", "ratio", "witness.verify_witness", "hits/call"),
    ("bittable.contiguous_sum.calls", "count", "bittable.contiguous_sum", "calls"),
    ("bittable.contiguous_sum.ms", "ms", "bittable.contiguous_sum", "ms"),
    ("cli.main.self_ms", "ms", "cli.main", "self_ms"),
]


def layer_metrics(tracer: Tracer, ops: int, order_of_op: list[int], slow: float):
    """LAYER_METRICS over the traced operations, times divided by the
    slowness `slow`; a metric whose span the package no longer has is left
    out."""
    keys = ("calls", "ms", "self_ms", "hits", "value", "order", "edges", "bytes")
    stats = {name: dict.fromkeys(keys, 0) for name in tracer.names}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        name, t0, t1, _, op, value = span
        st = stats[name]
        st["calls"] += 1
        st["ms"] += 1000 * (t1 - t0)
        st["self_ms"] += 1000 * self_s
        st["hits"] += bool(value)
        # feasible evaluates at most n column intervals per call
        st["order"] += order_of_op[op]
        if isinstance(value, tuple):
            st["edges"] += value[0]
            st["bytes"] += value[1]
        elif value:
            st["value"] += value
    out = {}
    for metric, unit, name, stat in LAYER_METRICS:
        if name not in stats:
            continue
        st = stats[name]
        if stat.endswith("/call"):
            key = stat.split("/")[0]
            out[metric] = (st[key] / st["calls"] if st["calls"] else 0.0, unit)
        else:
            out[metric] = (st[stat] / ops / (slow if unit == "ms" else 1), unit)
    return out


def traced(workload, rounds, seconds: float, tally: Tally):
    imports = import_ms(IMPORT_REPEATS)
    if hasattr(workload, "warm"):
        workload.warm()
    warm_up(workload, rounds, tally)
    plain, spanned = Sample(), Sample()
    measure(workload, rounds, seconds / 2, tally, plain)
    tracer = Tracer()
    tracer.install()
    measure(workload, rounds, seconds / 2, tally, spanned, tracer)
    untraced_ops_s = plain.throughput()
    traced_ops_s = spanned.throughput()
    metrics = layer_metrics(tracer, len(spanned.wall), spanned.orders, spanned.slowness())
    metrics.update({
        "import.cyclichd_ms": (imports["cyclichd"], "ms"),
        "import.numpy_ms": (imports["numpy"], "ms"),
        "import.scipy_ms": (imports["scipy"], "ms"),
        "trace.untraced_ops_s": (untraced_ops_s, "1/s"),
        "trace.traced_ops_s": (traced_ops_s, "1/s"),
        "trace.overhead_pct": (100 * (untraced_ops_s / traced_ops_s - 1), "%"),
    })
    notes = {"missing_names": tracer.missing, "traced_ops": len(spanned.wall),
             "untraced_ops": len(plain.wall), "slowness": spanned.slowness()}
    return metrics, notes, tracer


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                               capture_output=True, text=True, cwd=ROOT,
                               timeout=30).stdout.split()
    except OSError:
        lines = []
    # only this checkout's own repository, not one that happens to contain it
    if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        sha = lines[1]
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "blas_threads": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "client": "one closed-loop client in one process",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cyclichd" / "__init__.py").is_file():
        print(f"error: no cyclichd sources under {SRC}", file=sys.stderr)
        return 2
    broken = self_test()
    if broken:
        print("error: the checker missed: " + "; ".join(broken), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](ROOT)
    rounds = workload.rounds(random.Random(args.seed))
    tally = Tally()
    if args.trace:
        metrics, notes, tracer = traced(workload, rounds, args.seconds, tally)
    else:
        metrics, notes = end_to_end(workload, rounds, args.seconds, tally)
        tracer = None

    env = environment()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "error_rate": tally.error_rate,
              "failure_reasons": dict(tally.reasons), "notes": notes,
              "environment": env}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        t_first = tracer.spans[0][1] if tracer.spans else 0.0
        (OUT / f"{stem}-spans.json").write_text(json.dumps({
            "fields": ["name", "start_us", "end_us", "parent", "op"],
            "spans": [[s[0], round(1e6 * (s[1] - t_first), 1),
                       round(1e6 * (s[2] - t_first), 1), s[3], s[4]]
                      for s in tracer.spans]}))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{tally.attempted} attempted, {tally.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {tally.error_rate:.6g} ratio")
    for reason, count in tally.reasons.most_common():
        print(f"  failure: {reason} (x{count})")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    print(f"  environment: {json.dumps(env)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
