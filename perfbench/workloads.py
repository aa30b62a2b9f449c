"""The three workloads: their inputs, one operation, and its check.

Each workload yields its inputs in fixed rounds so that every run, whatever
its seed, sees the same mix of costs; the seed only changes the values.
Operations call cyclichd through module attributes, so a tracer that
rebinds those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import gen
from check import (
    check_assignment,
    check_cli_document,
    check_decision,
    check_edges,
    check_witness,
)


GOLDEN = (5 ** 0.5 - 1) / 2


def child_env(src) -> dict[str, str]:
    """This process's environment with `src` first on PYTHONPATH."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return env


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Workload:
    cold = False  # whether each operation runs in a fresh process

    def cpu_clock(self) -> float:
        """CPU seconds spent by whatever runs the operations."""
        return time.process_time()

    def peak_rss_kb(self) -> int:
        """Peak resident set of the process(es) that ran the operations."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Decide(Workload):
    """`recognize` at order 128: planted, uniform and near-miss in equal
    shares.  Almost all time is in the recognizer."""

    name = "decide"
    ORDER = 128

    def __init__(self, root) -> None:
        import cyclichd.recognizer

        self.rec = cyclichd.recognizer

    def rounds(self, rng):
        n = self.ORDER
        while True:
            yield [gen.planted(rng, n), gen.uniform(rng, n), gen.near_miss(rng, n)]

    def op(self, case):
        return self.rec.recognize(self.rec.DegreeSequence(case.degrees))

    def check(self, case, out) -> str | None:
        if out is None:
            return check_decision(case, False)
        return check_assignment(case.degrees, out.N, out.perm)


class CertifyEdges(Workload):
    """recognize -> build_witness -> materialize_edges -> verify_witness on
    planted sequences.  n=48 takes the int64 edge path and n=96 the big-int
    path; their window lengths are chosen so that each path gets a similar
    share of the time, so a change to either one shows end to end."""

    name = "certify_edges"
    # (order, k): one planted sequence with N in [2^k, 2^(k+1)) per round
    PLAN = [(48, 15), (48, 16), (48, 17), (96, 10), (96, 11), (96, 12)]

    def __init__(self, root) -> None:
        import cyclichd.recognizer
        import cyclichd.witness

        self.rec = cyclichd.recognizer
        self.wit = cyclichd.witness

    def rounds(self, rng):
        # N = 2^k (1 + u), u stepping by the golden ratio from a seeded
        # start per slot: a few dozen rounds cover each octave evenly, so
        # the costliest operations, which set the tail, cost about the same
        # whatever the seed (uniform draws of N moved the tail by a tenth)
        us = [rng.random() for _ in self.PLAN]
        while True:
            us = [(u + GOLDEN) % 1 for u in us]
            yield [gen.planted(rng, n, int((1 + u) * (1 << k)))
                   for (n, k), u in zip(self.PLAN, us)]

    def op(self, case):
        w = self.rec.DegreeSequence(case.degrees)
        assignment = self.rec.recognize(w)
        if assignment is None:
            return None
        witness = self.wit.build_witness(w, assignment)
        edges = self.wit.materialize_edges(witness)
        return witness, edges, self.wit.verify_witness(w, witness)

    def check(self, case, out) -> str | None:
        if out is None:
            return check_decision(case, False)
        witness, edges, verified = out
        if verified is not True:
            return "verify_witness rejected the program's own certificate"
        return (check_witness(case.degrees, witness.N, witness.perm, witness.starts)
                or check_edges(case.degrees, witness.N, list(map(int, edges))))


class CliCold(Workload):
    """One cold `python -m cyclichd.cli witness --json --edges` process per
    sequence, n <= 16: interpreter start, imports, argparse and JSON
    dominate.  A traced run calls cyclichd.cli.main in-process instead,
    since spans cannot be taken inside a child from outside."""

    name = "cli_cold"
    MAX_EDGES = 1 << 16  # 2^n for n = 16, so no certificate hits the cap

    def __init__(self, root) -> None:
        self.root = root
        self.env = child_env(root / "src")
        self.cold = True

    def warm(self) -> None:
        """Switch to in-process calls of cyclichd.cli.main (traced runs)."""
        import cyclichd.cli

        self.cli = cyclichd.cli
        self.cold = False

    def rounds(self, rng):
        while True:
            n1, n2 = rng.randint(4, 16), rng.randint(4, 16)
            yield [gen.planted(rng, n1, rng.randint(1, min(1 << n1, 4096))),
                   gen.uniform(rng, n2)]

    def argv(self, case) -> list[str]:
        return ["witness", "--degrees", ",".join(map(str, case.degrees)),
                "--json", "--edges", "--max-edges", str(self.MAX_EDGES)]

    def op(self, case):
        if not self.cold:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(self.argv(case))
            return code, out.getvalue(), err.getvalue()
        r = subprocess.run([sys.executable, "-m", "cyclichd.cli", *self.argv(case)],
                           capture_output=True, text=True, cwd=self.root,
                           env=self.env, timeout=60)
        return r.returncode, r.stdout, r.stderr

    def cpu_clock(self) -> float:
        return _children_cpu() if self.cold else super().cpu_clock()

    def peak_rss_kb(self) -> int:
        # every child imports at least the package, so the largest child is
        # a CLI process, not one of the set-up probes
        if not self.cold:
            return super().peak_rss_kb()
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def check(self, case, out) -> str | None:
        code, stdout, stderr = out
        if "Traceback" in stderr:
            return "traceback on stderr"
        try:
            doc = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return "no JSON document on stdout"
        return check_cli_document(case, code, doc)


WORKLOADS = {w.name: w for w in (Decide, CertifyEdges, CliCold)}
