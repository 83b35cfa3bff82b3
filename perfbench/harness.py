"""Timing loop, statistics and child processes for the benchmark."""

from __future__ import annotations

import bisect
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

perf = time.perf_counter

_FAILED = object()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, stdin: str = "", timeout: float = 120.0) -> tuple[int, str, int]:
    """Run a process from the checkout root; return its exit code, its
    stdout (with stderr) and its own peak resident set in KiB.

    The child is reaped with ``os.wait4`` so that its resource usage is its
    own and not the maximum over every child this process has had.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        if stdin:
            try:
                proc.stdin.write(stdin.encode())
                proc.stdin.close()
            except BrokenPipeError:
                pass
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(errors="replace"), usage.ru_maxrss


_VARS = "uvwxyz"
_P = [(tuple((_VARS[(i + k) % 6], 1 + (i * k) % 3) for k in range(1 + i % 3)),
       Fraction(i - 4, 1 + i % 5)) for i in range(12)]
_Q = [(tuple((_VARS[(2 * i + k) % 6], 1 + k) for k in range(1 + (i + 1) % 3)),
       Fraction(3 - i, 2 + i % 3)) for i in range(12)]


def kernel() -> float:
    """Seconds for a fixed 12-by-12 sparse polynomial product over
    Fractions with merged monomial tuples: the package's kind of work, but
    none of its code."""
    t0 = perf()
    out: dict = {}
    for m1, c1 in _P:
        for m2, c2 in _Q:
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items()))
            acc = out.get(m, 0) + c1 * c2
            if acc:
                out[m] = acc
            else:
                out.pop(m, None)
    return perf() - t0


class SpeedProbe:
    """The host's speed, sampled between operations.

    On a host shared with other tenants, the same code can run at two speeds
    about 2x apart and switch every few seconds to minutes, so raw times of
    one seed differ by up to 2x between runs.  ``kernel`` is timed at least
    every ``INTERVAL`` seconds, and each measured time is scaled by ``REF``
    over the median kernel time around it: times read as on a host where
    the kernel takes ``REF`` seconds.
    """

    INTERVAL = 0.05
    REF = 1e-3

    def __init__(self):
        self.at: list = []
        self.cost: list = []

    def sample(self) -> None:
        t0 = perf()
        self.cost.append(kernel())
        self.at.append(t0)

    def due(self) -> bool:
        return not self.at or perf() - self.at[-1] >= self.INTERVAL

    def scale(self, t0: float, t1: float) -> float:
        """Factor for a span: two kernel samples before its middle, two after."""
        j = bisect.bisect(self.at, (t0 + t1) / 2)
        return self.REF / statistics.median(self.cost[max(0, j - 2):j + 2])

    def kernel_median(self) -> float:
        return statistics.median(self.cost)


def timed_child_median(argv: list, runs: int, probe: SpeedProbe) -> float:
    """Median scaled wall seconds of a child process."""
    times = []
    for _ in range(runs):
        probe.sample()
        t0 = perf()
        code, out, _ = run_child(argv)
        t1 = perf()
        probe.sample()
        times.append((t1 - t0) * probe.scale(t0, t1))
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}: {out.strip()}")
    return statistics.median(times)


def interpreter_floor(runs: int, probe: SpeedProbe) -> float:
    """Median wall seconds of ``python -c pass``: start-up the package
    cannot move."""
    return timed_child_median([sys.executable, "-c", "pass"], runs, probe)


def fingerprint(value):
    """A cheap stand-in for a result, compared across passes."""
    if isinstance(value, (str, bytes, int)):
        return value
    if isinstance(value, dict):
        return hash(frozenset(value.items()))
    if isinstance(value, tuple):
        return tuple(fingerprint(v) for v in value)
    return hash(value)


@dataclass
class Measurement:
    latencies: list                    # per op, one scaled time per pass
    raw: list                          # the same, unscaled
    walls: list = field(default_factory=list)   # per pass: summed scaled op time
    attempted: int = 0
    failed: int = 0
    prints: list = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.walls)


def measure(ops, seconds: float, probe: SpeedProbe, prints=None, on_op=None,
            on_pass=None, log=None, min_passes: int = 1) -> Measurement:
    """Run the op list in passes until another pass would overrun
    ``seconds`` of real time (at least ``min_passes`` passes).

    The first time an op runs here its result gets the op's own check,
    unless ``prints`` holds fingerprints from an earlier measurement; after
    that each result must match the first one's fingerprint.  An op that
    raises, fails its check or differs counts as failed.  ``on_pass`` gets
    the pass's scaled over raw op time.
    """
    m = Measurement(latencies=[[] for _ in ops], raw=[[] for _ in ops],
                    prints=list(prints) if prints else [None] * len(ops))
    start = perf()
    raw_walls = []
    while True:
        spans = []
        for i, op in enumerate(ops):
            if probe.due():
                probe.sample()
            if on_op is not None:
                on_op(i)
            t0 = perf()
            try:
                result = op.run()
                ok = True
            except Exception as exc:  # an op that raises is a counted failure
                result, ok = None, False
                if log:
                    log(f"op {i} ({op.kind}) raised {type(exc).__name__}: {exc}")
            spans.append((t0, perf()))
            m.attempted += 1
            if ok:
                ok = _verify(op, result, m.prints, i, log)
            if not ok:
                m.failed += 1
                m.prints[i] = _FAILED
            result = None
        probe.sample()
        wall = raw_wall = 0.0
        for i, (t0, t1) in enumerate(spans):
            scaled = (t1 - t0) * probe.scale(t0, t1)
            m.raw[i].append(t1 - t0)
            m.latencies[i].append(scaled)
            raw_wall += t1 - t0
            wall += scaled
        m.walls.append(wall)
        raw_walls.append(raw_wall)
        if on_pass is not None:
            on_pass(wall / raw_wall if raw_wall else 1.0)
        if m.passes >= min_passes and perf() - start + statistics.median(raw_walls) > seconds:
            return m


def _verify(op, result, prints, i, log) -> bool:
    if prints[i] is _FAILED:
        return False
    if prints[i] is None:
        try:
            ok = bool(op.check(result))
        except Exception as exc:  # a check that cannot run on the result fails it
            ok = False
            if log:
                log(f"op {i} ({op.kind}) check raised {type(exc).__name__}: {exc}")
        if not ok:
            if log:
                log(f"op {i} ({op.kind}) failed its check")
            return False
        prints[i] = fingerprint(result)
        return True
    if fingerprint(result) != prints[i]:
        if log:
            log(f"op {i} ({op.kind}) differs from its first result")
        return False
    return True


def latency_stats(latencies: list) -> dict:
    """Each op's latency is its median over the passes, so the sample count
    (the op count) and hence the tail percentile do not depend on how many
    passes fit in the run.  ``wall`` is one pass of the op list at those
    latencies, which is steadier than the median pass."""
    per_op = sorted(statistics.median(ts) for ts in latencies)
    n = len(per_op)
    if n > 10:
        tail, pct = per_op[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = per_op[-1], 100.0
    return {"wall": sum(per_op), "p50": statistics.median(per_op), "tail": tail,
            "tail_percentile": pct, "samples": n}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, interpreter_s: float) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
        "cli.interpreter_s": interpreter_s,
    }
