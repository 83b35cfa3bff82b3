"""The diffalg benchmark.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload shuffle --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` measures one untraced pass, then traced passes, and reports
the per-module metrics.  ``--smoke`` runs every workload, untraced and
traced twice, at tiny sizes, and exits 1 if any check fails.

Every run prints one line per metric, a JSON report line (environment,
every metric including ``fail_ratio``), and last a JSON result line:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import harness
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"
WORKLOADS = ("laws", "series", "shuffle", "cli")
PROBES = {"full": 7, "smoke": 1}
FLOOR_RUNS = {"full": 5, "smoke": 1}
LAWS_REPEAT = 10

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _cli_ops(requests, peak_kib: list) -> list:
    """Each request as a fresh ``python -m diffalg.cli`` process."""
    import workloads

    def op(req):
        def run():
            code, out, rss = harness.run_child([sys.executable, "-m", "diffalg.cli", *req.argv],
                                               req.stdin)
            peak_kib[0] = max(peak_kib[0], rss)
            return code, out
        return workloads.Op(req.kind, run, lambda r: r[0] == 0 and req.check(r[1]))

    return [op(r) for r in requests]


def _cli_inprocess_ops(requests) -> list:
    """Each request through ``diffalg.cli.main`` in this process, for the
    traced run."""
    import diffalg.cli
    import workloads

    def op(req):
        def run():
            saved, sys.stdin = sys.stdin, io.StringIO(req.stdin)
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = diffalg.cli.main(list(req.argv))
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code
            finally:
                sys.stdin = saved
            return code, out.getvalue()
        return workloads.Op(req.kind, run, lambda r: r[0] == 0 and req.check(r[1]))

    return [op(r) for r in requests]


def setup_time(workload: str, seed: int, size: str, n_ops: int) -> float:
    """Median set-up seconds over fresh interpreters, each scaled by the
    speed kernel timed in that interpreter; the first child only warms the
    bytecode cache."""
    argv = [sys.executable, str(HERE / "probe.py"), "--workload", workload,
            "--seed", str(seed), "--size", size]
    values = []
    for i in range(PROBES[size] + 1):
        code, out, _ = harness.run_child(argv)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {out.strip()}")
        rec = json.loads(out.strip().splitlines()[-1])
        if rec["ops"] != n_ops:
            raise RuntimeError(f"set-up probe built {rec['ops']} ops, expected {n_ops}")
        if i:
            values.append(rec["setup_s"] * harness.SpeedProbe.REF / rec["kernel_s"])
    return statistics.median(values)


def golden_check() -> tuple[bool, int]:
    """``diffalg laws`` on the default seed, in a fresh process, against the
    digest of its stdout in golden.json; also that process's peak RSS in KiB."""
    golden = json.loads(GOLDEN.read_text())
    code, out, rss = harness.run_child([sys.executable, "-m", "diffalg.cli", "laws",
                                        "--seed", str(golden["seed"]),
                                        "--trials", str(golden["trials"])])
    ok = (code == 0 and hashlib.sha256(out.encode()).hexdigest() == golden["sha256"]
          and out.count("\n") == golden["lines"])
    return ok, rss


def _source_key() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def counts_repeat(workload: str, seed: int, size: str, counts: dict) -> bool:
    """Exact counts must repeat across traced runs of one seed and one
    source tree: the first run stores them, later runs compare."""
    path = OUT / f"counts-{workload}-{size}-seed{seed}-{_source_key()}.json"
    if path.exists():
        return json.loads(path.read_text()) == counts
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return True


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple:
    """Return (report, result) for one run."""
    import workloads

    probe = harness.SpeedProbe()
    interpreter_s = harness.interpreter_floor(FLOOR_RUNS[size], probe)
    built = workloads.build(workload, seed, size)
    attempted = failed = 0
    golden_kib = 0
    if workload == "laws":
        attempted += 1
        try:
            golden_ok, golden_kib = golden_check()
        except Exception as exc:  # the golden check itself failing is a failure
            golden_ok = False
            log(f"golden check raised {type(exc).__name__}: {exc}")
        if not golden_ok:
            failed += 1
            log("laws output for the default seed does not match golden.json")
    env = harness.environment(seed, interpreter_s)
    env.update(workload=workload, trace=int(trace), ops=len(built))

    if trace:
        metrics, extra, m_attempted, m_failed = _traced(workload, seed, seconds, size, built,
                                                        interpreter_s, probe)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics, extra, m_attempted, m_failed = _untraced(workload, seed, seconds, size, built,
                                                          probe)
        units = E2E_UNITS
        if workload == "laws":
            # This process's own peak is set by the heaviest of 120 random
            # law trials, an extreme value that differs widely between
            # seeds.  The golden check's `diffalg laws` child runs fixed
            # inputs through the user-facing command.
            extra["workload_peak_rss_mb"] = metrics["peak_rss_mb"]
            metrics["peak_rss_mb"] = golden_kib / 1024
    env.update(extra)
    attempted += m_attempted
    failed += m_failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    shown = dict(result["metrics"])
    shown["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    report = {"report": env, "metrics": shown}
    return report, result


def _untraced(workload, seed, seconds, size, built, probe):
    setup_s = setup_time(workload, seed, size, len(built))
    peak = [0]
    ops = _cli_ops(built, peak) if workload == "cli" else built
    m = harness.measure(ops, seconds, probe, log=log)
    attempted, failed = m.attempted, m.failed
    if workload == "laws" and m.passes == 1:
        # Every run compares the report lines of a repetition byte for byte.
        again = harness.measure(ops[:LAWS_REPEAT], 0.0, probe, prints=m.prints[:LAWS_REPEAT],
                                log=log)
        attempted, failed = attempted + again.attempted, failed + again.failed
    lat = harness.latency_stats(m.latencies)
    raw = harness.latency_stats(m.raw)
    peak_kib = peak[0] if workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "wall_s": lat["wall"],
        "op_p50_ms": lat["p50"] * 1e3,
        "op_tail_ms": lat["tail"] * 1e3,
        "peak_rss_mb": peak_kib / 1024,
    }
    extra = {"passes": m.passes, "op_tail_percentile": lat["tail_percentile"],
             "op_tail_samples": lat["samples"], "kernel_ms": probe.kernel_median() * 1e3,
             "unscaled": {"wall_s": raw["wall"], "op_p50_ms": raw["p50"] * 1e3,
                          "op_tail_ms": raw["tail"] * 1e3}}
    return metrics, extra, attempted, failed


def _traced(workload, seed, seconds, size, built, interpreter_s, probe):
    ops = _cli_inprocess_ops(built) if workload == "cli" else built
    start = time.perf_counter()
    # Two untraced passes: the second is the reference for the overhead
    # (the first also runs the full checks and warms caches, such as the
    # inputs' cached hashes); the traced passes must reproduce the results.
    ref = harness.measure(ops, 0.0, probe, log=log, min_passes=2)
    tracer = tracing.Tracer()
    passes: list = []

    def on_op(i):
        tracer.op = i

    def on_pass(scale):
        layer = tracer.layer_metrics(len(ops))
        for name, unit, _ in tracing.PER_LAYER:
            if unit == "s":
                layer[name] *= scale
        passes.append(layer)
        tracer.reset()
        tracer.keep_spans = False

    tracer.install()
    try:
        m = harness.measure(ops, max(seconds - (time.perf_counter() - start), 0.0), probe,
                            prints=ref.prints, on_op=on_op, on_pass=on_pass, log=log)
    finally:
        tracer.uninstall()
    tracer.write_spans(OUT / f"spans-{workload}-{size}-seed{seed}.jsonl")

    attempted, failed = ref.attempted + m.attempted, ref.failed + m.failed
    counts = {k: passes[0][k] for k in tracing.EXACT}
    repeat_ok = all({k: p[k] for k in tracing.EXACT} == counts for p in passes)
    repeat_ok = counts_repeat(workload, seed, size, counts) and repeat_ok
    attempted += 1
    if not repeat_ok:
        failed += 1
        log("exact counts differ between traced passes or traced runs of this seed")

    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        values = [p[name] for p in passes]
        metrics[name] = values[0] if name in tracing.EXACT else statistics.median(values)
    metrics["cli.interpreter_s"] = interpreter_s
    import_s = harness.timed_child_median([sys.executable, "-c", "import diffalg.cli"],
                                          FLOOR_RUNS[size], probe)
    metrics["cli.import_s"] = import_s - interpreter_s
    metrics["trace.overhead"] = statistics.median(m.walls) / ref.walls[-1]
    extra = {"passes": m.passes, "untraced_wall_s": ref.walls[-1],
             "traced_wall_s": statistics.median(m.walls), "counts_repeat": repeat_ok,
             "kernel_ms": probe.kernel_median() * 1e3}
    return metrics, extra, attempted, failed


def emit(report: dict, result: dict) -> None:
    for name, metric in report["metrics"].items():
        print(f"{name:45s} {metric['value']!r} {metric['unit']}")
    print(json.dumps(report))
    print(json.dumps(result), flush=True)


def smoke(seed: int) -> int:
    """Every workload at tiny sizes: untraced once, traced twice (the
    second traced run checks that the exact counts repeat)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in declared["end_to_end"]}
    layers = {m["name"] for m in declared["per_layer"]}
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True, True):
            t0 = time.perf_counter()
            report, result = run_workload(workload, seed, 0.0, trace, "smoke")
            names_ok = set(result["metrics"]) == (layers if trace else e2e)
            ok = ok and result["correct"] and names_ok
            print(f"smoke {workload:8s} trace={int(trace)} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"names_match={names_ok} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    if not (SRC / "diffalg" / "__init__.py").is_file():
        log(f"error: no package at {SRC / 'diffalg'}; run from the root of a diffalg checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import diffalg

    if Path(diffalg.__file__).resolve().parent != (SRC / "diffalg").resolve():
        log(f"error: imported diffalg from {diffalg.__file__}, not from {SRC}")
        return 2

    if args.smoke:
        return smoke(args.seed)
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    emit(report, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
