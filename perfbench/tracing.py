"""Per-module spans and counters for the traced run (``--trace 1``).

Nothing here runs unless the traced run installs it.  ``Tracer.install``
wraps package functions by rebinding module and class attributes: every
``diffalg`` module attribute (and every attribute of a ``diffalg`` class)
that is the original function is replaced by the wrapper, so a function
imported by name into another module (``suites.check_leibniz``,
``carriers.d_shift``, ``hurwitz.partial``) and a method alias
(``Poly.__rmul__``) are caught too.  ``uninstall`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, op]`` and written
out when the run ends.  A span's self time is its duration minus the
durations of its child spans; the time a wrapper spends counting sizes
after a call is charged to neither span.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

perf = time.perf_counter

CARRIERS = ("poly_sharp", "diffpoly", "hurwitz", "power")

# Suite calls made by run_all, as "<module>.<check>[.<carrier>]".
SUITES = (
    ["suites.codifferential_axioms"]
    + [f"diff_laws.{law}.{c}" for law in ("constant_rule", "leibniz")
       for c in CARRIERS + ("rota_baxter",)]
    + [f"diff_laws.higher_leibniz.{c}" for c in CARRIERS]
    + [f"suites.{law}.{c}" for law in ("chain_rule", "faa_di_bruno") for c in CARRIERS]
    + [f"diff_laws.kernel_closure.{c}" for c in CARRIERS + ("rota_baxter",)]
    + ["diff_laws.derivation_monoid.diffpoly", "diff_laws.derivation_monoid.hurwitz",
       "rota_baxter.rota_baxter"]
    + [f"suites.{law}" for law in (
        "rb_incompatibility", "shuffle_counts", "shift_oracle", "monad_laws",
        "extend_morphism", "eval_recursions", "eval_pointwise", "psi_laws",
        "comonad_laws")]
)

# The functions run_all calls, by the names run_all sees them under.
SUITE_FUNCTIONS = (
    ("diffalg.suites", (
        "check_codifferential_axioms", "check_constant_rule", "check_leibniz",
        "check_higher_leibniz", "chain_rule_suite", "faa_di_bruno_suite",
        "check_kernel_closure", "check_derivation_monoid", "check_rb_incompatibility",
        "check_shuffle_counts", "check_shift_oracle", "check_monad_laws",
        "check_extend_morphism", "check_eval_recursions", "check_eval_pointwise",
        "check_psi_laws", "check_comonad_laws")),
    ("diffalg.rota_baxter", ("check_rota_baxter",)),
)

SAMPLERS = (
    ("diffalg.carriers", ("random_fraction", "random_poly", "random_diffpoly", "random_series")),
    ("diffalg.rota_baxter", ("random_rbelem",)),
    ("diffalg.suites", ("_random_env_poly", "_random_nested")),
    ("diffalg.diff_laws", ("_random_abstract_poly",)),
)

# Per-layer metrics: (name, unit, better).  Each is reported by every
# workload; a layer a workload does not reach reports 0.
PER_LAYER = (
    [("scalars.binom.calls", "count", "lower")]
    + [("polynomial.mul.calls", "count", "lower"),
       ("polynomial.mul.self_s", "s", "lower"),
       ("polynomial.mul.term_products", "count", "lower"),
       ("polynomial.mul.terms_out", "count", "lower"),
       ("polynomial.mul.merge_ratio", "ratio", "lower"),
       ("polynomial.add.calls", "count", "lower"),
       ("polynomial.add.self_s", "s", "lower")]
    + [(f"polynomial.{f}.self_s", "s", "lower") for f in ("derive", "sharp", "substitute", "partial")]
    + [("polynomial.coeff_bits_max", "bits", "lower"),
       ("free_diff.d_shift.calls", "count", "lower"),
       ("free_diff.d_shift.self_s", "s", "lower"),
       ("free_diff.d_shift.terms_out", "count", "lower"),
       ("free_diff.extend.self_s", "s", "lower"),
       ("free_diff.beta.self_s", "s", "lower"),
       ("hurwitz.smul.calls", "count", "lower"),
       ("hurwitz.smul.self_s", "s", "lower"),
       ("hurwitz.smul.coeff_products", "count", "lower")]
    + [(f"hurwitz.{f}.self_s", "s", "lower")
       for f in ("omega_eval", "delta_eval", "ring_eval", "sderive", "psi")]
    + [("rota_baxter.rb_mul.calls", "count", "lower"),
       ("rota_baxter.rb_mul.self_s", "s", "lower"),
       ("rota_baxter.rb_mul.interleavings", "count", "lower"),
       ("rota_baxter.rb_mul.words_out", "count", "lower"),
       ("rota_baxter.rb_mul.dedup_ratio", "ratio", "higher"),
       ("rota_baxter.shuffle.self_s", "s", "lower"),
       ("rota_baxter.rb_P.self_s", "s", "lower")]
    + [(f"{s}.wall_s", "s", "lower") for s in SUITES]
    + [("diff_laws.eval_in_carrier.self_s", "s", "lower"),
       ("carriers.sample.self_s", "s", "lower"),
       ("rng.draws", "count", "lower"),
       ("expr.parse_poly.calls", "count", "lower"),
       ("expr.parse_poly.self_s", "s", "lower"),
       ("cli.interpreter_s", "s", "lower"),
       ("cli.import_s", "s", "lower"),
       ("cli.main.self_s", "s", "lower"),
       ("trace.overhead", "ratio", "lower")]
)

# Counts (and the coefficient size) must repeat exactly for one seed.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bits"))


def _post_mul(tr, args, result):
    from diffalg.polynomial import Poly

    if not isinstance(result, Poly):
        return
    a, b = args
    c = tr.counts
    c["polynomial.mul.term_products"] += a.n_terms() * (b.n_terms() if isinstance(b, Poly) else 1)
    c["polynomial.mul.terms_out"] += result.n_terms()
    bits = max((max(q.numerator.bit_length(), q.denominator.bit_length())
                for _, q in result.terms()), default=0)
    if bits > c["polynomial.coeff_bits_max"]:
        c["polynomial.coeff_bits_max"] = bits


def _post_d_shift(tr, args, result):
    tr.counts["free_diff.d_shift.terms_out"] += result.n_terms()


def _post_smul(tr, args, result):
    n = args[0].order
    tr.counts["hurwitz.smul.coeff_products"] += (n + 1) * (n + 2) // 2


def _post_rb_mul(tr, args, result):
    s, t = args
    c = tr.counts
    c["rota_baxter.rb_mul.interleavings"] += sum(
        math.comb(len(w1) + len(w2), len(w1)) for (w1, _), _c in s.terms() for (w2, _), _d in t.terms())
    c["rota_baxter.rb_mul.words_out"] += sum(1 for _ in result.terms())


# (module, owner class or None, attribute, span name, post-call counter)
SPANS = (
    [("diffalg.polynomial", "Poly", "__mul__", "polynomial.mul", _post_mul),
     ("diffalg.polynomial", "Poly", "__add__", "polynomial.add", None)]
    + [("diffalg.polynomial", None, f, f"polynomial.{f}", None)
       for f in ("derive", "sharp", "substitute", "partial")]
    + [("diffalg.free_diff", None, "d_shift", "free_diff.d_shift", _post_d_shift),
       ("diffalg.free_diff", None, "extend", "free_diff.extend", None),
       ("diffalg.free_diff", None, "beta", "free_diff.beta", None),
       ("diffalg.hurwitz", None, "smul", "hurwitz.smul", _post_smul)]
    + [("diffalg.hurwitz", None, f, f"hurwitz.{f}", None)
       for f in ("omega_eval", "delta_eval", "ring_eval", "sderive", "psi")]
    # psi_inv is the same isomorphism read backwards; it shares psi's span.
    + [("diffalg.hurwitz", None, "psi_inv", "hurwitz.psi", None),
       ("diffalg.rota_baxter", None, "rb_mul", "rota_baxter.rb_mul", _post_rb_mul),
       ("diffalg.rota_baxter", None, "shuffle", "rota_baxter.shuffle", None),
       ("diffalg.rota_baxter", None, "rb_P", "rota_baxter.rb_P", None),
       ("diffalg.diff_laws", None, "eval_in_carrier", "diff_laws.eval_in_carrier", None),
       ("diffalg.expr", None, "parse_poly", "expr.parse_poly", None),
       ("diffalg.cli", None, "main", "cli.main", None)]
    + [(mod, None, f, "carriers.sample", None) for mod, fs in SAMPLERS for f in fs]
)

COUNTERS = (
    ("diffalg.scalars", None, "binom", "scalars.binom.calls"),
    ("diffalg.rng", "SplitMix64", "next_u64", "rng.draws"),
)


def _suite_span(fn) -> str:
    """The metric stem of a suite function: module, check name, carrier."""
    check = fn.__name__.removeprefix("check_").removesuffix("_suite")
    return f"{fn.__module__.removeprefix('diffalg.')}.{check}"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.keep_spans = True
        self.op = -1
        self._stack: list = []
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self._patches: list = []

    def reset(self) -> None:
        """Start a new pass: clear the aggregates (in place, because the
        installed wrappers hold them)."""
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()
        self.counts.clear()

    def call(self, name, fn, args, kwargs, post=None):
        stack = self._stack
        rec = None
        if self.keep_spans:
            rec = [name, 0.0, 0.0, stack[-1][0] if stack else -1, self.op]
            self.spans.append(rec)
        frame = [len(self.spans) - 1, 0.0]
        stack.append(frame)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            dur = t1 - t0
            self.self_s[name] += dur - frame[1]
            self.incl_s[name] += dur
            self.calls[name] += 1
            if rec is not None:
                rec[1], rec[2] = t0, t1
            if stack:
                stack[-1][1] += dur
        if post is not None:
            post(self, args, result)
            if stack:
                stack[-1][1] += perf() - t1
        return result

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "diffalg" or mod_name.startswith("diffalg.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)
                elif isinstance(value, type) and value.__module__.startswith("diffalg"):
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            self._patch(value, cattr, wrapper)

    @staticmethod
    def _lookup(mod_name, owner, attr):
        mod = importlib.import_module(mod_name)
        holder = getattr(mod, owner) if owner else mod
        return holder.__dict__.get(attr) if owner else getattr(mod, attr, None)

    def _span_wrapper(self, name, fn, post):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, post)
        return wrapper

    def _suite_wrapper(self, fn):
        from diffalg.diff_laws import DiffCarrier

        stem = _suite_span(fn)

        def wrapper(*args, **kwargs):
            carrier = next((a.name for a in args if isinstance(a, DiffCarrier)), None)
            name = f"{stem}.{carrier}" if carrier else stem
            return self.call(name, fn, args, kwargs)
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; a target a later version of the
        package drops is skipped and its metrics read 0."""
        for mod_name, owner, attr, name, post in SPANS:
            fn = self._lookup(mod_name, owner, attr)
            if fn is not None:
                self._rebind(fn, self._span_wrapper(name, fn, post))
        for mod_name, owner, attr, name in COUNTERS:
            fn = self._lookup(mod_name, owner, attr)
            if fn is not None:
                self._rebind(fn, self._counter(name, fn))
        for mod_name, attrs in SUITE_FUNCTIONS:
            for attr in attrs:
                fn = self._lookup(mod_name, None, attr)
                if fn is not None:
                    self._rebind(fn, self._suite_wrapper(fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, requests: int) -> dict:
        """This pass's per-layer numbers, keyed by metric name (the cli
        floors and the tracing overhead are filled in by the caller)."""
        c, calls, self_s = self.counts, self.calls, self.self_s
        m = {name: 0 for name, _, _ in PER_LAYER}
        m.update({k: v for k, v in c.items() if k in m})
        for span in ("polynomial.mul", "polynomial.add", "free_diff.d_shift",
                     "hurwitz.smul", "rota_baxter.rb_mul", "expr.parse_poly"):
            m[f"{span}.calls"] = calls[span]
        for name in m:
            if name.endswith(".self_s"):
                m[name] = self_s[name.removesuffix(".self_s")]
        for s in SUITES:
            m[f"{s}.wall_s"] = self.incl_s[s]
        tp = c["polynomial.mul.term_products"]
        m["polynomial.mul.merge_ratio"] = c["polynomial.mul.terms_out"] / tp if tp else 0.0
        il = c["rota_baxter.rb_mul.interleavings"]
        m["rota_baxter.rb_mul.dedup_ratio"] = c["rota_baxter.rb_mul.words_out"] / il if il else 0.0
        m["cli.main.self_s"] = self_s["cli.main"] / requests if calls["cli.main"] else 0.0
        return m

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
