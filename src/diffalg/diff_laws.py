"""A reusable harness for checking derivation laws on any carrier.

A carrier is a behavioral bundle: ring operations, a rational scalar
action, an endomorphism D, and a seeded random-element generator.  Each
check runs a deterministic number of seeded trials through
:func:`run_trials` and returns a :class:`LawReport` with the first
counterexample on failure; rerunning with the same (seed, trials)
reproduces the identical report.

The laws:

* constant rule        D(1) = 0
* Leibniz rule         D(ab) = a·D(b) + D(a)·b
* higher-order Leibniz D^n(ab) = sum_k C(n,k) D^k(a)·D^(n-k)(b)
* chain rule           D(p(a_1..a_m)) = sum_j (dp/dx_j)(a_1..a_m)·D(a_j)
* higher-order chain   D^(n+1)(p(a⃗)) = sum_k C(n,k) sum_j
                         D^k((dp/dx_j)(a⃗)) · D^(n-k+1)(a_j)
* kernel closure       D(a) = D(b) = 0  implies  D(ab) = 0
* derivation monoid    the pointwise sum of two derivations is one

Chain-rule-style checks take an explicit polynomial p and an environment
mapping its variables to carrier elements; the polynomial is evaluated
through the carrier's own ring operations.  Carriers whose elements are
truncated series compare results only on the shared validity window; the
harness always compares through the carrier's ``eq``.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .errors import UnboundVariable
from .free_diff import natural_map
from .polynomial import Poly, evaluate, mono_from_exponents, partial
from .rng import SplitMix64
from .scalars import binom

# The formal variables X1, X2, ... of the chain-rule-style laws.
FORMAL_VARS = ("X1", "X2", "X3")


@dataclass(frozen=True)
class LawReport:
    """Outcome of one law check.  ``passed`` is true iff no counterexample
    was found; ``skipped`` marks checks whose precondition failed."""

    law: str
    trials: int
    passed: bool
    seed: int
    counterexample: dict | None = None
    skipped: bool = False

    def to_json_dict(self) -> dict:
        out = {"law": self.law, "trials": self.trials, "pass": self.passed, "seed": self.seed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.skipped:
            out["skipped"] = True
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=False)


@dataclass(frozen=True)
class DiffCarrier:
    """A ring with a derivation and a seeded element generator.

    ``sample(rng, size)`` draws a random element of bounded complexity;
    ``add``, ``mul`` and ``scale`` default to the elements' own ``+`` and
    ``*``; ``eq`` is the comparison the laws are checked under (series
    carriers restrict it to the shared truncation window);
    ``sample_kernel``, when present, draws elements with D = 0;
    ``sum_products``, when present, builds a nonempty sum of products in
    one pass (see :func:`sum_of_products`); ``sum_hurwitz(pairs, order)``,
    when present, returns the list, for n <= order, of the sums over a
    nonempty list of (int w, tower a, tower b) pairs and over k <= n of
    w·C(n,k)·a[k]·b[n-k] (see :func:`hurwitz_sums`).
    """

    name: str
    zero: object
    one: object
    d: Callable
    sample: Callable  # (SplitMix64, int) -> elem
    add: Callable = operator.add
    mul: Callable = operator.mul
    scale: Callable = operator.mul  # (Fraction, elem) -> elem
    eq: Callable = operator.eq
    sample_kernel: Callable | None = None
    sum_products: Callable | None = None  # [(int, elem, elem), ...] -> elem
    sum_hurwitz: Callable | None = None  # ([(int, tower, tower), ...], int) -> [elem, ...]


COEFF_DEN = 12  # every denominator of a harness coefficient divides it


def random_numerator(rng: SplitMix64) -> int:
    """A harness coefficient n/d (|n| <= 9, then 1 <= d <= 4) over COEFF_DEN."""
    return rng.randint(-9, 9) * (COEFF_DEN // rng.randint(1, 4))


def random_fraction(rng: SplitMix64) -> Fraction:
    """A harness coefficient, as a Fraction."""
    return Fraction(random_numerator(rng), COEFF_DEN)


def sample_poly(rng: SplitMix64, draw_var: Callable, max_terms: int, max_degree: int) -> Poly:
    """The random polynomial of the harness: 1 to max_terms terms, each a
    product of 0 to max_degree variables drawn by draw_var(rng), with a
    :func:`random_numerator` coefficient (zero drops the term).  Every
    random polynomial the laws use is drawn here; the variables (plain
    names, derivative variables, encoded nestings) are the only difference,
    and draw_var decides them."""
    out: dict = {}
    for _ in range(rng.randint(1, max(max_terms, 1))):
        m = mono_from_exponents(sample_exponents(rng, draw_var, max_degree))
        out[m] = out.get(m, 0) + random_numerator(rng)
    return Poly._from_ints(out, COEFF_DEN)


def sample_exponents(rng: SplitMix64, draw_var: Callable, max_degree: int) -> dict:
    """A random monomial of degree at most max_degree, as a variable ->
    exponent map: the product of 0 to max_degree draws of draw_var(rng)."""
    exps: dict = {}
    for _ in range(rng.randint(0, max_degree)):
        v = draw_var(rng)
        exps[v] = exps.get(v, 0) + 1
    return exps


def pick(pool) -> Callable:
    """A draw_var for :func:`sample_poly`: a uniform choice from pool."""
    return lambda rng: rng.choice(pool)


def eval_in_carrier(c: DiffCarrier, p: Poly, env: Mapping):
    """Evaluate a polynomial at carrier elements through the carrier's ring
    operations.  Raises :class:`UnboundVariable` for missing variables."""

    def value(v):
        if v not in env:
            raise UnboundVariable(f"no carrier element for variable {v!r}")
        return env[v]

    return evaluate(p, value, c.one, c.mul, c.zero, c.add, c.scale)


def sum_of_products(c: DiffCarrier, triples):
    """The sum of w·a·b over (int w, a, b) triples, each law's right-hand
    side: c.sum_products of a nonempty sum, else the fold of c.add,
    c.scale and c.mul from c.zero, whose value and window it keeps."""
    triples = list(triples)
    if triples and c.sum_products is not None:
        return c.sum_products(triples)
    total = c.zero
    for w, a, b in triples:
        total = c.add(total, c.scale(Fraction(w), c.mul(a, b)))
    return total


def hurwitz_sums(c: DiffCarrier, pairs: list, order: int) -> list:
    """Components 0, ..., order of the sum of the Hurwitz products of towers
    in pairs, the right-hand sides of higher Leibniz and Faà di Bruno:
    c.sum_hurwitz of a nonempty sum, else one sum_of_products per n."""
    if pairs and c.sum_hurwitz is not None:
        return c.sum_hurwitz(pairs, order)
    return [sum_of_products(c, ((w * binom(n, k), a[k], b[n - k])
                                for w, a, b in pairs for k in range(n + 1)))
            for n in range(order + 1)]


def counterexample(inputs: Mapping, lhs, rhs) -> dict:
    """The report form of a failed trial: every input, then both sides of
    the law, as strings."""
    out = {str(k): str(v) for k, v in inputs.items()}
    out["lhs"] = str(lhs)
    out["rhs"] = str(rhs)
    return out


def mismatch(inputs: Mapping, lhs, rhs, eq: Callable = operator.eq) -> dict | None:
    """None when lhs and rhs agree under eq, else the counterexample."""
    return None if eq(lhs, rhs) else counterexample(inputs, lhs, rhs)


def first_failure(outcomes) -> dict | None:
    """The first counterexample among trial outcomes (None for a pass);
    stops consuming outcomes at the first failure."""
    return next((ce for ce in outcomes if ce is not None), None)


# A trial outcome: the law's precondition does not hold on the drawn inputs.
SKIP = object()


def run_trials(law: str, trials: int, seed: int, trial: Callable,
               rng: SplitMix64 | None = None) -> LawReport:
    """Run trial(rng) up to ``trials`` times and report the first failure.

    A trial draws its inputs from rng (by default a fresh stream seeded
    with seed; the laws of one suite pass the stream they share) and
    returns None when the law holds, a counterexample dict when it fails,
    or :data:`SKIP` when its precondition fails, which ends the run as
    passed and skipped.  A report that stops early counts the trials run.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if rng is None:
        rng = SplitMix64(seed)
    for i in range(trials):
        outcome = trial(rng)
        if outcome is SKIP:
            return LawReport(law=law, trials=i + 1, passed=True, seed=seed, skipped=True)
        if outcome is not None:
            return LawReport(law=law, trials=i + 1, passed=False, seed=seed,
                             counterexample=outcome)
    return LawReport(law=law, trials=trials, passed=True, seed=seed)


def check_constant_rule(c: DiffCarrier, trials: int, seed: int) -> LawReport:
    """D(1) = 0.  Deterministic; trials beyond the single check are moot."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return run_trials(f"constant_rule[{c.name}]", 1, seed,
                      lambda rng: mismatch({"input": c.one}, c.d(c.one), c.zero, c.eq))


def check_leibniz(c: DiffCarrier, trials: int, seed: int) -> LawReport:
    """D(ab) = a·D(b) + D(a)·b on random pairs."""

    def trial(rng):
        a = c.sample(rng, 4)
        b = c.sample(rng, 4)
        lhs = c.d(c.mul(a, b))
        rhs = sum_of_products(c, [(1, a, c.d(b)), (1, c.d(a), b)])
        return mismatch({"a": a, "b": b}, lhs, rhs, c.eq)

    return run_trials(f"leibniz[{c.name}]", trials, seed, trial)


def check_higher_leibniz(c: DiffCarrier, n_max: int, trials: int, seed: int) -> LawReport:
    """D^n(ab) = sum_k C(n,k)·D^k(a)·D^(n-k)(b) for every n <= n_max."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")

    def trial(rng):
        a = c.sample(rng, 3)
        b = c.sample(rng, 3)
        towers = [(1, natural_map(c.d, a, n_max), natural_map(c.d, b, n_max))]
        lhs = c.mul(a, b)
        for n, rhs in enumerate(hurwitz_sums(c, towers, n_max)):
            if n > 0:
                lhs = c.d(lhs)
            if not c.eq(lhs, rhs):
                return counterexample({"n": n, "a": a, "b": b}, lhs, rhs)
        return None

    return run_trials(f"higher_leibniz[{c.name}]", trials, seed, trial)


def chain_rule_sides(c: DiffCarrier, p: Poly, env: Mapping) -> tuple:
    """p(a_1..a_m) and, as a function of the map D, the right-hand side
    sum_j (dp/dx_j)(a_1..a_m)·D(a_j) of the chain rule at env: p and each
    dp/dx_j are evaluated once, here, for any number of maps."""
    value = eval_in_carrier(c, p, env)  # raises UnboundVariable before env[v] is read
    partials = [(eval_in_carrier(c, partial(p, v), env), env[v]) for v in p.variables()]
    return value, lambda d: sum_of_products(c, ((1, dp, d(a)) for dp, a in partials))


def chain_rule_mismatch(c: DiffCarrier, p: Poly, env: Mapping,
                        d: Callable | None = None) -> dict | None:
    """None when D(p(a_1..a_m)) = sum_j (dp/dx_j)(a_1..a_m)·D(a_j) holds
    for the map d (the carrier's derivation by default), else the
    counterexample."""
    d = c.d if d is None else d
    value, rhs = chain_rule_sides(c, p, env)
    return mismatch({"p": p, **env}, d(value), rhs(d), c.eq)


def faa_di_bruno_mismatch(c: DiffCarrier, p: Poly, env: Mapping, n_max: int) -> dict | None:
    """None when the higher-order chain rule holds for each 0 <= n < n_max,

        D^(n+1)(p(a⃗)) = sum_{k<=n} C(n,k) sum_j
                          D^k((dp/dx_j)(a⃗)) · D^(n-k+1)(a_j),

    else the counterexample at the first n where it fails."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    lhs = eval_in_carrier(c, p, env)  # raises UnboundVariable before env[v] is read
    # Component n pairs D^k of dp/dx_j, k <= n_max - 1, with D^(n-k+1)(a_j).
    towers = [(1, natural_map(c.d, eval_in_carrier(c, partial(p, v), env), max(n_max - 1, 0)),
               natural_map(c.d, env[v], n_max)[1:]) for v in p.variables()]
    for n, rhs in enumerate(hurwitz_sums(c, towers, n_max - 1)):
        lhs = c.d(lhs)
        if not c.eq(lhs, rhs):
            return counterexample({"n": n, "p": p}, lhs, rhs)
    return None


def check_kernel_closure(c: DiffCarrier, trials: int, seed: int) -> LawReport:
    """Products of derivation-killed elements are derivation-killed, and
    D(1) = 0.  Requires the carrier to provide a kernel sampler."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    law = f"kernel_closure[{c.name}]"
    if c.sample_kernel is None:
        return LawReport(law=law, trials=0, passed=True, seed=seed, skipped=True)
    if not c.eq(c.d(c.one), c.zero):
        return LawReport(law=law, trials=1, passed=False, seed=seed,
                         counterexample=counterexample({"input": c.one}, c.d(c.one), c.zero))

    def trial(rng):
        a = c.sample_kernel(rng, 3)
        b = c.sample_kernel(rng, 3)
        for x in (a, b):
            if not c.eq(c.d(x), c.zero):
                # Sampler violated its contract; surface it as a failure.
                return counterexample({"a": a, "b": b}, c.d(x), c.zero)
        return mismatch({"a": a, "b": b}, c.d(c.mul(a, b)), c.zero, c.eq)

    return run_trials(law, trials, seed, trial)


def check_derivation_monoid(c: DiffCarrier, d1: Callable, d2: Callable,
                            trials: int, seed: int) -> LawReport:
    """If d1 and d2 both satisfy the chain rule on the sampled data, then so
    does their pointwise sum (and the zero map).  Reports ``skipped`` when
    the precondition fails.  A trial evaluates p and its partials once,
    and the sum's image of p(a⃗) is the sum of those of d1 and d2."""

    def trial(rng):
        p = sample_poly(rng, pick(FORMAL_VARS[:2]), 2, 3)
        env = {v: c.sample(rng, 3) for v in FORMAL_VARS[:2]}
        value, rhs = chain_rule_sides(c, p, env)
        lhs1, lhs2 = d1(value), d2(value)
        if not (c.eq(lhs1, rhs(d1)) and c.eq(lhs2, rhs(d2))):
            return SKIP
        for lhs, d in ((c.add(lhs1, lhs2), lambda x: c.add(d1(x), d2(x))),
                       (c.zero, lambda x: c.zero)):
            if not c.eq(lhs, rhs(d)):
                return counterexample({"p": p}, "chain rule fails for sum", "")
        return None

    return run_trials(f"derivation_monoid[{c.name}]", trials, seed, trial)
