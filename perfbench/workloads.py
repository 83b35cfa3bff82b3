"""Seeded inputs and operation lists for the four workloads.

Every builder turns a seed into a fixed list of operations.  An operation
is a timed call into the package (``run``) and an untimed, independent
check of what it returned (``check``).  Inputs come from
``random.Random("<workload>:<seed>")``, which is seeded through SHA-512, so
the same seed gives the same inputs in every process.

The package is reached only through its public modules: ``suites``,
``polynomial``, ``free_diff``, ``hurwitz`` and ``rota_baxter``, plus
``diffalg.cli`` (as a subprocess, or in process for the traced run).
Calls go through module attributes at call time (``hz.smul(...)``, never a
captured ``smul``) so that the traced run's rebound wrappers see them.
Operation kinds and the shapes of their operands run on a fixed schedule;
the seed picks coefficients, values, letters and variables.  An op then
costs the same for every seed, which keeps the spread between seeds down to
what the host adds.  (``laws`` is the exception: ``run_all`` draws its own
inputs from the seeds it is given.)
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from diffalg import free_diff as fd
from diffalg import hurwitz as hz
from diffalg import rota_baxter as rb
from diffalg.free_diff import DVar
from diffalg.polynomial import Poly

# Sizes of the full benchmark and of the smoke run.
SIZES = {
    "full": {
        # 120 run_all calls of one trial each, 9-18 s on a 2-core Xeon.
        # run_all's cost per trial is heavy-tailed across seeds, so the
        # spread between seeds falls only as more calls run; one trial per
        # call spends the least time per trial outside that spread.
        "laws": {"calls": 120, "trials": 1},
        "series": {"rounds": 10},
        "shuffle": {"max_len": 7},
        "cli": {"repeats": 6},
    },
    "smoke": {
        "laws": {"calls": 2, "trials": 1},
        "series": {"rounds": 1},
        "shuffle": {"max_len": 3},
        "cli": {"repeats": 1},
    },
}


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _nonzero_frac(rng: random.Random) -> Fraction:
    while True:
        c = _frac(rng)
        if c:
            return c


def _poly(rng: random.Random, variables, n_terms: int, degree: int) -> Poly:
    """``n_terms`` monomials of exactly ``degree`` over ``variables`` (terms
    that coincide merge)."""
    p = Poly.zero()
    for _ in range(n_terms):
        exps: dict = {}
        for _ in range(degree):
            v = rng.choice(variables)
            exps[v] = exps.get(v, 0) + 1
        p = p + Poly.monomial(exps, _nonzero_frac(rng))
    return p


def _diffpoly(rng: random.Random, n_terms: int, degree: int, max_order: int) -> Poly:
    variables = [DVar(b, k) for b in ("x", "y") for k in range(max_order + 1)]
    return _poly(rng, variables, n_terms, degree)


def _series(rng: random.Random, order: int, flavor: hz.Flavor) -> hz.Series:
    return hz.Series(tuple(_frac(rng) for _ in range(order + 1)), flavor)


# -- laws ---------------------------------------------------------------------


def laws_text(seed: int, trials: int) -> str:
    """The ``laws`` verb's stdout (without the final newline), in process."""
    # Imported here so that only the laws workload's set-up loads the
    # law harness.
    from diffalg import suites

    return "\n".join(r.to_json() for r in suites.run_all(seed, trials))


def _laws_pass(text: str) -> bool:
    lines = text.splitlines()
    return bool(lines) and all(json.loads(line)["pass"] is True for line in lines)


def build_laws(rng: random.Random, size: dict) -> list[Op]:
    trials = size["trials"]
    return [
        Op("run_all", lambda s=rng.getrandbits(63): laws_text(s, trials), _laws_pass)
        for _ in range(size["calls"])
    ]


# -- series -------------------------------------------------------------------


def _convolve(f: hz.Series, g: hz.Series) -> tuple:
    hurwitz = f.flavor is hz.Flavor.HURWITZ
    return tuple(
        sum((math.comb(n, k) if hurwitz else 1) * f[k] * g[n - k] for k in range(n + 1))
        for n in range(f.order + 1)
    )


def _smul_op(f, g) -> Op:
    return Op(f"smul_{f.flavor.value}{f.order}", lambda: hz.smul(f, g),
              lambda r: r.flavor is f.flavor and r.coeffs == _convolve(f, g))


def _sderive_op(f) -> Op:
    if f.flavor is hz.Flavor.HURWITZ:
        want = f.coeffs[1:]
    else:
        want = tuple((n + 1) * f[n + 1] for n in range(f.order))
    return Op(f"sderive_{f.flavor.value}{f.order}", lambda: hz.sderive(f),
              lambda r: r.coeffs == want)


def _psi_mul_op(f, g) -> Op:
    """psi(f·g) == psi(f)·psi(g), both sides also against n!·(f·g)(n)."""
    def run():
        return hz.psi(hz.smul(f, g)), hz.smul(hz.psi(f), hz.psi(g))

    def check(r):
        want = tuple(math.factorial(n) * c for n, c in enumerate(_convolve(f, g)))
        return r[0] == r[1] and r[0].coeffs == want

    return Op(f"psi_mul{f.order}", run, check)


def _psi_round_op(f) -> Op:
    def run():
        image = hz.psi(f)
        return image, hz.psi_inv(image)

    def check(r):
        return (r[1] == f and r[0].flavor is hz.Flavor.HURWITZ
                and r[0].coeffs == tuple(math.factorial(n) * c for n, c in enumerate(f.coeffs)))

    return Op(f"psi_round{f.order}", run, check)


# Monomial shapes, as exponent tuples over the variables, cycled by round.
# The shapes fix what an op costs; the seed picks coefficients, series
# values and which variable plays which part.
_EVAL_SHAPES = {
    2: (((3, 0), (1, 2), (0, 1)), ((2, 1), (0, 3), (1, 0)), ((1, 2), (2, 0), (0, 2))),
    3: (((1, 1, 1), (2, 1, 0), (0, 0, 2)), ((3, 0, 0), (0, 1, 2), (1, 0, 1)),
        ((1, 2, 0), (0, 1, 1), (2, 0, 1))),
}
# Over (x, x', y, y').
_TOWER_SHAPES = (((1, 0, 0, 1), (0, 2, 0, 0)), ((1, 1, 0, 0), (0, 0, 1, 1)),
                 ((0, 1, 1, 0), (2, 0, 0, 0)), ((0, 0, 2, 0), (1, 0, 0, 1)))


def _shaped(rng: random.Random, variables, shape) -> Poly:
    p = Poly.zero()
    for exps in shape:
        p = p + Poly.monomial(dict(zip(variables, exps)), _nonzero_frac(rng))
    return p


def _eval_op(rng, flavor, n_vars: int, n: int, rnd: int) -> Op:
    """The coefficient recursion at component n against ring evaluation."""
    names = rng.sample([f"X{i + 1}" for i in range(n_vars)], n_vars)
    p = _shaped(rng, names, _EVAL_SHAPES[n_vars][rnd % 3])
    env = {v: _series(rng, n, flavor) for v in sorted(names)}
    evaluate = "omega_eval" if flavor is hz.Flavor.HURWITZ else "delta_eval"

    def run():
        return getattr(hz, evaluate)(p, env, n), hz.ring_eval(p, env)

    return Op(f"{evaluate}{n}", run, lambda r: r[0] == r[1].coeffs[n])


def _tower_op(rng, k: int) -> Op:
    """Product of two order-8 derivative towers with Poly coefficients;
    equals the tower of the product (higher Leibniz rule in series form)."""
    a, b = rng.sample(("x", "y"), 2)
    variables = (DVar(a, 0), DVar(a, 1), DVar(b, 0), DVar(b, 1))
    p = _shaped(rng, variables, _TOWER_SHAPES[k % 4])
    q = _shaped(rng, variables, _TOWER_SHAPES[(k + 1) % 4])

    def run():
        return hz.smul(hz.diamond(fd.d_shift, p, 8), hz.diamond(fd.d_shift, q, 8))

    return Op("tower_mul8", run, lambda r: r == hz.diamond(fd.d_shift, p * q, 8))


def build_series(rng: random.Random, size: dict) -> list[Op]:
    H, P = hz.Flavor.HURWITZ, hz.Flavor.POWER
    ops: list[Op] = []
    for rnd in range(size["rounds"]):
        for flavor in (H, P):
            for order in (8, 32):
                ops.append(_smul_op(_series(rng, order, flavor), _series(rng, order, flavor)))
                ops.append(_sderive_op(_series(rng, order, flavor)))
        for order in (8, 32):
            ops.append(_psi_mul_op(_series(rng, order, P), _series(rng, order, P)))
            ops.append(_psi_round_op(_series(rng, order, P)))
        for flavor in (H, P):
            for n_vars, n in ((2, 8), (3, 12), (2, 16)):
                ops.append(_eval_op(rng, flavor, n_vars, n, rnd))
        ops.append(_tower_op(rng, 2 * rnd))
        ops.append(_tower_op(rng, 2 * rnd + 1))
    return ops


# -- shuffle ------------------------------------------------------------------

# Monic letters: the 15 products of two of six variables.  They are all the
# same size, so the letters the seed picks do not change what an op costs,
# and a pair of words of up to 7 letters each can use distinct letters.
_LETTERS = tuple(Poly.monomial({a: 1, b: 1}) for i, a in enumerate("uvwxyz") for b in "uvwxyz"[i + 1:])


def _words(rng, la: int, lb: int, repeated: bool) -> tuple[list, list]:
    if repeated:
        letter = rng.choice(_LETTERS)
        return [letter] * la, [letter] * lb
    letters = rng.sample(_LETTERS, la + lb)
    return letters[:la], letters[la:]


def _element(rng, word: list) -> rb.RBElem:
    """Two terms: the long word and a one-letter word, each with a monomial
    tail and a nonzero rational coefficient."""
    short = [rng.choice(_LETTERS)]
    out = rb.RBElem.zero()
    for letters in (word, short):
        tail = rng.choice(_LETTERS)
        out = out + rb.RBElem.term(letters, tail, _nonzero_frac(rng))
    return out


def _coeff_sum(elem) -> Fraction:
    return sum((c for _, c in elem.terms()), Fraction(0))


def _rb_mul_check(a, b):
    # The coefficient sum is linear, so it survives cancellation of keys.
    want = sum((c1 * c2 * math.comb(len(w1) + len(w2), len(w1))
                for (w1, _), c1 in a.terms() for (w2, _), c2 in b.terms()), Fraction(0))
    return lambda r: _coeff_sum(r) == want


def _rb_p_check(a):
    want = {(w + (t,), ()): c for (w, t), c in a.terms()}
    return lambda r: dict(r.terms()) == want


def _shuffle_check(u, v, distinct: bool):
    count = math.comb(len(u) + len(v), len(u))

    def check(r):
        if sum(r.values(), Fraction(0)) != count:
            return False
        if distinct:
            return len(r) == count and all(c == 1 for c in r.values())
        return len(r) == 1

    return check


def _rb_identity(a, b):
    """P(a)P(b) and P(aP(b)) + P(P(a)b): the Rota-Baxter identity's sides."""
    pa, pb = rb.rb_P(a), rb.rb_P(b)
    return rb.rb_mul(pa, pb), rb.rb_P(rb.rb_mul(a, pb)) + rb.rb_P(rb.rb_mul(pa, b))


def build_shuffle(rng: random.Random, size: dict) -> list[Op]:
    top = size["max_len"]
    pairs = [(la, lb) for la in range(1, top + 1) for lb in (la, la + 1) if lb <= top]
    pairs = [(la, lb, repeated) for la, lb in pairs for repeated in (True, False)]
    rng.shuffle(pairs)
    ops: list[Op] = []
    for la, lb, repeated in pairs:
        u, v = _words(rng, la, lb, repeated)
        a, b = _element(rng, u), _element(rng, v)
        tag = "rep" if repeated else "dist"
        ops.append(Op(f"rb_mul_{tag}", lambda a=a, b=b: rb.rb_mul(a, b), _rb_mul_check(a, b)))
        ops.append(Op("rb_P", lambda a=a: rb.rb_P(a), _rb_p_check(a)))
        ops.append(Op(f"shuffle_{tag}", lambda u=u, v=v: rb.shuffle(u, v),
                      _shuffle_check(u, v, not repeated)))
        ops.append(Op(f"rb_identity_{tag}", lambda a=a, b=b: _rb_identity(a, b),
                      lambda r: r[0] == r[1]))
    return ops


# -- cli ----------------------------------------------------------------------


@dataclass
class Request:
    """One CLI invocation: argv after ``python -m diffalg.cli``, the stdin
    text, and a check of (exit code, stdout) against the same operation
    computed in process."""

    kind: str
    argv: list
    stdin: str
    check: Callable[[str], bool]


def _arg(p: Poly) -> str:
    # Parenthesised, so a leading minus sign is not read as an option.
    return f"({p})"


def _expect_text(compute) -> Callable[[str], bool]:
    return lambda out: out == f"{compute()}\n"


def _expect_json(compute) -> Callable[[str], bool]:
    return lambda out: json.loads(out) == compute()


def _series_json(s: hz.Series) -> dict:
    return {"schema": 1, "flavor": s.flavor.value, "coeffs": [str(c) for c in s.coeffs]}


def _mono_str(m) -> str:
    return str(Poly({m: Fraction(1)}))


def _rb_terms(elem) -> dict:
    return {(tuple(_mono_str(m) for m in w), _mono_str(t)): Fraction(c) for (w, t), c in elem.terms()}


def _rb_json_terms(out: str) -> dict:
    return {(tuple(t["word"]), t["tail"]): Fraction(t["coeff"]) for t in json.loads(out)["terms"]}


def _rb_payload(elem_terms) -> dict:
    return {"terms": [{"word": [str(l) for l in w], "tail": str(t), "coeff": str(c)}
                      for w, t, c in elem_terms]}


def _rb_input(rng, length: int):
    """Terms (letters, tail, coeff) for the JSON payload and the element."""
    terms = []
    for n in (length, rng.randint(0, 2)):
        letters = [rng.choice(_LETTERS) for _ in range(n)]
        terms.append((letters, rng.choice(_LETTERS), _nonzero_frac(rng)))
    elem = rb.RBElem.zero()
    for letters, tail, c in terms:
        elem = elem + rb.RBElem.term(letters, tail, c)
    return terms, elem


def _eval_request(rng, flavor, fmt: str, names: tuple, order: int) -> Request:
    p = _poly(rng, names, n_terms=3, degree=3)
    env = {v: _series(rng, order, flavor) for v in names}
    payload = json.dumps({v: {"flavor": s.flavor.value, "coeffs": [str(c) for c in s.coeffs]}
                          for v, s in env.items()})
    evaluate = hz.omega_eval if flavor is hz.Flavor.HURWITZ else hz.delta_eval

    def rows():
        ring = hz.ring_eval(p, env)
        return [{"n": n, "recursion": str(evaluate(p, env, n)), "ring": str(ring[n])}
                for n in range(order + 1)]

    if fmt == "json":
        check = _expect_json(lambda: {"schema": 1, "flavor": flavor.value, "components": rows()})
        return Request("eval_json", ["eval", _arg(p), "--format", "json"], payload, check)

    def text():
        return "\n".join(f"n={r['n']}: recursion={r['recursion']} ring={r['ring']} [ok]"
                         for r in rows())

    return Request("eval", ["eval", _arg(p)], payload, _expect_text(text))


def _cli_round(rng) -> list[Request]:
    H, P = hz.Flavor.HURWITZ, hz.Flavor.POWER
    reqs = []
    for n in (1, 2, 3):
        p = _diffpoly(rng, n_terms=3, degree=3, max_order=2)

        def derived(p=p, n=n):
            for _ in range(n):
                p = fd.d_shift(p)
            return p

        if n == 3:
            reqs.append(Request("diff_json", ["diff", "--n", "3", _arg(p), "--format", "json"], "",
                                _expect_json(lambda d=derived: {"schema": 1, "result": str(d())})))
        else:
            reqs.append(Request(f"diff{n}", ["diff", "--n", str(n), _arg(p)], "",
                                _expect_text(derived)))
    p = _diffpoly(rng, n_terms=3, degree=3, max_order=2)
    q = _diffpoly(rng, n_terms=3, degree=3, max_order=2)
    reqs.append(Request("mul", ["mul", _arg(p), _arg(q)], "", _expect_text(lambda: p * q)))
    # Three requests do real work in the package (an order-8 evaluation
    # in three variables, a 5x6-letter shuffle, a product of 6-letter
    # words): 18 of the 84, so the p88 tail falls among them and not on
    # start-up noise.
    reqs.append(_eval_request(rng, H, "text", ("X", "Y"), 6))
    reqs.append(_eval_request(rng, P, "json", ("X", "Y", "Z"), 8))
    for flavor in (H, P):
        f, g = _series(rng, 8, flavor), _series(rng, 8, flavor)
        reqs.append(Request(flavor.value, [flavor.value, str(f), str(g)], "",
                            _expect_text(lambda f=f, g=g: hz.smul(f, g))))
    f = _series(rng, 8, P)
    reqs.append(Request("psi", ["psi", str(f), "--from", "power"], "",
                        _expect_text(lambda: hz.psi(f))))
    g = _series(rng, 8, H)
    reqs.append(Request("psi_json", ["psi", str(g), "--from", "hurwitz", "--format", "json"], "",
                        _expect_json(lambda: _series_json(hz.psi_inv(g)))))

    u, v = _words(rng, 5, 6, repeated=False)
    payload = json.dumps({"u": [str(l) for l in u], "v": [str(l) for l in v]})

    def shuffle_ok(out):
        got = {tuple(t["word"]): Fraction(t["coeff"]) for t in json.loads(out)["result"]}
        want = {tuple(_mono_str(m) for m in w): c for w, c in rb.shuffle(u, v).items()}
        return got == want

    reqs.append(Request("rb_shuffle", ["rb", "--op", "shuffle"], payload, shuffle_ok))
    s_terms, s = _rb_input(rng, 6)
    t_terms, t = _rb_input(rng, 6)
    payload = json.dumps({"s": _rb_payload(s_terms), "t": _rb_payload(t_terms)})
    reqs.append(Request("rb_mul", ["rb", "--op", "mul"], payload,
                        lambda out: _rb_json_terms(out) == _rb_terms(rb.rb_mul(s, t))))
    for op, fn in (("P", "rb_P"), ("D", "rb_D")):
        e_terms, e = _rb_input(rng, rng.randint(2, 4))
        reqs.append(Request(f"rb_{op}", ["rb", "--op", op], json.dumps({"s": _rb_payload(e_terms)}),
                            lambda out, e=e, fn=fn: _rb_json_terms(out) == _rb_terms(getattr(rb, fn)(e))))
    return reqs


def build_cli(rng: random.Random, size: dict) -> list[Request]:
    reqs: list[Request] = []
    for _ in range(size["repeats"]):
        reqs.extend(_cli_round(rng))
    return reqs


BUILDERS = {"laws": build_laws, "series": build_series, "shuffle": build_shuffle, "cli": build_cli}


def build(workload: str, seed: int, size_name: str = "full") -> list:
    return BUILDERS[workload](rng_for(workload, seed), SIZES[size_name][workload])
