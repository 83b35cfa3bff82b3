"""Aggregated, seeded law suites: everything the package promises, as a
flat list of :class:`~diffalg.diff_laws.LawReport` values.

``run_all(seed, trials)`` is what the command-line ``laws`` verb executes.
It runs the entries of :func:`law_table` in order.  An entry is a suite,
called as suite(trials, seed) for a report or a list of reports, and its
share: the suite runs max(trials // share, 1) trials.  Each entry's seed
is the next ``next_u64()`` draw from one master stream seeded with the
base seed, so the full output is byte-identical across runs with the same
(seed, trials).
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import hurwitz as hz
from . import rota_baxter as rb
from .carriers import (
    POLY_POOL,
    diffpoly_carrier,
    hurwitz_carrier,
    poly_sharp_carrier,
    power_carrier,
    random_diffpoly,
    random_poly,
    random_series,
    rota_baxter_carrier,
)
from .diff_laws import (
    FORMAL_VARS,
    DiffCarrier,
    LawReport,
    chain_rule_mismatch,
    check_constant_rule,
    check_derivation_monoid,
    check_higher_leibniz,
    check_kernel_closure,
    check_leibniz,
    counterexample,
    faa_di_bruno_mismatch,
    first_failure,
    mismatch,
    pick,
    random_fraction,
    run_trials,
    sample_poly,
)
from .free_diff import (
    DVar,
    beta,
    d_shift,
    d_shift_via_sharp,
    decode_nested,
    encode_nested,
    extend,
    nest,
)
from .polynomial import (
    Poly,
    Tensor,
    derive,
    derive_twice,
    eta,
    partial,
    rename_vars,
    substitute,
    unit_poly,
)
from .rng import SplitMix64
from .scalars import binom

# The sizes the suites run at: the order of the series the cofree-side laws
# draw, the eval components, the tower laws' top order, the shuffled words' lengths.
ORDER = 8
COMONAD_ORDER = 10
EVAL_N_MAX = 6
TOWER = 5
SHUFFLE_MAX_LEN = 4

# -- the five axioms of the polynomial derivative ---------------------------


def check_codifferential_axioms(trials: int, seed: int) -> list[LawReport]:
    """The defining rules of the total-derivative tensor on random
    polynomials: constant, Leibniz, linear, chain, interchange."""
    rng = SplitMix64(seed)

    # constant rule: derive(1) = 0 (deterministic)
    constant = run_trials("axiom_constant", 1, seed, lambda rng: mismatch(
        {"input": unit_poly()}, derive(unit_poly()), Tensor.zero()))

    # linear rule: derive(x) = 1 ⊗ x (deterministic over the pool)
    pool = iter(POLY_POOL)

    def linear(rng):
        v = next(pool)
        return mismatch({"variable": v}, derive(eta(v)), Tensor.of(unit_poly(), v))

    # Leibniz rule on random pairs
    def leibniz(rng):
        p = random_poly(rng)
        q = random_poly(rng)
        lhs = derive(p * q)
        rhs = derive(p).scale_poly(q) + derive(q).scale_poly(p)
        return mismatch({"p": p, "q": q}, lhs, rhs)

    # chain rule on random substitutions
    def chain(rng):
        p = sample_poly(rng, pick(FORMAL_VARS), 3, 3)
        env = {v: random_poly(rng, size=2, max_degree=2) for v in FORMAL_VARS}
        lhs = derive(substitute(p, env))
        rhs = Tensor.zero()
        for v in FORMAL_VARS:
            dp = partial(p, v)
            if dp.is_zero():
                continue
            rhs = rhs + derive(env[v]).scale_poly(substitute(dp, env))
        return mismatch({"p": p, **env}, lhs, rhs)

    # interchange rule: the twice-derived object is symmetric in the last
    # two tensor slots
    def interchange(rng):
        p = random_poly(rng)
        grid = derive_twice(p)
        swapped = {(m, vi, vj): c for (m, vj, vi), c in grid.items()}
        return None if grid == swapped else {"p": str(p)}

    return [constant,
            run_trials("axiom_linear", len(POLY_POOL), seed, linear),
            run_trials("axiom_leibniz", trials, seed, leibniz, rng),
            run_trials("axiom_chain", trials, seed, chain, rng),
            run_trials("axiom_interchange", trials, seed, interchange, rng)]


# -- free side ---------------------------------------------------------------


def check_shift_oracle(trials: int, seed: int) -> LawReport:
    """The direct shift derivation agrees with the derive/bump/multiply
    recipe on random differential polynomials."""

    def trial(rng):
        p = random_diffpoly(rng)
        return mismatch({"p": p}, d_shift(p), d_shift_via_sharp(p))

    return run_trials("shift_matches_sharp", trials, seed, trial)


def check_monad_laws(trials: int, seed: int) -> list[LawReport]:
    """The three unit/flattening laws of nesting, on random elements:

    * flattening a singly-wrapped element is the identity,
    * wrapping every inner variable then flattening is the identity,
    * flattening the two nesting levels of a doubly-nested element in
      either order agrees.
    """
    rng = SplitMix64(seed)

    def sample_level1(r):
        return random_diffpoly(r, size=3, max_order=1, max_degree=3)

    def nested(r, inner):
        """A differential polynomial whose variables encode two elements
        drawn by inner."""
        inners = [encode_nested(inner(r)) for _ in range(2)]
        return sample_poly(r, lambda r: DVar(r.choice(inners), r.randint(0, 1)), 2, 2)

    def left_unit(rng):
        q = sample_level1(rng)
        return mismatch({"q": q}, beta(nest(q, 0)), q)

    def right_unit(rng):
        q = sample_level1(rng)
        wrapped = rename_vars(
            q, lambda v: DVar(encode_nested(Poly.variable(DVar(v.base, 0))), v.order)
        )
        return mismatch({"q": q}, beta(wrapped), q)

    def associativity(rng):
        t = nested(rng, lambda r: nested(r, sample_level1))
        flattened_inner = rename_vars(
            t, lambda v: DVar(encode_nested(beta(decode_nested(v.base))), v.order)
        )
        return mismatch({"t": t}, beta(flattened_inner), beta(beta(t)))

    return [run_trials("monad_left_unit", trials, seed, left_unit, rng),
            run_trials("monad_right_unit", trials, seed, right_unit, rng),
            run_trials("monad_associativity", trials, seed, associativity, rng)]


def check_extend_morphism(trials: int, seed: int) -> LawReport:
    """Evaluation into a differential algebra commutes with the
    derivations: extend(f, shift(p)) = D(extend(f, p)), against the
    Hurwitz carrier."""
    carrier = hurwitz_carrier(ORDER)

    def trial(rng):
        p = random_diffpoly(rng, size=3, max_order=1, max_degree=3)
        images = {
            base: random_series(rng, ORDER, hz.Flavor.HURWITZ)
            for base in sorted({v.base for v in p.variables()})
        }
        lhs = extend(images, carrier, d_shift(p))
        rhs = carrier.d(extend(images, carrier, p))
        return mismatch({"p": p}, lhs, rhs, carrier.eq)

    return run_trials("extend_commutes_with_derivation", trials, seed, trial)


# -- cofree side --------------------------------------------------------------


def check_eval_recursions(trials: int, seed: int) -> list[LawReport]:
    """The coefficient recursions agree with evaluation through the series
    ring operations, for every component n <= EVAL_N_MAX."""
    rng = SplitMix64(seed)

    def agrees_with_ring(flavor):
        def trial(rng):
            p = sample_poly(rng, pick(FORMAL_VARS), 3, 3)
            env = {v: random_series(rng, ORDER, flavor) for v in FORMAL_VARS}
            oracle = hz.ring_eval(p, env)
            w = hz._components(p, env, EVAL_N_MAX, flavor)
            return first_failure(mismatch({"p": p, "n": n}, w[n], oracle.coeffs[n])
                                 for n in range(EVAL_N_MAX + 1))
        return trial

    return [run_trials(law, trials, seed, agrees_with_ring(flavor), rng)
            for law, flavor in (("omega_matches_hurwitz_ring", hz.Flavor.HURWITZ),
                                ("delta_matches_cauchy_ring", hz.Flavor.POWER))]


def check_eval_pointwise(trials: int, seed: int) -> list[LawReport]:
    """The unit, generator, and product clauses of the Hurwitz coefficient
    recursion, checked pointwise for n <= EVAL_N_MAX."""
    rng = SplitMix64(seed)
    H = hz.Flavor.HURWITZ
    components = range(EVAL_N_MAX + 1)

    # unit clause: a constant evaluates to itself at component 0, to 0 above
    def unit_clause(rng):
        c = random_fraction(rng)
        env = {"X1": random_series(rng, ORDER, H)}
        w = hz._components(Poly.const(c), env, EVAL_N_MAX, H)
        return first_failure(mismatch({"c": c, "n": n}, w[n], c if n == 0 else Fraction(0))
                             for n in components)

    # generator clause: a bare variable evaluates to its series components
    def generator_clause(rng):
        env = {"X1": random_series(rng, ORDER, H)}
        w = hz._components(eta("X1"), env, EVAL_N_MAX, H)
        return first_failure(mismatch({"n": n}, w[n], env["X1"].coeffs[n]) for n in components)

    # product clause: binomial convolution of the two factors' recursions
    def product_clause(rng):
        p = sample_poly(rng, pick(FORMAL_VARS[:2]), 2, 2)
        q = sample_poly(rng, pick(FORMAL_VARS[:2]), 2, 2)
        env = {v: random_series(rng, ORDER, H) for v in FORMAL_VARS[:2]}
        wp, wq, wpq = (hz._components(f, env, EVAL_N_MAX, H) for f in (p, q, p * q))

        def at(n):
            rhs = Fraction(0)
            for k in range(n + 1):
                rhs += binom(n, k) * (wp[k] * wq[n - k])
            return mismatch({"p": p, "q": q, "n": n}, wpq[n], rhs)

        return first_failure(at(n) for n in components)

    return [run_trials("omega_unit_clause", trials, seed, unit_clause, rng),
            run_trials("omega_generator_clause", trials, seed, generator_clause, rng),
            run_trials("omega_product_clause", trials, seed, product_clause, rng)]


def check_psi_laws(trials: int, seed: int) -> list[LawReport]:
    """The factorial rescaling is an isomorphism of differential algebras:
    it round-trips, converts Cauchy products to binomial products, and
    intertwines the two derivations."""
    rng = SplitMix64(seed)
    H, P = hz.Flavor.HURWITZ, hz.Flavor.POWER

    def round_trip(rng):
        f = random_series(rng, ORDER, P)
        g = random_series(rng, ORDER, H)
        back = hz.psi_inv(hz.psi(f))
        if back != f or hz.psi(hz.psi_inv(g)) != g:
            return counterexample({"f": f, "g": g}, back, f)
        return None

    def multiplicative(rng):
        f = random_series(rng, ORDER, P)
        g = random_series(rng, ORDER, P)
        return mismatch({"f": f, "g": g}, hz.psi(hz.smul(f, g)), hz.smul(hz.psi(f), hz.psi(g)))

    def intertwines(rng):
        f = random_series(rng, ORDER, P)
        return mismatch({"f": f}, hz.psi(hz.sderive(f)), hz.sderive(hz.psi(f)))

    return [run_trials("psi_round_trip", trials, seed, round_trip, rng),
            run_trials("psi_multiplicative", trials, seed, multiplicative, rng),
            run_trials("psi_intertwines_derivations", trials, seed, intertwines, rng)]


def check_comonad_laws(trials: int, seed: int) -> list[LawReport]:
    """Counit both ways and coassociativity of comultiplication on the
    valid triangle."""
    rng = SplitMix64(seed)

    def counit(rng):
        f = random_series(rng, COMONAD_ORDER, hz.Flavor.HURWITZ)
        rows = rng.randint(0, COMONAD_ORDER)
        grid = hz.comul(f, rows)
        if grid.row_series(0) != f.truncate(COMONAD_ORDER - rows):
            return counterexample({"f": f, "rows": rows}, grid.row_series(0), f)
        return mismatch({"f": f, "rows": rows}, grid.column(0), f.coeffs[: rows + 1])

    def coassociativity(rng):
        f = random_series(rng, COMONAD_ORDER, hz.Flavor.HURWITZ)
        r1 = rng.randint(0, COMONAD_ORDER // 2)
        r2 = rng.randint(0, COMONAD_ORDER - r1)
        inner_first = tuple(
            hz.comul(hz.comul(f, r1).row_series(i2), r2).grid for i2 in range(r1 + 1)
        )
        outer = hz.comul(f, r1 + r2)
        cols = COMONAD_ORDER - r1 - r2
        outer_first = tuple(
            tuple(tuple(outer.grid[i2 + j][k] for k in range(cols + 1)) for j in range(r2 + 1))
            for i2 in range(r1 + 1)
        )
        return mismatch({"f": f, "r1": r1, "r2": r2}, inner_first, outer_first)

    return [run_trials("comonad_counit", trials, seed, counit, rng),
            run_trials("comonad_coassociativity", trials, seed, coassociativity, rng)]


# -- Rota-Baxter side ---------------------------------------------------------


def check_rb_incompatibility(trials: int, seed: int) -> LawReport:
    """D(P(a)) = 0 on random elements."""

    def trial(rng):
        a = rb.random_rbelem(rng)
        return mismatch({"a": a}, rb.rb_D(rb.rb_P(a)), rb.RBElem.zero())

    return run_trials("rb_derivation_kills_P", trials, seed, trial)


def check_shuffle_counts(trials: int, seed: int) -> LawReport:
    """Shuffling a j-letter word into a k-letter word produces exactly
    binom(j+k, j) interleavings, counted with multiplicity, for every j and k
    up to SHUFFLE_MAX_LEN.  Deterministic; trials are moot."""
    lengths = iter([(j, k) for j in range(SHUFFLE_MAX_LEN + 1)
                    for k in range(SHUFFLE_MAX_LEN + 1)])
    u = [Poly.monomial({"a": i + 1}) for i in range(SHUFFLE_MAX_LEN)]
    v = [Poly.monomial({"b": i + 1}) for i in range(SHUFFLE_MAX_LEN)]

    def trial(rng):
        j, k = next(lengths)
        return mismatch({"lens": (j, k)}, rb.shuffle_term_count(u[:j], v[:k]), binom(j + k, j))

    return run_trials("shuffle_term_count", (SHUFFLE_MAX_LEN + 1) ** 2, seed, trial)


# -- chain-rule style suites over random (p, env) pairs -----------------------


def chain_rule_suite(c: DiffCarrier, trials: int, seed: int) -> LawReport:
    def trial(rng):
        p = sample_poly(rng, pick(FORMAL_VARS), 3, 3)
        env = {v: c.sample(rng, 3) for v in FORMAL_VARS}
        return chain_rule_mismatch(c, p, env)

    return run_trials(f"chain_rule[{c.name}]", trials, seed, trial)


def faa_di_bruno_suite(c: DiffCarrier, trials: int, seed: int) -> LawReport:
    def trial(rng):
        p = sample_poly(rng, pick(FORMAL_VARS[:2]), 2, 3)
        env = {v: c.sample(rng, 2) for v in FORMAL_VARS[:2]}
        return faa_di_bruno_mismatch(c, p, env, TOWER)

    return run_trials(f"faa_di_bruno[{c.name}]", trials, seed, trial)


# -- everything ---------------------------------------------------------------


def law_table() -> list:
    """The (suite, share) entries of :func:`run_all` in report order (see
    the module docstring); the four ring carriers run the same six laws.
    Built per call, so an entry holds each function as its module binds it
    then, also one rebound after import."""
    ring = (poly_sharp_carrier(), diffpoly_carrier(), hurwitz_carrier(ORDER), power_carrier(ORDER))
    per_carrier = ((check_constant_rule,), (check_leibniz,), (check_higher_leibniz, TOWER),
                   (chain_rule_suite,), (faa_di_bruno_suite,), (check_kernel_closure,))
    rbc = rota_baxter_carrier()
    return ([(check_codifferential_axioms, 1)]
            + [(functools.partial(law, c, *args), 1) for c in ring for law, *args in per_carrier]
            + [(functools.partial(check_derivation_monoid, c, c.d, c.d), 4)
               for c in ring[1:3]]  # diffpoly and hurwitz
            + [(functools.partial(law, rbc), 1)
               for law in (check_constant_rule, check_leibniz, check_kernel_closure)]
            + [(rb.check_rota_baxter, 1), (check_rb_incompatibility, 1),
               (check_shuffle_counts, 1),
               (check_shift_oracle, 1), (check_monad_laws, 2), (check_extend_morphism, 1),
               (check_eval_recursions, 2), (check_eval_pointwise, 2), (check_psi_laws, 1),
               (check_comonad_laws, 2)])


def run_all(seed: int, trials: int) -> list[LawReport]:
    """Every entry of :func:`law_table` in order, each with its own seed
    drawn from one master stream."""
    master = SplitMix64(seed)
    reports: list[LawReport] = []
    for suite, share in law_table():
        out = suite(max(trials // share, 1), master.next_u64())
        reports.extend(out if isinstance(out, list) else [out])
    return reports
