import json
import operator
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg import diff_laws, hurwitz, polynomial
from diffalg.carriers import (
    broken_carriers,
    broken_identity_carrier,
    broken_squaring_carrier,
    broken_unscaled_shift_carrier,
    diffpoly_carrier,
    hurwitz_carrier,
    poly_sharp_carrier,
    power_carrier,
    random_series,
    rota_baxter_carrier,
    shipped_carriers,
)
from diffalg.diff_laws import (
    SKIP,
    DiffCarrier,
    chain_rule_mismatch,
    check_constant_rule,
    check_derivation_monoid,
    check_higher_leibniz,
    check_kernel_closure,
    check_leibniz,
    eval_in_carrier,
    faa_di_bruno_mismatch,
    hurwitz_sums,
    pick,
    run_trials,
    sample_exponents,
    sample_poly,
    sum_of_products,
)
from diffalg.errors import UnboundVariable
from diffalg.free_diff import DVar, dvar, natural_map
from diffalg.polynomial import Poly, eta, mono_from_exponents, partial
from diffalg.rng import SplitMix64
from diffalg.rota_baxter import RBElem, random_rbelem
from diffalg.scalars import binom
from diffalg.suites import (
    chain_rule_suite,
    check_eval_pointwise,
    check_eval_recursions,
    faa_di_bruno_suite,
    law_table,
    run_all,
)

BROKEN_GOLDEN = Path(__file__).resolve().parent / "data" / "broken_carriers_seed42.txt"


class TestDeterminism:
    def test_reports_reproduce(self):
        c = diffpoly_carrier()
        first = check_leibniz(c, 20, 99)
        second = check_leibniz(c, 20, 99)
        assert first == second
        assert first.to_json() == second.to_json()

    def test_different_seeds_draw_different_elements(self):
        c = diffpoly_carrier()
        a = c.sample(SplitMix64(1), 4)
        b = c.sample(SplitMix64(2), 4)
        assert a != b

    def test_randint_refuses_an_empty_range(self):
        rng = SplitMix64(3)
        with pytest.raises(ValueError, match=r"empty range \[3, 2\]"):
            rng.randint(3, 2)
        assert rng.randint(2, 2) == 2

    def test_json_shape(self):
        rep = check_constant_rule(diffpoly_carrier(), 1, 5)
        data = json.loads(rep.to_json())
        assert data == {"law": "constant_rule[diffpoly]", "trials": 1, "pass": True, "seed": 5}


class TestPositiveSuites:
    @pytest.mark.parametrize("carrier", shipped_carriers(), ids=lambda c: c.name)
    def test_constant_rule(self, carrier):
        assert check_constant_rule(carrier, 1, 0).passed

    @pytest.mark.parametrize("carrier", shipped_carriers(), ids=lambda c: c.name)
    def test_leibniz(self, carrier):
        assert check_leibniz(carrier, 40, 1).passed

    @pytest.mark.parametrize(
        "carrier",
        (poly_sharp_carrier(), diffpoly_carrier(), hurwitz_carrier(), power_carrier()),
        ids=lambda c: c.name,
    )
    def test_higher_leibniz(self, carrier):
        assert check_higher_leibniz(carrier, 5, 25, 2).passed

    def test_higher_leibniz_rejects_negative_order(self):
        with pytest.raises(ValueError, match="n_max must be non-negative"):
            check_higher_leibniz(diffpoly_carrier(), -1, 1, 0)

    def test_higher_leibniz_base_cases(self):
        # n = 0 reduces to equality of the product with itself; n = 1 is
        # the plain Leibniz rule
        c = diffpoly_carrier()
        assert check_higher_leibniz(c, 0, 5, 3).passed
        assert check_higher_leibniz(c, 1, 5, 3).passed

    def test_second_shift_of_product_by_hand(self):
        # D^2(x y) = x'' y + 2 x' y' + x y''
        c = diffpoly_carrier()
        xy = dvar("x") * dvar("y")
        want = (dvar("x", 2) * dvar("y") + 2 * dvar("x", 1) * dvar("y", 1)
                + dvar("x") * dvar("y", 2))
        assert c.d(c.d(xy)) == want


class TestChainRule:
    def test_product_reduces_to_leibniz(self):
        c = diffpoly_carrier()
        env = {"X": dvar("x") ** 2, "Y": dvar("y", 1)}
        assert chain_rule_mismatch(c, eta("X") * eta("Y"), env) is None

    def test_power_rule_by_hand(self):
        c = diffpoly_carrier()
        env = {"X": dvar("x")}
        p = eta("X") ** 3
        assert chain_rule_mismatch(c, p, env) is None
        # and the actual value: D(x^3) = 3 x^2 x'
        assert c.d(eval_in_carrier(c, p, env)) == 3 * dvar("x") ** 2 * dvar("x", 1)

    def test_constant(self):
        assert chain_rule_mismatch(diffpoly_carrier(), Poly.one(), {}) is None

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            chain_rule_mismatch(diffpoly_carrier(), eta("X"), {})


class TestFaaDiBruno:
    def test_square_by_hand(self):
        # p = X^2 at a = x: D^2(x^2) = 2 x x'' + 2 x'^2
        c = diffpoly_carrier()
        assert faa_di_bruno_mismatch(c, eta("X") ** 2, {"X": dvar("x")}, 2) is None
        value = eval_in_carrier(c, eta("X") ** 2, {"X": dvar("x")})
        assert c.d(c.d(value)) == 2 * dvar("x") * dvar("x", 2) + 2 * dvar("x", 1) ** 2

    def test_linear_polynomial_trivial(self):
        c = diffpoly_carrier()
        assert faa_di_bruno_mismatch(c, eta("X"), {"X": dvar("x") * dvar("y")}, 4) is None

    def test_constant_polynomial(self):
        c = diffpoly_carrier()
        assert faa_di_bruno_mismatch(c, Poly.const(Fraction(7, 2)), {}, 3) is None

    def test_agrees_with_chain_rule_at_base(self):
        # the first clause of the higher-order chain rule is the chain rule
        c = diffpoly_carrier()
        rng = SplitMix64(7)
        for _ in range(10):
            env = {"X": c.sample(rng, 2), "Y": c.sample(rng, 2)}
            p = eta("X") ** 2 * eta("Y") + eta("Y")
            assert (faa_di_bruno_mismatch(c, p, env, 1) is None) == \
                (chain_rule_mismatch(c, p, env) is None)

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            faa_di_bruno_mismatch(diffpoly_carrier(), eta("X"), {}, 2)

    def test_counterexample_at_the_first_failing_order(self):
        # squaring is no derivation: D(x^2) = x^4, against 2 x · D(x) = 2 x^3
        ce = faa_di_bruno_mismatch(broken_squaring_carrier(), eta("X") ** 2, {"X": dvar("x")}, 3)
        assert ce == {"n": "0", "p": "X^2", "lhs": "x^4", "rhs": "2*x^3"}

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            faa_di_bruno_mismatch(diffpoly_carrier(), eta("X"), {"X": dvar("x")}, -1)

    @pytest.mark.parametrize("n_max", [0, 1, 5])
    def test_constant_polynomial_has_zero_right_hand_sides(self, n_max):
        """With no variable every right-hand side is the carrier's zero, so
        a map that does not kill constants fails at n = 0."""
        c = broken_identity_carrier()
        ce = faa_di_bruno_mismatch(c, Poly.const(Fraction(7, 2)), {}, n_max)
        assert ce == (None if n_max == 0 else {"n": "0", "p": "7/2", "lhs": "7/2", "rhs": "0"})


class TestKernelClosure:
    @pytest.mark.parametrize("carrier", shipped_carriers(), ids=lambda c: c.name)
    def test_shipped(self, carrier):
        rep = check_kernel_closure(carrier, 25, 3)
        assert rep.passed and not rep.skipped

    def test_needs_a_trial(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check_kernel_closure(diffpoly_carrier(), 0, 0)

    def test_d_of_one_not_zero(self):
        """D(1) != 0 fails at once, before any kernel element is drawn."""
        c = replace(poly_sharp_carrier(), d=lambda p: p + 1)
        rep = check_kernel_closure(c, 25, 3)
        assert (rep.trials, rep.passed) == (1, False)
        assert rep.counterexample == {"input": "1", "lhs": "2", "rhs": "0"}

    def test_sampler_outside_the_kernel(self):
        """A kernel sampler whose elements D does not kill breaks its
        contract: the report names them and D of the first."""
        c = replace(poly_sharp_carrier(), sample_kernel=lambda rng, size: eta("x"))
        rep = check_kernel_closure(c, 25, 3)
        assert (rep.trials, rep.passed) == (1, False)
        assert rep.counterexample == {"a": "x", "b": "x", "lhs": "y", "rhs": "0"}

    def test_only_the_second_outside_the_kernel(self):
        """When D kills a but not b, the report gives D(b)."""
        drawn = iter([Poly.const(2), eta("x")])
        c = replace(poly_sharp_carrier(), sample_kernel=lambda rng, size: next(drawn))
        rep = check_kernel_closure(c, 25, 3)
        assert (rep.trials, rep.passed) == (1, False)
        assert rep.counterexample == {"a": "2", "b": "x", "lhs": "y", "rhs": "0"}

    def test_hurwitz_kernel_is_index_zero(self):
        c = hurwitz_carrier(5)
        s = c.sample_kernel(SplitMix64(4), 3)
        assert all(v == 0 for v in s.coeffs[1:])
        assert c.eq(c.d(s), c.zero)


class TestDerivationMonoid:
    def test_sum_of_shifts(self):
        c = diffpoly_carrier()
        rep = check_derivation_monoid(c, c.d, c.d, 10, 5)
        assert rep.passed and not rep.skipped

    def test_zero_maps(self):
        c = diffpoly_carrier()
        zero = lambda p: Poly.zero()  # noqa: E731
        rep = check_derivation_monoid(c, zero, zero, 5, 6)
        assert rep.passed and not rep.skipped

    def test_skip_when_second_map_is_not_a_derivation(self):
        c = diffpoly_carrier()
        squaring = lambda p: p * p  # noqa: E731
        rep = check_derivation_monoid(c, c.d, squaring, 10, 7)
        assert rep.skipped

    def test_hurwitz_double_shift(self):
        c = hurwitz_carrier()
        rep = check_derivation_monoid(c, c.d, c.d, 8, 8)
        assert rep.passed and not rep.skipped

    @pytest.mark.parametrize("carrier", [diffpoly_carrier(), hurwitz_carrier()],
                             ids=lambda c: c.name)
    def test_evaluates_once_per_trial(self, carrier, monkeypatch):
        """Each trial evaluates p once and each dp/dv once, for all four
        maps, and evaluates nothing else."""
        drawn, evaluated = [], []
        sample, evaluate = diff_laws.sample_poly, diff_laws.eval_in_carrier

        def drawing(*args):
            drawn.append(sample(*args))
            return drawn[-1]

        def evaluating(c, p, env):
            evaluated.append(p)
            return evaluate(c, p, env)

        monkeypatch.setattr(diff_laws, "sample_poly", drawing)
        monkeypatch.setattr(diff_laws, "eval_in_carrier", evaluating)
        rep = check_derivation_monoid(carrier, carrier.d, carrier.d, 6, 5)
        assert rep.passed and not rep.skipped and len(drawn) == 6
        assert evaluated == [q for p in drawn for q in [p] + [partial(p, v) for v in p.variables()]]

    def test_sum_that_breaks_the_chain_rule_fails(self):
        """The failure branch: a second map that is the shift on the first
        look at an argument and adds the argument on any later look.  The
        precondition sees each argument once, so both maps pass it; the
        check of the sum looks at the environment again, and the sum
        breaks the chain rule.  The first trial of seed 4 has a constant
        polynomial, so the second trial fails."""
        c = diffpoly_carrier()
        seen = []

        def d2(x):
            again = any(x is y for y in seen)
            seen.append(x)
            return c.d(x) + x if again else c.d(x)

        rep = check_derivation_monoid(c, c.d, d2, 5, 4)
        assert rep.to_json() == (
            '{"law": "derivation_monoid[diffpoly]", "trials": 2, "pass": false, "seed": 4, '
            '"counterexample": {"p": "-1/2*X1^2*X2 + 2*X2^2", '
            '"lhs": "chain rule fails for sum", "rhs": ""}}')


class TestSamplers:
    """sample_poly, random_series, the series kernel sampler and
    random_rbelem draw int numerators over one denominator; over 500 seeds
    each returns the value of the Fraction fold it replaced, in the same
    canonical store, and leaves the stream where the fold left it."""

    @staticmethod
    def fraction_fold(rng, draw_var, max_terms, max_degree):
        p = Poly.zero()
        for _ in range(rng.randint(1, max(max_terms, 1))):
            exps = sample_exponents(rng, draw_var, max_degree)
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if c:
                p = p + Poly.monomial(exps, c)
        return p

    def test_sample_poly_equals_the_fold(self):
        draws = (pick(("w", "x", "y", "z")), pick(("x",)),
                 lambda r: DVar(r.choice(("x", "y")), r.randint(0, 2)))
        for seed in range(500):
            draw, max_terms, max_degree = draws[seed % 3], seed % 7, seed % 5
            got_rng, want_rng = SplitMix64(seed), SplitMix64(seed)
            got = sample_poly(got_rng, draw, max_terms, max_degree)
            want = self.fraction_fold(want_rng, draw, max_terms, max_degree)
            assert (got._num, got._den) == (want._num, want._den)
            assert got_rng.next_u64() == want_rng.next_u64()

    def test_random_series_equals_the_fold(self):
        for seed in range(500):
            order = seed % 12
            flavor = (hurwitz.Flavor.HURWITZ, hurwitz.Flavor.POWER)[seed % 2]
            got_rng, want_rng = SplitMix64(seed), SplitMix64(seed)
            got = random_series(got_rng, order, flavor)
            want = hurwitz.Series(tuple(Fraction(want_rng.randint(-9, 9), want_rng.randint(1, 4))
                                        for _ in range(order + 1)), flavor)
            assert (got._num, got._den, got.coeffs, got.flavor) == (
                want._num, want._den, want.coeffs, want.flavor)
            assert got_rng.next_u64() == want_rng.next_u64()
            got = hurwitz_carrier(order).sample_kernel(got_rng, 3)
            want = hurwitz.Series((Fraction(want_rng.randint(-9, 9), want_rng.randint(1, 4)),)
                                  + (Fraction(0),) * order, hurwitz.Flavor.HURWITZ)
            assert (got._num, got._den, got.coeffs) == (want._num, want._den, want.coeffs)
            assert got_rng.next_u64() == want_rng.next_u64()

    def test_random_rbelem_equals_the_fold(self):
        for seed in range(500):
            got_rng, rng = SplitMix64(seed), SplitMix64(seed)
            got = random_rbelem(got_rng)
            want = RBElem.zero()
            for _ in range(rng.randint(1, 2)):
                word = tuple(mono_from_exponents(sample_exponents(rng, pick(("x", "y")), 2))
                             for _ in range(rng.randint(0, 3)))
                tail = mono_from_exponents(sample_exponents(rng, pick(("x", "y")), 2))
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                if c:
                    want = want + RBElem({(word, tail): c})
            assert (got._num, got._den) == (want._num, want._den)
            assert got_rng.next_u64() == rng.next_u64()


class TestNegativeControls:
    def test_constant_rule_needs_a_trial(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            check_constant_rule(diffpoly_carrier(), 0, 0)

    def test_identity_derivation_fails_constant_rule(self):
        rep = check_constant_rule(broken_identity_carrier(), 1, 0)
        assert not rep.passed
        assert rep.counterexample is not None
        assert rep.counterexample["lhs"] == "1"

    def test_squaring_fails_leibniz(self):
        rep = check_leibniz(broken_squaring_carrier(), 50, 0)
        assert not rep.passed
        assert rep.counterexample is not None
        assert "a" in rep.counterexample and "b" in rep.counterexample

    def test_unscaled_shift_fails_leibniz_for_cauchy(self):
        rep = check_leibniz(broken_unscaled_shift_carrier(), 50, 0)
        assert not rep.passed
        assert rep.counterexample is not None

    def test_failure_reports_golden(self):
        """The counterexample text of every failing law, frozen byte for
        byte: the seed-42 laws golden has no failing law, so it does not
        pin what a failure reports."""
        lines = []
        for c in broken_carriers():
            for rep in (
                check_constant_rule(c, 10, 42),
                check_leibniz(c, 10, 42),
                check_higher_leibniz(c, 5, 10, 42),
                chain_rule_suite(c, 10, 42),
                faa_di_bruno_suite(c, 10, 42),
                check_kernel_closure(c, 10, 42),
            ):
                lines.append(rep.to_json())
        assert "\n".join(lines) + "\n" == BROKEN_GOLDEN.read_text()

    def test_all_three_controls_fail(self):
        for carrier in broken_carriers():
            if carrier.name == "broken_identity":
                rep = check_constant_rule(carrier, 1, 0)
            else:
                rep = check_leibniz(carrier, 50, 0)
            assert not rep.passed and rep.counterexample is not None


class TestEvalInCarrier:
    def test_rota_baxter_elements(self):
        c = rota_baxter_carrier()
        from diffalg.rota_baxter import RBElem

        env = {"X": RBElem.term([], Poly.variable("x"))}
        got = eval_in_carrier(c, 2 * eta("X") ** 2, env)
        assert got == 2 * RBElem.term([], Poly.variable("x") ** 2)

    def test_unbound(self):
        with pytest.raises(UnboundVariable):
            eval_in_carrier(diffpoly_carrier(), eta("X"), {})


class TestRunTrials:
    @staticmethod
    def failing_at(k):
        calls = []

        def trial(rng):
            calls.append(rng.next_u64())
            return {"at": str(len(calls))} if len(calls) == k else None

        return trial, calls

    def test_counts_the_trials_run_to_the_first_failure(self):
        trial, calls = self.failing_at(3)
        rep = run_trials("law", 10, 7, trial)
        assert (rep.passed, rep.trials, rep.seed, rep.counterexample) == (False, 3, 7, {"at": "3"})
        assert len(calls) == 3

    def test_pass_runs_every_trial(self):
        trial, calls = self.failing_at(0)
        rep = run_trials("law", 10, 7, trial)
        assert (rep.passed, rep.trials, rep.counterexample) == (True, 10, None)
        assert len(calls) == 10

    def test_shared_stream_continues(self):
        rng = SplitMix64(7)
        trial, calls = self.failing_at(0)
        run_trials("a", 2, 7, trial, rng)
        run_trials("b", 2, 7, trial, rng)
        fresh = SplitMix64(7)
        assert calls == [fresh.next_u64() for _ in range(4)]

    def test_skip_ends_the_run(self):
        outcomes = iter([None, SKIP])
        rep = run_trials("law", 10, 7, lambda rng: next(outcomes))
        assert (rep.passed, rep.skipped, rep.trials) == (True, True, 2)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_no_trials(self, trials):
        with pytest.raises(ValueError):
            run_trials("law", trials, 7, lambda rng: None)


CARRIER_LAWS = ("constant_rule", "leibniz", "higher_leibniz", "chain_rule", "faa_di_bruno",
                "kernel_closure")
# The report names of run_all, in order.
LAW_ORDER = (
    ["axiom_constant", "axiom_linear", "axiom_leibniz", "axiom_chain", "axiom_interchange"]
    + [f"{law}[{c}]" for c in ("poly_sharp", "diffpoly", "hurwitz", "power")
       for law in CARRIER_LAWS]
    + ["derivation_monoid[diffpoly]", "derivation_monoid[hurwitz]",
       "constant_rule[rota_baxter]", "leibniz[rota_baxter]", "kernel_closure[rota_baxter]",
       "rota_baxter_identity", "rb_derivation_kills_P", "shuffle_term_count",
       "shift_matches_sharp", "monad_left_unit", "monad_right_unit", "monad_associativity",
       "extend_commutes_with_derivation", "omega_matches_hurwitz_ring",
       "delta_matches_cauchy_ring", "omega_unit_clause", "omega_generator_clause",
       "omega_product_clause", "psi_round_trip", "psi_multiplicative",
       "psi_intertwines_derivations", "comonad_counit", "comonad_coassociativity"]
)


class TestLawTable:
    """The trials each report of run_all runs, at the trial counts where
    max(trials // share, 1) floors a halved or quartered share to 1."""

    @pytest.mark.parametrize("trials, counts", [
        (1, [1, 4] + [1] * 34 + [25] + [1] * 15),
        (2, [1, 4, 2, 2, 2] + [1, 2, 2, 2, 2, 2] * 4 + [1, 1, 1, 2, 2, 2, 2, 25, 2, 1, 1, 1, 2,
                                                        1, 1, 1, 1, 1, 2, 2, 2, 1, 1]),
        (3, [1, 4, 3, 3, 3] + [1, 3, 3, 3, 3, 3] * 4 + [1, 1, 1, 3, 3, 3, 3, 25, 3, 1, 1, 1, 3,
                                                        1, 1, 1, 1, 1, 3, 3, 3, 1, 1]),
    ])
    def test_trials_per_report(self, trials, counts):
        reports = run_all(42, trials)
        assert [(r.law, r.trials) for r in reports] == list(zip(LAW_ORDER, counts))
        assert all(r.passed for r in reports)

    def test_one_master_seed_per_entry(self):
        """The reports of one entry share its seed; entries draw successive
        seeds from the master stream."""
        master = SplitMix64(42)
        seeds = [master.next_u64() for _ in law_table()]
        reports = run_all(42, 1)
        entry_of = {s: i for i, s in enumerate(seeds)}
        assert sorted({entry_of[r.seed] for r in reports}) == list(range(len(seeds)))
        assert [entry_of[r.seed] for r in reports] == sorted(entry_of[r.seed] for r in reports)


class TestEvalLawMemos:
    """The eval laws read every component of an evaluated polynomial from
    one recursion memo, and still check every component."""

    N_MAX = 6

    def test_one_memo_per_evaluated_polynomial(self, monkeypatch):
        calls = []
        real = hurwitz._recursion

        def counting(p, env, n, flavor):
            calls.append(n)
            return real(p, env, n, flavor)

        monkeypatch.setattr(hurwitz, "_recursion", counting)
        trials = 5
        recursions = check_eval_recursions(trials, 11)
        assert [r.trials for r in recursions] == [trials, trials]
        assert calls == [self.N_MAX] * (1 * 2 * trials)  # one per trial per law
        calls.clear()
        pointwise = check_eval_pointwise(trials, 12)
        assert [r.trials for r in pointwise] == [trials] * 3
        # unit and generator clauses one each, the product clause p, q and p*q
        assert calls == [self.N_MAX] * ((1 + 1 + 3) * trials)

    @pytest.mark.parametrize("k", range(N_MAX + 1))
    def test_no_component_goes_unchecked(self, monkeypatch, k):
        """A recursion off by one at component k fails every eval law, and
        the counterexample names component k."""
        real = hurwitz._recursion

        def off_at_k(p, env, n, flavor):
            component = real(p, env, n, flavor)
            return lambda j: component(j) + (1 if j == k else 0)

        monkeypatch.setattr(hurwitz, "_recursion", off_at_k)
        reports = check_eval_recursions(2, 42) + check_eval_pointwise(2, 43)
        assert [r.law for r in reports] == [
            "omega_matches_hurwitz_ring", "delta_matches_cauchy_ring",
            "omega_unit_clause", "omega_generator_clause", "omega_product_clause"]
        for report in reports:
            assert not report.passed, report.law
            assert report.counterexample["n"] == str(k), report.to_json()


def fold(c, triples):
    """The sum of w·a·b through the carrier's add, scale and mul alone."""
    total = c.zero
    for w, a, b in triples:
        total = c.add(total, c.scale(Fraction(w), c.mul(a, b)))
    return total


class TestSumOfProducts:
    """The laws' right-hand sides go through sum_of_products: the ring and
    series carriers build them with their fused kernel, every other carrier
    with the add/scale/mul fold, and both give the same element."""

    @pytest.mark.parametrize("carrier", shipped_carriers() + broken_carriers(),
                             ids=lambda c: c.name)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), weights=st.lists(st.integers(-5, 5), max_size=4))
    def test_fused_equals_the_fold(self, carrier, seed, weights):
        """Drawn elements, some derived once or twice (for series a shorter
        window), give the fold's element, printed the same."""
        rng = SplitMix64(seed)

        def element():
            x = carrier.sample(rng, 3)
            for _ in range(rng.randint(0, 2)):
                x = carrier.d(x)
            return x

        triples = [(w, element(), element()) for w in weights]
        got, want = sum_of_products(carrier, triples), fold(carrier, triples)
        assert str(got) == str(want)
        assert carrier.eq(got, want)

    def test_which_carriers_are_fused(self):
        by_name = {c.name: c.sum_products for c in shipped_carriers() + broken_carriers()}
        assert by_name == {
            "poly_sharp": polynomial.sum_products, "diffpoly": polynomial.sum_products,
            "hurwitz": hurwitz.sum_smul, "power": hurwitz.sum_smul, "rota_baxter": None,
            "broken_identity": polynomial.sum_products,
            "broken_squaring": polynomial.sum_products,
            "broken_unscaled_shift": hurwitz.sum_smul}

    @pytest.mark.parametrize("carrier", shipped_carriers(), ids=lambda c: c.name)
    def test_empty_sum_is_zero(self, carrier):
        assert sum_of_products(carrier, []) is carrier.zero
        assert sum_of_products(carrier, iter(())) is carrier.zero

    def counted(self, c, log):
        """c with add, scale and mul that log their calls."""
        def logging(name, f):
            def call(*args):
                log.append(name)
                return f(*args)
            return call

        return replace(c, add=logging("add", c.add), scale=logging("scale", c.scale),
                       mul=logging("mul", c.mul))

    def test_carrier_without_kernel_takes_the_fold(self):
        log = []
        c = self.counted(DiffCarrier(name="rationals", zero=Fraction(0), one=Fraction(1),
                                     add=operator.add, mul=operator.mul, scale=operator.mul,
                                     d=lambda x: Fraction(0), sample=lambda rng, size: 0), log)
        assert sum_of_products(c, [(2, Fraction(1, 2), 3), (-1, 5, Fraction(1, 5))]) == 2
        assert log == ["mul", "scale", "add"] * 2

    def test_rota_baxter_takes_the_fold(self):
        log = []
        c = self.counted(rota_baxter_carrier(), log)
        rng = SplitMix64(3)
        a, b = c.sample(rng, 3), c.sample(rng, 3)
        assert sum_of_products(c, [(1, a, c.d(b)), (1, c.d(a), b)]) == c.d(c.mul(a, b))
        assert log.count("add") == 2 and log.count("scale") == 2

    @pytest.mark.parametrize("carrier", [poly_sharp_carrier(), diffpoly_carrier()],
                             ids=lambda c: c.name)
    def test_higher_leibniz_trial_is_fused(self, carrier, monkeypatch):
        """One trial at n_max = 5 builds all 6 of its right-hand sides with
        one call of the Hurwitz hook on the one pair of towers; no
        polynomial sum is taken, in the carrier's add or in Poly.__add__,
        while they are built, and sum_products is not called."""
        fused, adds, inside = [], [], []
        kernel, poly_add = carrier.sum_hurwitz, Poly.__add__

        def counting_kernel(pairs, order):
            fused.append((len(pairs), order))
            inside.append(True)
            try:
                return kernel(pairs, order)
            finally:
                inside.pop()

        def counting_add(p, q):
            if inside:
                adds.append("Poly.__add__")
            return poly_add(p, q)

        def carrier_add(p, q):
            adds.append("add")
            return p + q

        def no_sum_products(triples):
            adds.append("sum_products")
            return carrier.sum_products(triples)

        c = replace(carrier, sum_hurwitz=counting_kernel, sum_products=no_sum_products,
                    add=carrier_add)
        monkeypatch.setattr(Poly, "__add__", counting_add)
        assert check_higher_leibniz(c, 5, 1, 7).passed
        assert fused == [(1, 5)]
        assert adds == []


class TestHurwitzSums:
    """hurwitz_sums builds the higher-Leibniz and Faà di Bruno right-hand
    sides, component n the sum of w·C(n,k)·a[k]·b[n-k] over the pairs of
    towers: the polynomial carriers in one packed Hurwitz product, every
    other carrier with one sum_of_products per component."""

    CARRIERS = (poly_sharp_carrier(), diffpoly_carrier(), hurwitz_carrier())

    @staticmethod
    def per_component(c, pairs, order):
        return [sum_of_products(c, [(w * binom(n, k), a[k], b[n - k])
                                    for w, a, b in pairs for k in range(n + 1)])
                for n in range(order + 1)]

    @staticmethod
    def towers(c, seed, n_max, count):
        """count random towers to D^n_max, with mixed denominators."""
        rng = SplitMix64(seed)
        return [natural_map(c.d, c.scale(Fraction(1, 1 + rng.randint(1, 5)), c.sample(rng, 3)),
                            n_max) for _ in range(count)]

    def test_which_carriers_have_the_hook(self):
        hooked = {c.name for c in shipped_carriers() + broken_carriers() if c.sum_hurwitz}
        assert hooked == {"poly_sharp", "diffpoly", "broken_identity", "broken_squaring"}

    @pytest.mark.parametrize("n_max", [0, 1, 5])
    @pytest.mark.parametrize("carrier", CARRIERS, ids=lambda c: c.name)
    def test_equals_one_sum_per_component(self, carrier, n_max):
        for seed in range(4):
            t = self.towers(carrier, seed, n_max, 4)
            pairs = [(1, t[0], t[1]), (-2, t[2], t[3]), (3, t[1], t[2])]
            got = hurwitz_sums(carrier, pairs, n_max)
            assert got == self.per_component(carrier, pairs, n_max)
            assert len(got) == n_max + 1

    @pytest.mark.parametrize("n_max", [0, 1, 5])
    @pytest.mark.parametrize("carrier", CARRIERS, ids=lambda c: c.name)
    def test_commuted_pair_cancels(self, carrier, n_max):
        """The Hurwitz product is commutative, so a·b - b·a is zero in every
        component, with the summands of both pairs merged."""
        a, b = self.towers(carrier, 9, n_max, 2)
        got = hurwitz_sums(carrier, [(1, a, b), (-1, b, a)], n_max)
        assert all(carrier.eq(x, carrier.zero) for x in got)

    @pytest.mark.parametrize("carrier", CARRIERS, ids=lambda c: c.name)
    def test_no_pairs_give_the_carrier_zero(self, carrier):
        assert all(x is carrier.zero for x in hurwitz_sums(carrier, [], 3))
        assert hurwitz_sums(carrier, [(1, [carrier.one], [carrier.one])], -1) == []

    @pytest.mark.parametrize("n_max", [0, 1, 5])
    @pytest.mark.parametrize("carrier", CARRIERS, ids=lambda c: c.name)
    def test_constant_polynomial_with_no_arguments(self, carrier, n_max):
        assert faa_di_bruno_mismatch(carrier, Poly.const(Fraction(-5, 3)), {}, n_max) is None
