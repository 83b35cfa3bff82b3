"""Acceptance gate: every shipped guarantee at its full trial count, exact
rational equality throughout (zero tolerance).  One printed line per
criterion."""

import hashlib
import itertools
import json

from cli_runner import CLI, run_child, run_cli
from diffalg.carriers import (
    broken_identity_carrier,
    broken_squaring_carrier,
    broken_unscaled_shift_carrier,
    diffpoly_carrier,
    hurwitz_carrier,
)
from diffalg.diff_laws import (
    check_constant_rule,
    check_higher_leibniz,
    check_leibniz,
)
from diffalg.polynomial import Poly, euler
from diffalg.rota_baxter import check_rota_baxter
from diffalg.suites import (
    check_codifferential_axioms,
    check_comonad_laws,
    check_eval_pointwise,
    check_eval_recursions,
    check_extend_morphism,
    check_monad_laws,
    check_psi_laws,
    check_rb_incompatibility,
    check_shift_oracle,
    check_shuffle_counts,
    faa_di_bruno_suite,
)

SEED = 2024
# The stdout of `laws --seed 42` at its default 100 trials: 52 report lines.
LAWS_SEED42_TRIALS100_SHA256 = "87fdae1aa2029763fb74fcfdb080c2dda44e36ec2c7e6882228a8efa97922082"


def _criterion(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {description}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def _all_pass(reports):
    bad = [r for r in reports if not r.passed]
    return not bad, "; ".join(r.to_json() for r in bad)


def test_criterion_1_codifferential_axioms():
    reports = check_codifferential_axioms(trials=200, seed=SEED)
    ok, detail = _all_pass(reports)
    _criterion(1, "codifferential axioms (constant/Leibniz/linear/chain/interchange), "
                  "200 random polynomials, exact", ok, detail)


def test_criterion_2_derivation_rules_on_carriers():
    reports = []
    for carrier in (diffpoly_carrier(), hurwitz_carrier()):
        reports.append(check_constant_rule(carrier, 1, SEED))
        reports.append(check_leibniz(carrier, 100, SEED + 1))
        reports.append(check_higher_leibniz(carrier, 5, 100, SEED + 2))
        reports.append(faa_di_bruno_suite(carrier, 100, SEED + 3))  # n <= 4
    ok, detail = _all_pass(reports)
    _criterion(2, "constant, Leibniz, higher-order Leibniz (n<=5), higher-order "
                  "chain rule (n<=4) on differential-polynomial and Hurwitz "
                  "carriers, 100 trials each", ok, detail)


def test_criterion_3_free_side():
    reports = [check_shift_oracle(200, SEED)]
    reports.extend(check_monad_laws(50, SEED + 1))
    reports.append(check_extend_morphism(100, SEED + 2))
    ok, detail = _all_pass(reports)
    _criterion(3, "shift derivation matches categorical recipe (200), monad laws "
                  "on nested elements (50), evaluation commutes with derivations "
                  "(100)", ok, detail)


def test_criterion_4_cofree_side():
    reports = check_eval_recursions(100, SEED)
    reports.extend(check_eval_pointwise(100, SEED + 1))
    ok, detail = _all_pass(reports)
    _criterion(4, "coefficient recursions match ring evaluation (both flavors, "
                  "n<=6, 100 pairs at order 8) plus unit/generator/product "
                  "clauses pointwise", ok, detail)


def test_criterion_5_psi_isomorphism():
    reports = check_psi_laws(100, SEED)
    ok, detail = _all_pass(reports)
    _criterion(5, "factorial rescaling: round-trip, multiplicativity, derivation "
                  "intertwining on 100 random order-8 series", ok, detail)


def test_criterion_6_comonad_laws():
    reports = check_comonad_laws(50, SEED)
    ok, detail = _all_pass(reports)
    _criterion(6, "comultiplication counit (both ways) and coassociativity on "
                  "the valid triangle at order 10, 50 series", ok, detail)


def test_criterion_7_rota_baxter():
    reports = [
        check_rota_baxter(100, SEED),
        check_rb_incompatibility(100, SEED + 1),
        check_shuffle_counts(1, SEED + 2),
    ]
    ok, detail = _all_pass(reports)
    _criterion(7, "Rota-Baxter identity and D(P(a)) = 0 on 100 random elements; "
                  "shuffle multiplicities equal binomials for words up to "
                  "length 4", ok, detail)


def test_criterion_8_euler_exhaustive():
    ok = True
    count = 0
    for degs in itertools.product(range(7), repeat=3):
        if sum(degs) > 6:
            continue
        count += 1
        m = Poly.monomial({"x": degs[0], "y": degs[1], "z": degs[2]})
        if euler(m) != sum(degs) * m:
            ok = False
            break
    _criterion(8, f"degree operator scales every monomial by its total degree "
                  f"(exhaustive, {count} monomials of degree <= 6 in 3 variables)", ok)


def test_criterion_9_negative_controls():
    reports = [
        check_constant_rule(broken_identity_carrier(), 1, SEED),
        check_leibniz(broken_squaring_carrier(), 50, SEED),
        check_leibniz(broken_unscaled_shift_carrier(), 50, SEED),
    ]
    ok = all((not r.passed) and r.counterexample is not None for r in reports)
    _criterion(9, "all three broken carriers fail with a concrete "
                  "counterexample", ok,
               "; ".join(r.to_json() for r in reports))


def test_criterion_10_cli_golden():
    diff = run_cli("diff", "--n", "2", "x^2")
    psi = run_cli("psi", "[1,1,1,1]", "--from", "power")
    # The shipped entry point, run as a user runs it, in a fresh interpreter.
    laws = run_child(*CLI, "laws", "--seed", "42")
    laws_sha = hashlib.sha256(laws.stdout.encode()).hexdigest()
    ok = (
        diff.returncode == 0 and diff.stdout == "2*x'^2 + 2*x*x''\n"
        and psi.returncode == 0 and psi.stdout == "[1,1,2,6]\n"
        and laws.returncode == 0
        and all(json.loads(line)["pass"] for line in laws.stdout.splitlines())
        and laws_sha == LAWS_SEED42_TRIALS100_SHA256
    )
    _criterion(10, "CLI golden outputs byte-exact; laws --seed 42 exits 0 with "
                   "its 100-trial reports frozen byte for byte", ok,
               f"diff={diff.stdout!r} psi={psi.stdout!r} laws_rc={laws.returncode} "
               f"laws_sha256={laws_sha}")
