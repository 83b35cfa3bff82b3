"""Which laws and tests catch which kernel fault: a small mutation matrix.

Each mutant is one exact text substitution in a kernel of src/diffalg or in
the CLI's argv reader, with the pytest node ids it names, if any.  For
each, this script copies src/ to a temporary directory, applies the
substitution there, runs
``python -m diffalg.cli laws --seed 42 --trials 10`` on the copy (a crash of
the run counts as caught) and then the named tests on it with
``python -m pytest -q -x -p no:cacheprovider``, and prints the mutant with
the laws and the tests that fail.  It exits 1 if a substitution does not
match exactly once, a named test cannot be run, or a mutant fails no law
and no named test.

    python tools/mutants.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (name, file under src/diffalg, text, replacement, *pytest node ids)
MUTANTS = [
    # One expression builds the kept rows and the rows past the cap; no law
    # multiplies past the cap, so a named test does.
    ("pascal_rows_all_ones", "hurwitz.py",
     "row = (1, *map(operator.add, row, row[1:]), 1)", "row = (1,) * (len(row) + 1)",
     "tests/test_hurwitz.py::TestKernel::test_rational_series_past_the_kept_rows"),
    # Row n of an order-N product weighs with row N - n; zip stops at the
    # shorter, so nothing crashes.
    ("pascal_rows_reversed", "hurwitz.py",
     "return _PASCAL[:count]", "return _PASCAL[:count][::-1]"),
    # Hurwitz weights only the first n + 1 summands, so only power adds a0·b0.
    ("cauchy_adds_a0_b0", "hurwitz.py",
     "[sum(map(operator.mul, a, b[n::-1])) for n in range(order + 1)]",
     "[sum(map(operator.mul, a, b[n::-1])) + (a[0] * b[0] if n else 0) for n in range(order + 1)]"),
    ("hurwitz_drops_last_summand", "hurwitz.py",
     "map(operator.mul, row, column)", "map(operator.mul, row[:n], column)"),
    ("power_sderive_scales_n_plus_2", "hurwitz.py",
     "map(operator.mul, range(1, len(f._num)), nums)",
     "map(operator.mul, range(2, len(f._num) + 1), nums)"),
    ("sharp_drops_exponent_factor", "polynomial.py",
     "lower, ce = mono_lower(m, i), c * e", "lower, ce = mono_lower(m, i), c"),
    # No law reaches a letter's coefficient: random_rbelem builds its keys
    # directly and check_shuffle_counts uses monic letters.  The
    # iterated-integral oracle builds terms through RBElem.term.
    ("word_expansion_drops_letter_coefficient", "rota_baxter.py",
     "{w + (m,): c * cm for", "{w + (m,): c for",
     "tests/test_sympy_oracle.py::TestIteratedIntegralOracle",
     "tests/test_rota_baxter.py::TestShuffle"),
    # Where the two halves of a grid cell share a word but do not hold the
    # same words in the same order, only the last count stays.
    ("shuffle_merge_keeps_one_count", "rota_baxter.py",
     "merged[w] = merged.get(w, 0) + n", "merged[w] = n",
     "tests/test_rota_baxter.py::TestKernel",
     "tests/test_sympy_oracle.py::TestIteratedIntegralOracle"),
    # Where both halves of a grid cell hold the same words in the same
    # order, the upper half's counts stand for the sum.  The counts of a
    # repeated-letter shuffle fall short; no law sees it.
    ("shuffle_same_words_keep_one_count", "rota_baxter.py",
     "list(map(operator.add, up_n, left_n))", "up_n",
     "tests/test_rota_baxter.py::TestKernel::test_matches_enumeration"),
    # On a stored key P moves the tail into the word but keeps it as the
    # tail, so D no longer kills the images of P.
    ("rb_P_keeps_the_tail", "rota_baxter.py",
     "{k + EMPTY: c for k, c in", "{k + k[-1]: c for k, c in"),
    # A sum of two elements with a key in common keeps the right operand's
    # numerator for it, as the dict union leaves it.
    ("sum_overwrites_shared_key", "lincomb.py",
     "out[k] = a[k] + n", "out[k] = n",
     "tests/test_lincomb.py::TestHashCounts"),
    ("beta_reads_order_too_high", "free_diff.py",
     "{v: towers[v.base][v.order] for v in",
     "{v: towers[v.base][min(v.order + 1, len(towers[v.base]) - 1)] for v in",
     "tests/test_sympy_oracle.py::test_beta_differentiates_each_encoded_jet"),
    ("comul_misplaces_rows", "hurwitz.py",
     "f.coeffs[m + n] for n in", "f.coeffs[min(m + n + (m > 0), f.order)] for n in"),
    # Where D bumps x^(n) into a factor x^(n+1) already in the monomial,
    # that factor's exponent is not raised.
    ("d_shift_drops_merged_exponent", "free_diff.py",
     "rest[0][1] + 1", "rest[0][1]"),
    # The unchecked successor that d_shift bumps each variable to skips an
    # order, (x, n) to (x, n+2): it fails shift_matches_sharp, the
    # derivation laws on diffpoly and the monad laws.
    ("shift_successor_two_orders", "free_diff.py",
     "(self[0], self[1] + 1)", "(self[0], self[1] + 2)",
     "tests/test_free_diff.py::TestShift::test_bumped_variables_are_checked_dvars"),
    # A shared variable keeps the larger exponent instead of the sum.
    ("mono_mul_takes_max_exponent", "polynomial.py",
     "x[1] + y[1]", "max(x[1], y[1])"),
    # The one product loop of Poly.__mul__ and sum_products drops the weight
    # w, which also carries each product onto the common denominator, so
    # the Leibniz and chain-rule sums on the polynomial carriers go wrong.
    ("accumulate_drops_weight", "polynomial.py",
     "c1 *= w", "c1 *= 1"),
    # The packed convolution kernel builds the higher-Leibniz and Faà di
    # Bruno right-hand sides on the polynomial carriers, and it names its
    # tests too.  One bit short, the fields of the packed keys carry into
    # each other and distinct monomials share a key.
    ("packed_field_one_bit_short", "polynomial.py",
     "for side in (1, 2)).bit_length()", "for side in (1, 2)).bit_length() - 1",
     "tests/test_hurwitz.py::TestKernel::test_packed_kernel_matches_the_component_fold"),
    # A packed key seen again keeps only its latest summand.
    ("packed_hit_keeps_latest_summand", "polynomial.py",
     "acc[k] = s + n1 * n2", "acc[k] = n1 * n2",
     "tests/test_hurwitz.py::TestKernel::test_packed_kernel_matches_the_component_fold"),
    # Each packed component divides by a gcd of 1 and keeps its numerators
    # over the unreduced lcm: equal values in a store that is not
    # canonical, so == fails the higher-Leibniz and Faà di Bruno laws on
    # the polynomial carriers.
    ("packed_component_left_unreduced", "lincomb.py",
     "if g != 1:\n            nums = [n // g", "if g == 1:\n            nums = [n // g",
     "tests/test_hurwitz.py::TestSumConvolution"),
    # A zero exponent is accepted, and mono_from_exponents drops it; no
    # law decodes a malformed nesting.
    ("decode_nested_accepts_zero_exponent", "free_diff.py",
     "type(e) is not int or e <= 0", "type(e) is not int or e < 0",
     "tests/test_free_diff.py::TestNesting::test_malformed_numbers"),
    # The numerators are divided by their gcd with the denominator but the
    # denominator is not, so every reduced value shrinks by that gcd.
    ("from_ints_keeps_den", "lincomb.py",
     "sums.items()}\n            den //= g", "sums.items()}\n            den //= 1"),
    # The constant term of the composition recursion is not put over its
    # node's denominator.  Only power's division of component m by m makes
    # that differ from the head's own denominator, so only power fails.
    ("recursion_head_unscaled", "hurwitz.py",
     "head * (den // s)", "head"),
    # The recursion lowers an exponent for each partial without
    # multiplying by it, so every partial of a higher power is wrong.
    ("recursion_partial_drops_exponent", "hurwitz.py",
     "c * e[i] * d for e, c in", "c * d for e, c in"),
    # The tensor's slot action drops every sign; scale_poly is one
    # map_poly, so the Leibniz and chain-rule right-hand sides go wrong.
    ("map_poly_drops_sign", "polynomial.py",
     "slots.setdefault(v, {})[m] = c", "slots.setdefault(v, {})[m] = abs(c)"),
    # Two variables of one monomial renamed to one name keep the last
    # exponent instead of the sum; it fails no law at seed 42, trials 10.
    ("rename_keeps_last_exponent", "polynomial.py",
     "exps.get(names[v], 0) + e", "e",
     "tests/test_polynomial.py::TestRenameVars::test_merging_collisions"),
    # The Rota-Baxter derivation keeps only the terms with a constant tail,
    # each scaled by degree 0: it is the zero map, a derivation that kills
    # P, so every law still passes.
    ("rb_D_is_zero", "rota_baxter.py",
     "if k[-1] != EMPTY}", "if k[-1] == EMPTY}",
     "tests/test_lincomb.py::TestStore::test_rota_baxter"),
    # A series result keeps its int numerators over an unreduced
    # denominator, and divides by a gcd of 1: equal values, but a store
    # that is not canonical; no law looks at the store.
    ("series_reduction_skipped", "hurwitz.py",
     "if g != 1:", "if g == 1:",
     "tests/test_diff_laws.py::TestSamplers::test_random_series_equals_the_fold"),
    # The public shuffle() adds the coefficients of the two words instead
    # of multiplying them; no law calls it.  (The text cu * cv alone also
    # matches shuffle_term_count.)
    ("shuffle_adds_coefficients", "rota_baxter.py",
     "Fraction(cu * cv, den)", "Fraction(cu + cv, den)",
     "tests/test_cli.py::TestRbBound::test_repeated_letters_are_counted_apart"),
    # psi_inv reads its top factorial one row short, (N-1)! for N!, so the
    # last coefficient of every series of order N >= 1 comes back 0.
    ("psi_inv_top_factorial_one_row_short", "hurwitz.py",
     "top = facts[f.order]", "top = facts[f.order - 1]"),
    # The argv reader takes an ambiguous prefix (psi --f) for the first
    # option it matches; laws --seed 42 --trials 10 spells every option out.
    ("ambiguous_prefix_takes_first_match", "cli.py",
     "if len(found) > 1:", "if len(found) > len(names):",
     "tests/test_cli.py::TestArgvReader"),
    # A negative number (laws --seed -5, mul -1 2) is read as an unknown
    # option, so its verb refuses it; no law reads a negative argument.
    ("negative_number_read_as_option", "cli.py",
     r' or re.match(r"-\d+$|-\d*\.\d+$", t)', "",
     "tests/test_cli.py::TestArgvReader"),
]


def failing(name: str, text: str, replacement: str, tests) -> tuple[list, list]:
    """The laws and the named tests that fail on src/ with text replaced."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "diffalg" / name
        code = path.read_text()
        if code.count(text) != 1:
            sys.exit(f"{name}: {text!r} matches {code.count(text)} times, not once")
        path.write_text(code.replace(text, replacement))
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-m", "diffalg.cli", "laws", "--seed", "42",
                              "--trials", "10"], env=env, capture_output=True, text=True)
        if run.returncode not in (0, 1):  # 1: a law failed; anything else: a crash
            laws = [f"crash(exit {run.returncode})"]
        else:
            reports = [json.loads(line) for line in run.stdout.splitlines()]
            laws = [r["law"] for r in reports if not r["pass"]]
        if not tests:
            return laws, []
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                              *tests], cwd=ROOT, env=env, capture_output=True, text=True)
        if not run.returncode:
            return laws, []
        if run.returncode != 1:  # 1: a test failed; anything else: not run
            sys.exit(f"{name}: pytest exit {run.returncode} on {' '.join(tests)}\n{run.stdout}")
        failed = [line.split()[1] for line in run.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))]
        return laws, failed or ["pytest(exit 1)"]


def main() -> int:
    status = 0
    for mutant, name, text, replacement, *tests in MUTANTS:
        laws, failed = failing(name, text, replacement, tests)
        line = f"{mutant}: {len(laws)} failing: {' '.join(laws) or 'NONE'}"
        if tests:
            line += f"; named tests failing: {' '.join(failed) or 'NONE'}"
        print(line, flush=True)
        status |= not (laws or failed)
    return status


if __name__ == "__main__":
    sys.exit(main())
