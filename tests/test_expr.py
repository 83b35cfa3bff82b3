import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cli_runner import run_cli
from diffalg import expr, free_diff, literals, polynomial
from diffalg.errors import ModeError, ParseError
from diffalg.expr import (
    DIFF_MODE,
    MAX_NESTING,
    MAX_ORDER,
    MAX_POWER_BITS,
    MAX_POWER_PAIRS,
    MAX_POWER_TERMS,
    MAX_PRODUCT_PAIRS,
    MAX_PRODUCT_VARIABLES,
    MAX_WORK,
    POLY_MODE,
    parse_poly,
    parse_rational,
    parse_series_literal,
)
from diffalg.free_diff import DVar, d_shift, dvar
from diffalg.polynomial import Poly, eta


class TestGrammar:
    def test_primes_and_products(self):
        got = parse_poly("x'^2 + 2*x*x''")
        assert got == dvar("x", 1) ** 2 + 2 * dvar("x") * dvar("x", 2)

    def test_d_application(self):
        assert parse_poly("D(x^2)") == 2 * dvar("x") * dvar("x", 1)
        assert parse_poly("D^2(x^2)") == parse_poly("2*x'^2 + 2*x*x''")
        assert parse_poly("D^0(x)") == dvar("x")

    def test_poly_mode_variables_are_plain(self):
        assert parse_poly("x*y + 1", POLY_MODE) == eta("x") * eta("y") + 1

    def test_rationals(self):
        assert parse_poly("3/4", POLY_MODE) == Poly.const(Fraction(3, 4))
        assert parse_poly("-5/2*x", POLY_MODE) == Fraction(-5, 2) * eta("x")
        assert parse_poly("x - 2", POLY_MODE) == eta("x") - 2

    def test_parentheses_and_powers(self):
        assert parse_poly("(x + 1)^2", POLY_MODE) == (eta("x") + 1) ** 2
        assert parse_poly("2*(x + y)", POLY_MODE) == 2 * eta("x") + 2 * eta("y")

    def test_high_order_marker(self):
        assert parse_poly("x^(4)") == dvar("x", 4)
        assert parse_poly("x^(4)^2") == dvar("x", 4) ** 2
        assert parse_poly("x'''") == dvar("x", 3)

    def test_whitespace_insensitive(self):
        assert parse_poly(" x^2 +  2 * x ") == parse_poly("x^2+2*x")
        assert parse_poly(" D ( x ) ") == dvar("x", 1)

    def test_identifier_shapes(self):
        assert parse_poly("foo_1*Dx", POLY_MODE) == eta("foo_1") * eta("Dx")


class TestModeErrors:
    def test_prime_in_poly_mode(self):
        with pytest.raises(ModeError):
            parse_poly("x'", POLY_MODE)

    def test_d_in_poly_mode(self):
        with pytest.raises(ModeError):
            parse_poly("D(x^2)", POLY_MODE)

    def test_marker_in_poly_mode(self):
        with pytest.raises(ModeError):
            parse_poly("x^(4)", POLY_MODE)


class TestSyntaxErrors:
    def test_offset_and_expected(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x^", DIFF_MODE)
        assert info.value.offset == 3
        assert "natural number" in info.value.expected

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x y", DIFF_MODE)
        assert info.value.offset == 3

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_poly("", DIFF_MODE)

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_poly("(x + 1", DIFF_MODE)

    def test_missing_operand(self):
        with pytest.raises(ParseError):
            parse_poly("x + * y", DIFF_MODE)

    @pytest.mark.parametrize("text", ["(x)^(4)", "((x))^(4)", "x'^(4)", "D(x)^(2)"])
    def test_marker_only_on_a_bare_variable(self, text):
        """A '^(n)' marker follows a variable name directly, as the grammar
        has it; no parenthesized, primed or derived atom carries one."""
        with pytest.raises(ParseError) as info:
            parse_poly(text, DIFF_MODE)
        assert info.value.offset == text.index("^") + 1
        assert "natural number" in info.value.expected

    def test_d_needs_parens(self):
        with pytest.raises(ParseError):
            parse_poly("D x", DIFF_MODE)


class TestNestingBound:
    def test_at_the_bound(self):
        n = MAX_NESTING
        assert parse_poly("(" * n + "x" + ")" * n) == dvar("x")
        assert parse_poly("D(" * n + "x" + ")" * n) == dvar("x", n)

    @pytest.mark.parametrize("opener", ["(", "D("])
    def test_one_over_the_bound(self, opener):
        depth = MAX_NESTING + 1
        with pytest.raises(ParseError, match="nesting deeper than") as info:
            parse_poly(opener * depth + "x" + ")" * depth, DIFF_MODE)
        # the offset points just past the first opener over the bound
        assert info.value.offset == len(opener) * depth + 1

    def test_parentheses_and_d_count_alike(self):
        half = MAX_NESTING // 2
        text = "(D(" * half + "x" + "))" * half
        assert parse_poly(text) == dvar("x", half)
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse_poly("(" + text + ")", DIFF_MODE)

    def test_long_flat_chains(self):
        """A flat sum or product of any length is folded in a loop as it is
        parsed; it must not recurse per operand."""
        assert parse_poly(" + ".join(["x"] * 3000)) == 3000 * dvar("x")
        assert parse_poly("*".join(["x"] * 3000)) == dvar("x") ** 3000
        assert parse_poly(" - ".join(["x"] * 3001)) == -2999 * dvar("x")


def recorded(monkeypatch, owner, name, entry, calls=None) -> list:
    """calls (a new list by default), to which each call of owner.name
    appends entry(*args) before the original runs."""
    calls = [] if calls is None else calls
    original = getattr(owner, name)

    def call(*args):
        calls.append(entry(*args))
        return original(*args)

    monkeypatch.setattr(owner, name, call)
    return calls


class TestOrderBound:
    """Derivative orders above MAX_ORDER are rejected before any shift
    derivative runs; the tests count the d_shift calls to show that."""

    @pytest.fixture
    def shifts(self, monkeypatch):
        return recorded(monkeypatch, free_diff, "d_shift", lambda p: p)

    def test_at_the_bound(self, shifts):
        assert parse_poly(f"D^{MAX_ORDER}(x)") == dvar("x", MAX_ORDER)
        assert len(shifts) == MAX_ORDER
        assert parse_poly(f"D^{MAX_ORDER // 2}(D^{MAX_ORDER // 2}(x))") == dvar("x", MAX_ORDER)
        assert len(shifts) == 2 * MAX_ORDER

    @pytest.mark.parametrize("text", [f"D^{MAX_ORDER + 1}(x)", "D^100000000(x)",
                                      "x + D^600(y * D^500(x))", f"D(D^{MAX_ORDER}(x))"])
    def test_above_the_bound(self, shifts, text):
        with pytest.raises(ParseError, match=f"derivative order above {MAX_ORDER}"):
            parse_poly(text)
        assert shifts == []

    def test_siblings_do_not_add_up(self, shifts):
        assert parse_poly(f"D^{MAX_ORDER}(x) + D^{MAX_ORDER}(y)", DIFF_MODE)

    @pytest.mark.parametrize("n", [MAX_ORDER + 1, 100000000])
    def test_cli_n_above_the_bound(self, shifts, n):
        r = run_cli("diff", "--n", str(n), "x")
        assert r.returncode == 2
        assert r.stderr.startswith(f"error: --n must be from 0 to {MAX_ORDER}")
        assert shifts == []


class TestPowerBound:
    """A power whose result may have more than MAX_POWER_TERMS terms is
    refused before anything is multiplied; the tests count the powers
    taken to show that."""

    @pytest.fixture
    def powers(self, monkeypatch):
        return recorded(monkeypatch, Poly, "__pow__", lambda p, n: n)

    @pytest.mark.parametrize("text, offset", [
        ("(x+y+1)^150", 9), ("(x+y+1)^300", 9), ("(x + y + 1) ^ 300", 15),
        ("(x+y+1)^" + "9" * 4000, 9), ("((x+y+1)^40)^3", 14), ("(x+2)^2000", 7),
        ("z + (x^(4)+y)^2000", 15)])
    def test_above_the_bound(self, powers, text, offset):
        with pytest.raises(ParseError, match=f"a power of more than {MAX_POWER_TERMS} terms") as info:
            parse_poly(text)
        assert info.value.offset == offset
        assert powers == [40] * text.count("^40")  # the inner power of ((x+y+1)^40)^3 is fine

    @pytest.mark.parametrize("text, mode", [("(x+y+1)^150 +", DIFF_MODE),
                                            ("(x+y+1)^150 + x'", POLY_MODE)])
    def test_errors_in_text_order(self, powers, text, mode):
        """The power is refused as soon as it is read, before the parser
        reaches the missing operand or the primed variable after it."""
        with pytest.raises(ParseError, match=f"a power of more than {MAX_POWER_TERMS} terms") as info:
            parse_poly(text, mode)
        assert info.value.offset == 9
        assert powers == []

    @pytest.mark.parametrize("text, terms", [
        ("x^1000", 1), ("(x+1)^1000", 1001), ("(2*x)^15000", 1), ("0^7", 0), ("0^0", 1),
        ("(3/2)^40", 1), ("(x+y+1)^61", 1953), ("(x*y + x + y)^30", 496)])
    def test_within_the_bound(self, text, terms):
        p = parse_poly(text, POLY_MODE)
        assert p.n_terms() == terms <= MAX_POWER_TERMS
        assert expr._power_terms(parse_poly(text.rsplit("^", 1)[0], POLY_MODE),
                                 int(text.rsplit("^", 1)[1])) >= terms

    def test_estimate_bounds_every_small_power(self):
        bases = ["x", "x+1", "x+y", "x*y+1", "x^2+y+z", "(x+y)^2+z", "3", "0", "x*y*z-x+2"]
        for text in bases:
            base = parse_poly(text, POLY_MODE)
            for n in range(6):
                assert expr._power_terms(base, n) >= (base ** n).n_terms(), (text, n)

    def test_estimate_is_exact_on_dense_bases(self):
        """Both binomial bounds are exact for a generic dense linear base."""
        for v in range(1, 4):
            base = sum((eta(f"x{i}") for i in range(v)), Poly.one())
            for n in range(8):
                want = math.comb(n + v, v)
                if want <= MAX_POWER_TERMS:
                    assert expr._power_terms(base, n) == want == (base ** n).n_terms()

    @pytest.mark.parametrize("text, offset, taken", [
        ("(x+1)^1999", 7, []), ("(x+y)^1999", 7, []), ("(x + 1) ^ 1999", 11, []),
        ("((x+1)^500)^3", 13, [500]),  # 1501 terms from 752,502 pairs; the inner power is fine
        ("(x+1)^1999 +", 7, [])])  # refused before the missing operand
    def test_pair_bound(self, powers, text, offset, taken):
        """(x+1)^1999 has 2000 terms, at the term bound, but its
        square-and-multiply takes 1,341,062 term pairs (3 s)."""
        with pytest.raises(ParseError, match=f"a power of more than {MAX_POWER_PAIRS} term pairs "
                                             f"at byte {offset} ") as info:
            parse_poly(text, POLY_MODE)
        assert info.value.offset == offset
        assert powers == taken

    def test_pair_bound_cli_operands(self, powers):
        r = run_cli("mul", "(x+1)^1999", "1")
        assert r.returncode == 2
        assert r.stderr == (
            f"error: a power of more than {MAX_POWER_PAIRS} term pairs at byte 7 "
            f"(expected: at most {MAX_POWER_PAIRS} term pairs in a power)\n")
        assert powers == []

    @pytest.mark.parametrize("text, offset, taken", [
        ("((28)^1999)^2000", 13, [1999]), ("2^100001", 3, []), ("(1/3)^50001", 7, []),
        ("(99999*y)^5883", 11, [])])
    def test_bit_bound(self, powers, text, offset, taken):
        """A power of one term passes the term and pair bounds however
        large its coefficient grows: ((28)^1999)^2000 took 6 s, all of it
        spent on a number of 19 million bits."""
        with pytest.raises(ParseError, match=f"a power of more than {MAX_POWER_BITS} coefficient "
                                             f"bits at byte {offset} ") as info:
            parse_poly(text, POLY_MODE)
        assert info.value.offset == offset
        assert powers == taken

    @pytest.mark.parametrize("text", ["2^100000", "(1/3)^50000", "x^100000000", "0^1000000",
                                      "(0-x)^99999", "(99999*y)^5882"])
    def test_within_the_bit_bound(self, powers, text):
        parse_poly(text, POLY_MODE)
        assert powers == [int(text.rsplit("^", 1)[1])]

    @pytest.mark.parametrize("text, n, pairs", [
        ("x+1", 1000, 335_573), ("x+1", 999, 337_064), ("x+y+1", 61, 272_052),
        ("x+1", 1999, 1_341_062), ("x+y", 1999, 1_341_062), ("2*x", 15000, 19), ("0", 9, 3)])
    def test_pair_estimate(self, monkeypatch, text, n, pairs):
        """A power is refused with the limit one below its pair estimate and
        taken at it; ** is stubbed, so nothing is multiplied."""
        taken = []
        monkeypatch.setattr(Poly, "__pow__", lambda p, k: taken.append(k) or p)
        monkeypatch.setattr(expr, "MAX_POWER_PAIRS", pairs - 1)
        with pytest.raises(ParseError, match="term pairs"):
            parse_poly(f"({text})^{n}", POLY_MODE)
        monkeypatch.setattr(expr, "MAX_POWER_PAIRS", pairs)
        parse_poly(f"({text})^{n}", POLY_MODE)
        assert taken == [n]

    @pytest.mark.parametrize("text, n", [
        ("x+1", 99), ("x+y+1", 13), ("w+x+y+z", 5), ("x+1", 64), ("x+1", 1), ("x+1", 0)])
    def test_pair_estimate_is_exact_on_dense_bases(self, monkeypatch, text, n):
        """The term pairs ** multiplies, counted in the one product loop,
        are the estimate: refused one below them, taken at them."""
        count = []
        original = polynomial._accumulate

        def counting(out, w, a, b):
            count.append(len(a) * len(b))
            return original(out, w, a, b)

        monkeypatch.setattr(polynomial, "_accumulate", counting)
        base = parse_poly(text, POLY_MODE)
        pairs = (count.clear(), base ** n, sum(count))[2]
        monkeypatch.setattr(expr, "MAX_POWER_PAIRS", pairs)
        assert parse_poly(f"({text})^{n}", POLY_MODE) == base ** n
        if pairs:
            monkeypatch.setattr(expr, "MAX_POWER_PAIRS", pairs - 1)
            with pytest.raises(ParseError, match="term pairs"):
                parse_poly(f"({text})^{n}", POLY_MODE)


def linear_sum(v: int) -> str:
    """x0 + ... + x(v-1): v terms whose square has v(v+1)/2."""
    return "(" + " + ".join(f"x{i}" for i in range(v)) + ")"


def powers_of_x(n: int) -> str:
    """1 + x + ... + x^(n-1): n terms with unit coefficients."""
    return "(" + " + ".join(f"x^{i}" for i in range(n)) + ")"


class TestDerivativeBound:
    """A shift that may make more than MAX_POWER_TERMS terms, one for each
    variable of each monomial it derives, is refused before it is taken.
    The order bound alone lets D^40(x^20) (35,251 terms) take 3 s, and
    D^1000(x^1000) would have p(1000), about 2.4e31.  The tests count the
    shifts taken."""

    shifts = TestOrderBound.shifts

    @pytest.mark.parametrize("text, offset, taken", [
        ("D^40(x^20)", 1, 19), ("x + D^1000(x^1000)", 5, 19), (f"D({linear_sum(2001)})", 1, 0),
        ("D^40(x^20) +", 1, 19)])  # refused before the missing operand
    def test_above_the_bound(self, shifts, text, offset, taken):
        with pytest.raises(ParseError, match=f"a derivative of more than {MAX_POWER_TERMS} terms "
                                             f"at byte {offset} ") as info:
            parse_poly(text, DIFF_MODE)
        assert info.value.offset == offset
        assert len(shifts) == taken

    @pytest.mark.parametrize("text, terms", [
        ("D^8(x^8)", 22), (f"D({linear_sum(2000)})", 2000), ("D^3(x^2*y + y^3)", 9),
        (f"D^{MAX_ORDER}(x)", 1)])
    def test_within_the_bound(self, text, terms):
        assert parse_poly(text, DIFF_MODE).n_terms() == terms

    def test_cli_n(self, shifts):
        r = run_cli("diff", "--n", "40", "x^20")
        assert r.returncode == 2
        assert r.stderr == (
            f"error: a derivative of more than {MAX_POWER_TERMS} terms at byte 1 "
            f"(expected: at most {MAX_POWER_TERMS} terms in a derivative)\n")
        assert len(shifts) == 19
        r = run_cli("diff", "--n", "8", "x^8")
        assert r.returncode == 0
        assert r.stdout.count(" + ") == 21

    def test_estimate_bounds_every_small_shift(self):
        texts = ["x", "x+1", "x*y'+2", "x^3*y'' - x'*y", "7", "0", "(x+y')^3"]
        for text in texts:
            p = parse_poly(text, DIFF_MODE)
            for _ in range(4):
                assert expr._shift_terms(p) >= d_shift(p).n_terms(), text
                p = d_shift(p)


class TestProductBound:
    """A product whose result may have more than MAX_POWER_TERMS terms is
    refused before it is taken; the tests record the term counts of every
    product taken to show that."""

    WIDE = linear_sum(70)  # its square has 2485 terms

    @pytest.fixture
    def products(self, monkeypatch):
        return recorded(monkeypatch, Poly, "__mul__", lambda p, q: (p.n_terms(), q.n_terms()))

    @pytest.mark.parametrize("text, offset, taken", [
        (f"{WIDE}*{WIDE}", len(WIDE) + 1, []),
        (f"{WIDE} * {WIDE}", len(WIDE) + 2, []),
        (f"x*{WIDE}*{WIDE}", len(WIDE) + 3, [(1, 70)]),
        (f"{WIDE}*{WIDE} +", len(WIDE) + 1, []),  # refused before the missing operand
    ], ids=["square", "spaced", "chain", "text-order"])
    def test_above_the_bound(self, products, text, offset, taken):
        with pytest.raises(ParseError, match=f"a product of more than {MAX_POWER_TERMS} terms "
                                             f"at byte {offset} ") as info:
            parse_poly(text, POLY_MODE)
        assert info.value.offset == offset
        assert products == taken

    def test_product_of_allowed_powers(self, products):
        """Each (x+y+1)^60 has 1891 terms, under the bound; their product
        would have 7381 and is never taken."""
        with pytest.raises(ParseError, match="a product of more than 2000 terms at byte 11"):
            parse_poly("(x+y+1)^60*(x+y+1)^60", POLY_MODE)
        assert (1891, 1891) not in products

    def test_cli_operands(self, products):
        r = run_cli("mul", self.WIDE, self.WIDE)
        assert r.returncode == 2
        assert r.stderr == (
            f"error: a product of more than {MAX_POWER_TERMS} terms at byte 1 "
            f"(expected: at most {MAX_POWER_TERMS} terms in a product)\n")
        assert products == []

    @pytest.mark.parametrize("text, terms", [
        (f"{linear_sum(50)}*{linear_sum(50)}", 1275), ("(x+1)^999*(x+1)", 1001),
        ("(x+y+1)^20*(x+y+1)^20", 861), ("x*y*z*x", 1), (f"0*{linear_sum(70)}", 0),
        (f"{linear_sum(40)}*{linear_sum(40)}*{linear_sum(2)}", 1600)],
        ids=["wide-square", "power-times-linear", "power-times-power", "monomials", "zero",
             "chain"])
    def test_within_the_bound(self, text, terms):
        """The degree cap lets through products whose counts multiply to
        more than the bound (50 x 50 terms) when their result cannot."""
        assert parse_poly(text, POLY_MODE).n_terms() == terms <= MAX_POWER_TERMS

    def test_pair_bound(self, products):
        """A product with a small result but more than MAX_PRODUCT_PAIRS
        term pairs is refused before any pair is multiplied; at the bound
        it is taken."""
        wide = powers_of_x(1000)
        assert parse_poly(f"{wide}*{powers_of_x(MAX_PRODUCT_PAIRS // 1000)}",
                          POLY_MODE).n_terms() == 1099
        assert (1000, 100) in products
        products.clear()
        with pytest.raises(ParseError, match=f"a product of more than {MAX_PRODUCT_PAIRS} term "
                                             f"pairs at byte {len(wide) + 1} "):
            parse_poly(f"{wide}*{powers_of_x(101)}", POLY_MODE)
        assert (1000, 101) not in products

    def test_pair_bound_cli_operands(self, products):
        r = run_cli("mul", powers_of_x(1000), powers_of_x(101))
        assert r.returncode == 2
        assert r.stderr == (
            f"error: a product of more than {MAX_PRODUCT_PAIRS} term pairs at byte 1 "
            f"(expected: at most {MAX_PRODUCT_PAIRS} term pairs in a product)\n")
        assert (1000, 101) not in products

    def test_estimate_bounds_every_small_product(self):
        texts = ["x", "x+1", "x+y", "x*y+1", "x^2+y+z", "(x+y)^2+z", "3", "0", "x*y*z-x+2",
                 "(w+x+1)^3"]
        for a in texts:
            for b in texts:
                p, q = parse_poly(a, POLY_MODE), parse_poly(b, POLY_MODE)
                assert expr._product_terms(p, q) >= (p * q).n_terms(), (a, b)

    def test_estimate_is_exact_on_dense_factors(self):
        for v in range(1, 4):
            base = sum((eta(f"x{i}") for i in range(v)), Poly.one())
            for i in range(5):
                for j in range(5):
                    want = math.comb(i + j + v, v)
                    assert expr._product_terms(base ** i, base ** j) == want
                    assert (base ** i * base ** j).n_terms() == want


def chain(k: int, start: int = 0) -> str:
    """x(start) * ... * x(start+k-1): one monomial of k distinct variables."""
    return "*".join(f"x{i}" for i in range(start, start + k))


class TestProductVariableBound:
    """A product one of whose monomials may hold more than
    MAX_PRODUCT_VARIABLES distinct variables is refused at its '*', before
    it is taken; each '*' of a chain copies the monomial it extends, so the
    tests count the products taken, which bound the work."""

    @pytest.fixture
    def products(self, monkeypatch):
        return recorded(monkeypatch, Poly, "__mul__", lambda p, q: 1)

    def test_at_the_bound(self, products):
        p = parse_poly(chain(MAX_PRODUCT_VARIABLES), POLY_MODE)
        assert len(p.variables()) == MAX_PRODUCT_VARIABLES
        assert len(products) == MAX_PRODUCT_VARIABLES - 1

    @pytest.mark.parametrize("extra", [1, 3000])
    def test_above_the_bound(self, products, extra):
        """However long the chain, it stops at the first '*' over the bound."""
        offset = len(chain(MAX_PRODUCT_VARIABLES)) + 1
        with pytest.raises(ParseError, match=f"a product of more than {MAX_PRODUCT_VARIABLES} "
                                             f"variables at byte {offset} ") as info:
            parse_poly(chain(MAX_PRODUCT_VARIABLES + extra), POLY_MODE)
        assert info.value.offset == offset
        assert len(products) == MAX_PRODUCT_VARIABLES - 1

    def test_repeated_variables_count_once(self, products):
        text = f"{chain(MAX_PRODUCT_VARIABLES)}*x0*x7^3*x{MAX_PRODUCT_VARIABLES - 1}"
        assert len(parse_poly(text, POLY_MODE).variables()) == MAX_PRODUCT_VARIABLES

    def test_product_of_wide_factors(self, products):
        half = MAX_PRODUCT_VARIABLES // 2 + 1
        text = f"({chain(half)}) * ({chain(half, half)})"
        with pytest.raises(ParseError, match=f"at byte {len(chain(half)) + 4} "):
            parse_poly(text, POLY_MODE)
        assert len(products) == 2 * (half - 1)

    def test_wide_sums_are_not_wide_monomials(self):
        """Many variables spread over terms make narrow monomials."""
        p = parse_poly(f"{linear_sum(1500)}*y", POLY_MODE)
        assert (p.n_terms(), len(p.variables())) == (1500, 1501)
        assert expr._product_variables(p, p) == 4

    def test_estimate_bounds_every_small_product(self):
        texts = ["x", "x+1", "x*y+z", "x*y*z-x+2", "3", "0", "w*x*y*z", "(w+x)^3*y"]
        for a in texts:
            for b in texts:
                p, q = parse_poly(a, POLY_MODE), parse_poly(b, POLY_MODE)
                assert expr._product_variables(p, q) >= max(map(len, (p * q)._num), default=0)

    def test_cli_operands(self, products):
        """mul reads its first operand from stdin with '-', without a
        length limit; both the parse and the product are bounded."""
        r = run_cli("mul", "-", "1", stdin=chain(MAX_PRODUCT_VARIABLES + 1))
        assert r.returncode == 2
        offset = len(chain(MAX_PRODUCT_VARIABLES)) + 1
        assert r.stderr == (
            f"error: a product of more than {MAX_PRODUCT_VARIABLES} variables at byte {offset} "
            f"(expected: at most {MAX_PRODUCT_VARIABLES} variables in a product)\n")
        products.clear()
        r = run_cli("mul", chain(600), chain(600, 600))
        assert r.returncode == 2
        assert "variables at byte 1 " in r.stderr
        assert len(products) == 2 * 599


class TestWorkBound:
    """Each parse keeps one work meter: every product and power charges it,
    before it multiplies, its term pairs times the variables past two of
    the monomials they build.  Past MAX_WORK the parse is refused, after the
    operation's other bounds; the tests count the products and powers taken."""

    FOUND = f"{linear_sum(50)}*{chain(1000, 1000)}"  # 15 s under every other bound
    POWER = f"({chain(100)} + {chain(100, 100)})^999"  # 40 s under every other bound

    @pytest.fixture
    def taken(self, monkeypatch):
        calls = recorded(monkeypatch, Poly, "__mul__", lambda p, q: "__mul__")
        return recorded(monkeypatch, Poly, "__pow__", lambda p, n: "__pow__", calls)

    @staticmethod
    def spent(text: str) -> int:
        parser = expr._Parser(text, POLY_MODE)
        parser.parse()
        return parser.meter.spent

    def test_the_widest_chain_is_within_the_bound(self):
        """x0*...*x999 builds the widest monomial a product may make."""
        assert self.spent(chain(MAX_PRODUCT_VARIABLES)) == 498_501 <= MAX_WORK

    @pytest.mark.parametrize("text", ["(x+1)^1000", "(x+y+1)^61", "(x*y + x + y)^30",
                                      "*".join(["x"] * 3000), f"{linear_sum(1500)}*y",
                                      "+".join(["(x+y+1)^20*(x+y+1)^20"] * 6)])
    def test_narrow_monomials_cost_nothing(self, text):
        assert self.spent(text) == 0

    def test_wide_sum_times_chain(self, taken):
        offset = self.FOUND.index("*x1155") + 1
        with pytest.raises(ParseError, match=f"an expression of more than {MAX_WORK} variable "
                                             f"copies at byte {offset} ") as info:
            parse_poly(self.FOUND, POLY_MODE)
        assert info.value.offset == offset
        assert len(taken) == 155

    def test_wide_power(self, taken):
        offset = self.POWER.index("^") + 2
        with pytest.raises(ParseError, match=f"an expression of more than {MAX_WORK} variable "
                                             f"copies at byte {offset} ") as info:
            parse_poly(self.POWER, POLY_MODE)
        assert info.value.offset == offset
        assert "__pow__" not in taken

    def test_other_bounds_come_first(self, taken):
        """A chain over the variable bound is refused by that bound, though
        its work would pass MAX_WORK on the same '*'."""
        with pytest.raises(ParseError, match=f"more than {MAX_PRODUCT_VARIABLES} variables"):
            parse_poly(f"{chain(MAX_PRODUCT_VARIABLES)}*({'+'.join(f'y{i}' for i in range(300))})",
                       POLY_MODE)

    def test_cli_product(self, taken):
        """mul's product of two parsed operands has a meter of its own."""
        r = run_cli("mul", chain(999), linear_sum(700))
        assert r.returncode == 2
        assert r.stderr == (
            f"error: an expression of more than {MAX_WORK} variable copies at byte 1 "
            f"(expected: at most {MAX_WORK} variable copies in an expression)\n")
        assert len(taken) == 998


class CountingText(str):
    """Text that counts the characters sliced out of it."""

    sliced = 0

    def __getitem__(self, key):
        out = str.__getitem__(self, key)
        if isinstance(key, slice):
            self.sliced += len(out)
        return out


class TestLinearParsing:
    """The parser reads each character a bounded number of times: the byte
    offset of each '*', '^', number and D is counted on from the one before."""

    @pytest.mark.parametrize("unit", ["x*", "1+", "\u00e9^2*", "D(x)*", " 12 - ", "x'*"])
    def test_characters_read_grow_linearly(self, unit):
        def read(n: int) -> int:
            text = CountingText(unit * n + "1")
            parse_poly(text)
            return text.sliced

        assert read(4000) <= 5 * read(1000)

    def test_offsets_in_any_order(self):
        text = "\u00e9 + 2*\u00fc^3 - x\u2019"
        parser = expr._Parser(text, POLY_MODE)
        indices = [5, 2, 9, 0, len(text), 3, 3, 1, *range(len(text) + 1), *range(len(text), -1, -1)]
        for i in indices:
            assert parser._byte_offset(i) == len(text[:i].encode()) + 1, i

    @pytest.mark.parametrize("text, offset", [
        ("\u00e9*(x)^(4)", 7),  # after the parser backs up to the '^'
        ("\u00e9\u00e9 * y^", 10), ("\u00fc + D(\u00e9)^(2)", 11),
        ("\u00e9*" * 3 + "(x+1)^1999", 16)])
    def test_offsets_after_multibyte_text(self, text, offset):
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.offset == offset


class TestSeriesLiterals:
    def test_basic(self):
        assert parse_series_literal("[1, 1/2, -3]") == (Fraction(1), Fraction(1, 2), Fraction(-3))
        assert parse_series_literal("[1,1,1]") == (Fraction(1),) * 3

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_series_literal("1, 2")
        with pytest.raises(ParseError):
            parse_series_literal("[]")
        with pytest.raises(ParseError, match="bad rational 'zz' at byte 5"):
            parse_series_literal("[1, zz]")
        with pytest.raises(ParseError, match="bad rational '1/0' at byte 9"):
            parse_series_literal(" [1, 2, 1/0]")

    def test_exponent_bound(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ParseError, match=f"more than {limit} digits at byte 5 "
                                             f"\\(expected: at most {limit} digits\\)"):
            parse_series_literal("[1, 1e10000000]")

    def test_length_bound(self, monkeypatch):
        """MAX_ORDER + 1 coefficients parse; one more is refused before any
        coefficient is read."""
        ones = ["1"] * (MAX_ORDER + 1)
        assert len(parse_series_literal("[" + ",".join(ones) + "]")) == MAX_ORDER + 1
        monkeypatch.setattr(literals, "parse_rational", None)
        with pytest.raises(ParseError, match=f"more than {MAX_ORDER + 1} coefficients at byte 1"):
            parse_series_literal("[" + ",".join(ones + ["1"]) + "]")


class TestRationalLiterals:
    """parse_rational reads what Fraction(str) reads, and refuses a literal
    that spells a number past the int/str digit limit before building it."""

    @pytest.mark.parametrize("text", ["3", "-3", "+3", "1/2", " -4/6 ", "0.25", ".5", "5.", "1e-3",
                                      "1.5E3", "1_000", "-1_0/3_0", "2e4299", "1e-4299"])
    def test_same_as_fraction(self, text):
        got = parse_rational(text)
        assert got == Fraction(text) and type(got) is Fraction

    @pytest.mark.parametrize("text", ["", "x", "1/0", "1/", "/2", "1e", "--1", "1__0", "1/2.5",
                                      ".", "inf", "nan", "1 2", "0x10"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["1e10000000", "-1e-10000000", "1e" + "9" * 5000,
                                      "2e4300", "9" * 4301, "1/" + "9" * 4301, "0." + "1" * 4301])
    def test_bounded(self, text):
        with pytest.raises(OverflowError, match=f"more than {sys.get_int_max_str_digits()} digits"):
            parse_rational(text)


@st.composite
def diffpolys(draw):
    n_terms = draw(st.integers(0, 4))
    p = Poly.zero()
    for _ in range(n_terms):
        exps = {}
        for _ in range(draw(st.integers(0, 3))):
            v = DVar(draw(st.sampled_from(("x", "y", "zz"))), draw(st.integers(0, 5)))
            exps[v] = exps.get(v, 0) + draw(st.integers(1, 3))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 4))
        if num:
            p = p + Poly.monomial(exps, Fraction(num, den))
    return p


@given(diffpolys())
def test_round_trip_on_canonical_output(p):
    assert parse_poly(str(p), DIFF_MODE) == p


@given(st.integers(-99, 99), st.integers(1, 30))
def test_round_trip_constants(num, den):
    c = Poly.const(Fraction(num, den))
    assert parse_poly(str(c), POLY_MODE) == c
