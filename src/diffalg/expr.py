"""The text grammar for polynomials and differential polynomials.

    expr    := term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' nat)?
    atom    := rational | var primes* | var '^(' nat ')'
             | '(' expr ')' | 'D' ('^' nat)? '(' expr ')'
    rational:= ['-'] digits ('/' digits)?
    var     := [A-Za-z][A-Za-z0-9_]*   (the bare name 'D' is the derivation)

The parser evaluates as it parses: each rule returns the polynomial of
the text it read, with no expression tree in between, so errors are
reported in text order (``(x+y+1)^150 +`` fails on its power at byte 9,
not on the missing operand after it).

Whitespace is insignificant.  Parentheses and D applications nest at most
:data:`MAX_NESTING` levels deep, so no input can exhaust the interpreter's
recursion limit, and derive a subexpression at most :data:`MAX_ORDER` times
in total (``D^600(D^500(x))`` is 1100, too many).  A power or a product is
refused before it is multiplied out if its result may have more than
:data:`MAX_POWER_TERMS` terms (``(x+y+1)^150``, ``(x+y+1)^60*(x+y+1)^60``),
if it takes more term pairs than :data:`MAX_POWER_PAIRS` or
:data:`MAX_PRODUCT_PAIRS` allow (``(x+1)^1999``, ``(x+1)^999*(x+1)^999``),
or if a monomial of a product may hold more than
:data:`MAX_PRODUCT_VARIABLES` variables (``x0*x1*...*x1000``), and once
the products and powers of one parse have done more than :data:`MAX_WORK`
work (``(x0+...+x49)*v0*...*v999``); a shift is refused before it may make
more than :data:`MAX_POWER_TERMS` terms (``D^40(x^20)``).  Every refusal is
a :class:`~diffalg.errors.ParseError`.
Derivative orders are written with primes up to three (x, x', x'',
x''') and as ``x^(n)`` beyond; both forms parse.  In plain-polynomial
mode, primes, ``^(n)`` markers, and the D operator are rejected with
:class:`~diffalg.errors.ModeError`.

Printing uses the canonical form produced by ``str()`` on polynomials:
terms sorted by descending (total degree, variable sequence), joined by
" + ", coefficients elided when exactly 1, exponents elided when 1.
``parse_poly(str(p), mode) == p`` for every canonical p.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import ModeError, ParseError
from .free_diff import DVar, d_shift
from .polynomial import Poly

POLY_MODE = "poly"
DIFF_MODE = "diffpoly"

# -- input bounds: the limits, their estimators and check_bound, the one refusal --

# Each level of '(' or 'D(' costs the parser five stack frames (nested,
# expr, term, factor, atom), so this bound keeps parsing well inside the
# default recursion limit of 1000.
MAX_NESTING = 100

# The most shift derivatives the D applications around any subexpression
# may apply; the diff verb bounds --n by the same number.
MAX_ORDER = 1000

# The most terms a power or a product of evaluated operands may have, as
# _power_terms and _product_terms bound them: (x+1)^1000 has 1001 terms,
# (x+y+1)^150 would have 11476 and (x+y+1)^60*(x+y+1)^60 7381.
MAX_POWER_TERMS = 2000

# The most term pairs p·q may multiply, t·s for t and s terms: it bounds the
# work of a product whose result is small, as (x+1)^999*(x+1)^999 (10^6
# products of coefficients of up to 1,000 bits, for 1,999 terms) is.
# (x+y+1)^20*(x+y+1)^20 is 53,361 pairs.
MAX_PRODUCT_PAIRS = 100_000

# The most term pairs the square-and-multiply of a power may multiply over all
# its steps: (x+1)^1000 takes 335,573, (x+1)^1999 (2000 terms, 3 s) 1,341,062.
MAX_POWER_PAIRS = 400_000

# The most bits the coefficients of a power may have, as power() bounds them: the
# CLI prints no number above 14,284 bits (4300 digits); (2*x)^15000 has 15,000.
MAX_POWER_BITS = 100_000

# The most distinct variables one monomial of a product may hold, as
# _product_variables bounds them.  Each '*' copies the monomial it extends,
# so a chain x0*x1*...*xk costs time quadratic in k: x0*...*x3999 takes
# about 18 times as long to parse as x0*...*x999.
MAX_PRODUCT_VARIABLES = 1000

# The most work the products and powers of one parse may do, as WorkMeter
# counts it: each term pair is charged the variables past two of the monomial
# it builds, which mono_mul copies (narrower pairs are priced by the pair
# bounds).  x0*x1*...*x999 charges 498,501; (x0+...+x49)*v0*v1*...*v999
# would charge 25 million (15 s), (w0*...*w99 + u0*...*u99)^999 66 million (40 s).
MAX_WORK = 600_000

# The most work an eval request may ask for, as _eval_cost counts it:
# (partial nodes) x (order + 1)^2, for the recursion builds one series per
# node by a convolution at about that order, each component a sum over the
# ones before it.  X*Y at order 1000 (4 nodes) runs; X^3*Y^3 (16 nodes)
# runs up to order 558; at order 1000 it would take about 20 times as long
# as X*Y on Hurwitz series and 8 times on power series.
MAX_EVAL_COST = 5_000_000


def check_bound(size: int, limit: int, what: str, unit: str, offset: int, expected: str = ""):
    """Refuse a size above limit: the ParseError "{what} of more than {limit} {unit}"
    at byte offset, expecting "at most {limit} {unit} in {what}" or expected."""
    if size > limit:
        raise ParseError(f"{what} of more than {limit} {unit}", offset,
                         frozenset({expected or f"at most {limit} {unit} in {what}"}))


class WorkMeter:
    """The work of one parse (or of the product of the mul verb's operands),
    summed over its products and powers; see MAX_WORK."""

    def __init__(self):
        self.spent = 0

    def charge(self, pairs: int, width: int, offset: int) -> None:
        """Add pairs term pairs whose monomials may have width variables,
        or refuse at byte offset if the sum passes MAX_WORK."""
        self.spent += pairs * max(width - 2, 0)
        check_bound(self.spent, MAX_WORK, "an expression", "variable copies", offset)


def product(p: Poly, q: Poly, offset: int, meter: WorkMeter) -> Poly:
    """p·q, or a ParseError at byte offset, raised before anything is
    multiplied, if it may have more than MAX_POWER_TERMS terms, takes more
    than MAX_PRODUCT_PAIRS term pairs or may have a monomial of more than
    MAX_PRODUCT_VARIABLES variables, or if its work takes meter past MAX_WORK."""
    pairs = p.n_terms() * q.n_terms()
    if pairs > MAX_POWER_TERMS:  # the estimate is at most this count
        check_bound(_product_terms(p, q), MAX_POWER_TERMS, "a product", "terms", offset)
        check_bound(pairs, MAX_PRODUCT_PAIRS, "a product", "term pairs", offset)
    width = _product_variables(p, q)
    check_bound(width, MAX_PRODUCT_VARIABLES, "a product", "variables", offset)
    meter.charge(pairs, width, offset)
    return p * q


def power(base: Poly, n: int, offset: int, meter: WorkMeter) -> Poly:
    """base^n, or a ParseError at byte offset, raised before anything is
    multiplied, if it may have more than MAX_POWER_TERMS terms or coefficients
    of more than MAX_POWER_BITS bits, or take more than MAX_POWER_PAIRS term
    pairs in the square-and-multiply of ** , or if its work takes meter past
    MAX_WORK: each pair's monomials have at most n times the variables of
    base's widest monomial, and at most all of base's variables."""
    check_bound(_power_terms(base, n), MAX_POWER_TERMS, "a power", "terms", offset)
    top = sum(map(abs, base._num.values())) or 1  # the numerators of base^n are at most top^n
    bits = n * ((top - 1).bit_length() + (base._den - 1).bit_length())
    check_bound(bits, MAX_POWER_BITS, "a power", "coefficient bits", offset)
    pairs, k = 0, 1  # base^k is the power built so far
    for bit in bin(n)[3:]:
        pairs += _power_terms(base, k) ** 2
        k *= 2
        if bit == "1":
            pairs += _power_terms(base, k) * base.n_terms()
            k += 1
    check_bound(pairs, MAX_POWER_PAIRS, "a power", "term pairs", offset)
    width = min(n * max(map(len, base._num), default=0), len(base.variables()))
    meter.charge(pairs, width, offset)
    return base ** n


def shift(p: Poly, n: int, offset: int) -> Poly:
    """The n-th shift derivative of p, or a ParseError at byte offset,
    raised before a shift that may make more than MAX_POWER_TERMS terms."""
    for _ in range(n):
        check_bound(_shift_terms(p), MAX_POWER_TERMS, "a derivative", "terms", offset)
        p = d_shift(p)
    return p


def _power_terms(base: Poly, n: int) -> int:
    """An upper bound on the number of terms of base^n, where any value
    above MAX_POWER_TERMS stands for "too many": the monomials of n factors
    drawn from t terms, at most C(n+t-1, t-1), or of degree at most n·deg
    in v variables, at most C(n·deg+v, v).  Zero counts as one term."""
    t, v = max(base.n_terms(), 1), len(base.variables())
    return min(_binom_capped(n + t - 1, t - 1), _binom_capped(n * base.total_degree() + v, v))


def _product_terms(p: Poly, q: Poly) -> int:
    """The same bound for p·q: the product of the term counts, or C(deg p +
    deg q + v, v) for the v variables of p and q."""
    v = len(set(p.variables()).union(q.variables()))
    return min(p.n_terms() * q.n_terms(),
               _binom_capped(p.total_degree() + q.total_degree() + v, v))


def _product_variables(p: Poly, q: Poly) -> int:
    """An upper bound on the distinct variables of a monomial of p·q: the
    widest monomial of p plus the widest of q or, when that sum is over two
    (the most WorkMeter charges nothing for), the variables of p and q
    together if fewer, exact for a product of two monomials."""
    width = sum(max(map(len, r._num), default=0) for r in (p, q))
    if width <= 2:
        return width
    return min(width, len({v for r in (p, q) for m in r._num for v, _ in m}))


def _shuffle_words(s: list, t: list) -> int:
    """An upper bound, capped as _power_terms is, on the (word, tail) terms of
    the shuffle product of two sums of (letters, tail, ...) terms: over pairs
    of terms, their letters' and tails' term counts times the C(j+k, j)
    interleavings of j and k letters (of repeated letters too); a zero sum is 1."""
    def expansions(terms) -> list:
        out = []
        for letters, tail, *_ in terms:
            n = tail.n_terms()
            for letter in letters:
                n = min(n * letter.n_terms(), MAX_POWER_TERMS + 1)
            if n:
                out.append((len(letters), n))
        return out or [(0, 1)]

    words, right = 0, expansions(t)
    for j, a in expansions(s):
        for k, b in right:  # each pair adds at least 1: at most 2001 pairs run
            words += a * b * _binom_capped(j + k, j)
            if words > MAX_POWER_TERMS:
                return words
    return words


def _shift_terms(p: Poly) -> int:
    """An upper bound on the terms, and the work, of d_shift(p): one for each
    variable of each monomial."""
    return sum(map(len, p._num))


def _binom_capped(n: int, k: int) -> int:
    """C(n, k) if it is at most MAX_POWER_TERMS, else some larger number.
    Step i holds C(n-k+i, i), so the loop stops after at most
    min(k, n-k, MAX_POWER_TERMS) steps, however large n is."""
    k = min(k, n - k)
    c = 1
    for i in range(1, k + 1):
        c = c * (n - k + i) // i
        if c > MAX_POWER_TERMS:
            break
    return c


def _eval_cost(p: Poly, order: int) -> int:
    """(partial nodes) x (order + 1)^2 for the recursion of p, which
    convolves one series per node.  A nonzero iterated partial of p lowers
    the exponents of some monomial of p, so the nodes number at most the
    sum over p's monomials of the product of (exponent + 1)."""
    nodes = sum(math.prod(e + 1 for _, e in m) for m in p._num)
    return nodes * (order + 1) ** 2


class _Parser:
    def __init__(self, text: str, mode: str):
        if mode not in (POLY_MODE, DIFF_MODE):
            raise ValueError(f"unknown mode {mode!r}")
        self.text = text
        self.mode = mode
        self.i = 0
        self.depth = 0
        self.order = 0  # total D power of the enclosing D applications
        self.at = (0, 0)  # the last character index asked for, and its byte offset - 1
        self.meter = WorkMeter()

    # -- machinery ---------------------------------------------------------

    def _byte_offset(self, i: int | None = None) -> int:
        """The 1-based byte offset of character i (by default the cursor's),
        counted from the last one asked for: they are asked for in about
        text order, so the text is encoded about once in all."""
        i = self.i if i is None else i
        j, b = self.at
        b += len(self.text[j:i].encode()) if i >= j else -len(self.text[i:j].encode())
        self.at = (i, b)
        return b + 1

    def error(self, expected: set[str]):
        raise ParseError("syntax error", self._byte_offset(), frozenset(expected))

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def eat(self, ch: str) -> bool:
        if self.peek() == ch:
            self.i += 1
            return True
        return False

    def differential_only(self, what: str, i: int):
        if self.mode == POLY_MODE:
            raise ModeError(f"{what} at byte {self._byte_offset(i)} "
                            "is not allowed in plain-polynomial mode")

    def expect(self, ch: str):
        if not self.eat(ch):
            self.error({f"'{ch}'"})

    def nat(self) -> int:
        self.skip_ws()
        start = self.i
        while self.i < len(self.text) and self.text[self.i].isdecimal():
            self.i += 1
        if self.i == start:
            self.error({"natural number"})
        limit = sys.get_int_max_str_digits() or self.i - start  # 0: int() reads any length
        check_bound(self.i - start, limit, "number", "digits", self._byte_offset(start),
                    f"at most {limit} digits")
        return int(self.text[start:self.i])

    def ident(self) -> str:
        self.skip_ws()
        start = self.i
        while self.i < len(self.text) and (self.text[self.i].isalnum() or self.text[self.i] == "_"):
            self.i += 1
        return self.text[start:self.i]

    def nested(self) -> Poly:
        """An expr one level deeper inside '(' or 'D('."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self._byte_offset(),
                             frozenset({f"at most {MAX_NESTING} nested '(' or 'D('"}))
        self.depth += 1
        p = self.expr()
        self.depth -= 1
        return p

    # -- grammar: each rule returns the polynomial of the text it read ------

    def parse(self) -> Poly:
        p = self.expr()
        self.skip_ws()
        if self.i != len(self.text):
            self.error({"'+'", "'-'", "'*'", "'^'", "end of input"})
        return p

    def expr(self) -> Poly:
        p = self.term()
        while True:
            if self.eat("+"):
                p = p + self.term()
            elif self.eat("-"):
                p = p - self.term()
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while self.eat("*"):
            offset = self._byte_offset(self.i - 1)
            p = product(p, self.factor(), offset, self.meter)
        return p

    def factor(self) -> Poly:
        p, bare = self.atom()
        if self.peek() != "^":
            return p
        save = self.i
        self.i += 1
        if self.peek() == "(":
            # derivative-order marker: only valid directly on a plain variable
            if bare is None:
                self.i = save
                self.error({"natural number"})
            self.differential_only("derivative marker", save)
            self.expect("(")
            p = self.variable(bare, self.nat())
            self.expect(")")
            if not self.eat("^"):
                return p
        self.skip_ws()
        offset = self._byte_offset()
        return power(p, self.nat(), offset, self.meter)

    def variable(self, name: str, order: int) -> Poly:
        """In differential mode every variable is a derivative variable."""
        return Poly.variable(DVar(name, order) if self.mode == DIFF_MODE else name)

    def atom(self) -> tuple[Poly, str | None]:
        """The atom's polynomial, and its name if it is a bare variable
        with no primes (the one atom a '^(n)' marker may follow)."""
        ch = self.peek()
        if ch == "(":
            self.eat("(")
            p = self.nested()
            self.expect(")")
            return p, None
        if ch == "-" or ch.isdecimal():
            return Poly.const(self.rational()), None
        if ch.isalpha():
            start = self.i
            name = self.ident()
            if name == "D":
                self.differential_only("the D operator", start)
                offset = self._byte_offset(start)
                n = 1
                if self.eat("^"):
                    n = self.nat()
                if self.order + n > MAX_ORDER:
                    raise ParseError(f"derivative order above {MAX_ORDER}", offset,
                                     frozenset({f"at most {MAX_ORDER} nested derivatives"}))
                self.expect("(")
                self.order += n
                p = self.nested()
                self.order -= n
                self.expect(")")
                return shift(p, n, offset), None
            order = 0
            while self.i < len(self.text) and self.text[self.i] == "'":
                order += 1
                self.i += 1
            if order:
                self.differential_only("primed variable", start)
            return self.variable(name, order), (None if order else name)
        self.error({"rational", "variable", "'('", "'D'"})

    def rational(self) -> Fraction:
        self.skip_ws()
        sign = -1 if self.eat("-") else 1
        num = self.nat()
        if self.eat("/"):
            den = self.nat()
            if den == 0:
                self.error({"nonzero denominator"})
            return Fraction(sign * num, den)
        return Fraction(sign * num)


def parse_poly(text: str, mode: str = DIFF_MODE) -> Poly:
    """The polynomial that text spells, evaluated as it is parsed; the
    first error in text order is raised."""
    return _Parser(text, mode).parse()


# The literals Fraction(str) reads: an integer, a ratio of integers, or a
# decimal with an optional exponent; digits may be grouped by underscores.
# Compiled on first use (re caches it), so importing the package does not
# pay for it.
_DIGITS = r"\d+(?:_\d+)*"
_RATIONAL = rf"""\s*[-+]?(?=\d|\.\d)(?P<num>(?:{_DIGITS})?)
    (?:/(?P<den>{_DIGITS}) | (?:\.(?P<dec>(?:{_DIGITS})?))? (?:[eE](?P<exp>[-+]?{_DIGITS}))?)
    \s*"""


def parse_rational(text: str) -> Fraction:
    """The rational that a literal such as "-3", "1/2", "0.25" or "1e-3"
    spells, in the forms Fraction(str) reads.  ValueError if text is no
    such literal or has a zero denominator; OverflowError, before any
    number is built, if an integer it spells (numerator, denominator, or
    the digits plus the exponent's magnitude) has more digits than
    ``sys.get_int_max_str_digits()`` allows."""
    m = re.fullmatch(_RATIONAL, text, re.VERBOSE)
    if m is None:
        raise ValueError(f"not a rational: {text!r}")
    num, den, dec, exp = (m[g].replace("_", "") if m[g] else ""
                          for g in ("num", "den", "dec", "exp"))
    limit = sys.get_int_max_str_digits()
    if limit and (len(den) > limit or len(exp) > limit
                  or len(num) + len(dec) + abs(int(exp or 0)) > limit):
        raise OverflowError(f"a number of more than {limit} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def parse_series_literal(text: str) -> tuple[Fraction, ...]:
    """Parse a series literal "[a0, a1, ...]" of rational coefficients, at
    most MAX_ORDER + 1 of them."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError("series literal must be bracketed", 1, frozenset({"'['"}))
    inner = s[1:-1]
    if not inner.strip():
        raise ParseError("series literal needs at least one coefficient", 2,
                         frozenset({"rational"}))
    check_bound(inner.count(",") + 1, MAX_ORDER + 1, "series literal", "coefficients", 1,
                f"at most {MAX_ORDER + 1} coefficients")
    out = []
    pos = text.index("[") + 1  # where the current chunk starts in text
    for chunk in inner.split(","):
        try:
            out.append(parse_rational(chunk))
        except (OverflowError, ValueError) as exc:
            offset = len(text[:pos + len(chunk) - len(chunk.lstrip())].encode()) + 1
            if isinstance(exc, OverflowError):
                limit = sys.get_int_max_str_digits()
                raise ParseError(str(exc), offset, frozenset({f"at most {limit} digits"})) from None
            raise ParseError(f"bad rational {chunk.strip()!r}", offset,
                             frozenset({"rational"})) from None
        pos += len(chunk) + 1
    return tuple(out)
