"""The input limits, check_bound (the one refusal) and the literal readers, with no
polynomial module; :mod:`~diffalg.expr` re-exports them and holds the estimators."""

import re
import sys
from fractions import Fraction

from .errors import ParseError

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
