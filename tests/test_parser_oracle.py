"""The text front end checked against SymPy: seeded texts drawn from the
README grammar are read by ``expr.parse_poly`` in both modes, and by the
``mul`` and ``diff`` verbs of the CLI, and each result is compared with the
text's own translation into SymPy.  Skipped when SymPy is not installed.

The translator below is a recursive descent over the same grammar that
imports nothing from ``diffalg.expr``: a variable x is the function x(t),
``x'`` and ``x^(n)`` are its t-derivatives (jets), and ``D`` is
``sympy.diff`` in t.  In plain-polynomial mode a variable is a symbol, and
primes, ``^(n)`` markers and ``D`` are refused.

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' nat)?
    atom     := rational | var primes* | var '^(' nat ')'
              | '(' expr ')' | 'D' ('^' nat)? '(' expr ')'
    rational := ['-'] digits ('/' digits)?
"""

import re

import pytest

from diffalg.errors import ModeError
from diffalg.expr import DIFF_MODE, POLY_MODE, parse_poly
from diffalg.free_diff import DVar
from diffalg.rng import SplitMix64

from cli_runner import run_cli

sympy = pytest.importorskip("sympy")

t = sympy.Symbol("t")
NAMES = ("x", "y", "z")
TEXTS = 80


class Differential(Exception):
    """A prime, a ^(n) marker or D, read in plain-polynomial mode."""


class Translate:
    """The SymPy value of a text of the grammar, in differential mode
    (jets of functions of t) or not (symbols)."""

    def __init__(self, text: str, differential: bool):
        self.tokens = re.findall(r"\d+|[A-Za-z_]\w*|'|\S", text)
        self.i = 0
        self.differential = differential

    def value(self):
        v = self.expr()
        assert self.i == len(self.tokens), self.tokens[self.i:]
        return v

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ""

    def take(self, want=None):
        tok = self.peek()
        assert want is None or tok == want, (tok, want)
        self.i += 1
        return tok

    def expr(self):  # one Add of all terms: a long sum is not rebuilt per term
        terms = [self.term()]
        while self.peek() in ("+", "-"):
            terms.append(self.term() if self.take() == "+" else -self.term())
        return sympy.Add(*terms)

    def term(self):
        factors = [self.factor()]
        while self.peek() == "*":
            self.take()
            factors.append(self.factor())
        return sympy.Mul(*factors)

    def factor(self):
        v, name = self.atom()
        if self.peek() == "^":
            self.take()
            if self.peek() == "(":  # x^(n): the n-th jet of a bare variable
                assert name is not None
                if not self.differential:
                    raise Differential(f"{name}^(")
                self.take("(")
                v = self.jet(name, int(self.take()))
                self.take(")")
                if self.peek() != "^":
                    return v
                self.take()
            v = v ** int(self.take())
        return v

    def atom(self):
        tok = self.take()
        if tok == "(":
            v = self.expr()
            self.take(")")
            return v, None
        if tok == "-" or tok.isdecimal():
            num = -int(self.take()) if tok == "-" else int(tok)
            if self.peek() == "/":
                self.take()
                return sympy.Rational(num, int(self.take())), None
            return sympy.Integer(num), None
        if tok == "D":
            n = 1
            if self.peek() == "^":
                self.take()
                n = int(self.take())
            self.take("(")
            v = self.expr()
            self.take(")")
            if not self.differential:
                raise Differential(tok)
            return sympy.diff(v, t, n), None
        primes = 0
        while self.peek() == "'":
            self.take()
            primes += 1
        return self.jet(tok, primes), (None if primes else tok)

    def jet(self, name: str, order: int):
        if not self.differential:
            if order:
                raise Differential(name)
            return sympy.Symbol(name)
        return sympy.diff(sympy.Function(name)(t), t, order)


def translate(text: str, differential: bool = True):
    return Translate(text, differential).value()


def to_sympy(p) -> sympy.Expr:
    """A parsed Poly in SymPy: DVar(x, n) is the n-th t-derivative of x(t),
    a plain variable a symbol."""
    def var(v):
        if isinstance(v, DVar):
            return sympy.diff(sympy.Function(v.base)(t), t, v.order)
        return sympy.Symbol(v)

    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(var(v) ** e for v, e in m)) for m, c in p.terms()))


def same(a, b) -> bool:
    return sympy.expand(a - b) == 0


def draw_text(rng: SplitMix64, differential: bool = True, depth: int = 0) -> str:
    """An expr of the grammar, small enough to stay inside every input
    bound, with spaces around its binary operators or not.  Without
    differential it has no prime, ^(n) marker or D."""
    def op(symbol):
        return f" {symbol} " if rng.randint(0, 1) else symbol

    def rational():
        sign = "-" if rng.randint(0, 2) == 0 else ""
        num = str(rng.randint(0, 9))
        return sign + num + (f"/{rng.randint(1, 7)}" if rng.randint(0, 2) == 0 else "")

    def variable():
        name, marks = rng.choice(NAMES), rng.randint(0, 5)
        if not differential or marks < 3:
            return name
        return name + "'" * (marks - 2) if marks < 5 else f"{name}^({rng.randint(0, 5)})"

    def atom():
        kind = rng.randint(0, 9 if depth == 0 else 4)  # nesting one level deep
        if kind <= 1:
            return rational()
        if kind <= 5:
            return variable()
        inner = f"({draw_text(rng, differential, depth + 1)})"
        if kind <= 7 or not differential:
            return inner
        n = rng.randint(0, 3)
        return ("D" if n == 1 and rng.randint(0, 1) else f"D^{n}") + inner

    def factor():
        a = atom()
        return a + f"^{rng.randint(0, 3)}" if rng.randint(0, 3) == 0 else a

    def term():
        return op("*").join(factor() for _ in range(rng.randint(1, 3)))

    text = term()
    for _ in range(rng.randint(0, 2)):
        text += op(rng.choice("+-")) + term()
    return text


def texts(seed: int, count: int = TEXTS, differential: bool = True) -> list[str]:
    rng = SplitMix64(seed)
    return [draw_text(rng, differential) for _ in range(count)]


class TestTranslator:
    """The translator itself, on texts whose value is known by hand."""

    @pytest.mark.parametrize("text, want", [
        ("x^2-3", "x(t)**2 - 3"),
        ("-1/2^2", "1/4"),
        ("x'' + x^(2) - 2*D^2(x)", "0"),
        ("D(x*y)", "Derivative(x(t), t)*y(t) + x(t)*Derivative(y(t), t)"),
        ("x^(3)^2", "Derivative(x(t), (t, 3))**2"),
        ("D^0(z) - z", "0"),
    ])
    def test_known_values(self, text, want):
        assert same(translate(text), sympy.sympify(want, locals={"t": t}))

    def test_plain_mode_refuses_differential_syntax(self):
        for text in ("x'", "x^(2)", "x^(0)", "D(x)", "D^0(x)"):
            with pytest.raises(Differential):
                translate(text, differential=False)
        assert translate("x*y^2", differential=False) == sympy.Symbol("x") * sympy.Symbol("y") ** 2


class TestParserOracle:
    def test_texts_use_the_whole_grammar(self):
        drawn = " ".join(texts(101))
        for piece in ("'", "^(", "D(", "D^", "/", "(", "-", "+", "*", " "):
            assert piece in drawn, piece

    def test_differential_mode(self):
        for text in texts(101):
            assert same(to_sympy(parse_poly(text, DIFF_MODE)), translate(text)), text

    def test_polynomial_mode(self):
        for text in texts(103, differential=False):
            assert same(to_sympy(parse_poly(text, POLY_MODE)),
                        translate(text, differential=False)), text
        refused = 0
        for text in texts(101):
            try:
                want = translate(text, differential=False)
            except Differential:
                refused += 1
                with pytest.raises(ModeError):
                    parse_poly(text, POLY_MODE)
                continue
            assert same(to_sympy(parse_poly(text, POLY_MODE)), want), text
        assert TEXTS // 4 <= refused <= TEXTS - TEXTS // 10, refused

    def test_mul_verb(self):
        drawn = texts(107, 2 * (TEXTS // 4))
        for a, b in zip(drawn[::2], drawn[1::2]):
            run = run_cli("mul", "--", a, b)
            assert run.returncode == 0, (a, b, run.stderr)
            assert same(translate(run.stdout), translate(a) * translate(b)), (a, b)

    def test_diff_verb(self):
        rng = SplitMix64(113)
        for text in texts(109, TEXTS // 4):
            n = rng.randint(0, 3)
            run = run_cli("diff", "--n", str(n), "--", text)
            assert run.returncode == 0, (text, run.stderr)
            assert same(translate(run.stdout), sympy.diff(translate(text), t, n)), (text, n)
