"""Grammar-shaped fuzzing of the input bounds.

Hypothesis writes expression text (nesting, ``D^n``, powers, products,
variable chains, stray characters), ``rb`` payloads (long words, letters
of several terms), and the series literals, expressions and JSON
environments of ``eval``, ``hurwitz``, ``power`` and ``psi``.  Every
input must come back as a value, or be refused with a DiffalgError (exit 2
from ``cli.main``); nothing else may escape.  The work is counted, not timed: the term pairs multiplied in
``polynomial._accumulate``, the one product loop, stay within one pair
limit for each ``*`` or ``^`` of the text, and the words the shuffle
kernel and the word expansion make stay within ``MAX_POWER_TERMS``.
``derandomize`` draws the same inputs on every run.

Sums up to 80 terms wide and chains up to 1000 variables long are drawn
inside the grammar.  Each ``*`` of a chain copies every monomial it
extends; the work bound weighs that, so the variables the product loop
copies are counted too.  A pair of monomials copies at most twice the
variables past two that its meter is charged for, plus four, and each
parse, and the product of the mul verb, has a meter of its own.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cli_runner import run_cli
from diffalg import hurwitz, polynomial, rota_baxter
from diffalg.errors import DiffalgError, ParseError
from diffalg.expr import (DIFF_MODE, MAX_EVAL_COST, MAX_ORDER, MAX_POWER_PAIRS, MAX_POWER_TERMS,
                          MAX_PRODUCT_PAIRS, MAX_WORK, POLY_MODE, parse_poly)

FUZZ = settings(derandomize=True, deadline=None, max_examples=100,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


def linear_sum(v: int) -> str:
    return "(" + "+".join(f"x{i}" for i in range(v)) + ")"


def chain(k: int, start: int = 0) -> str:
    return "*".join(f"v{i}" for i in range(start, start + k))


atoms = st.one_of(
    st.sampled_from(["x", "y", "z1", "x'", "y''", "x^(4)", "D", "2", "-3", "1/2", "0", "2/0"]),
    st.integers(2, 80).map(linear_sum),
    st.integers(2, 1000).map(chain),
    st.text(alphabet="xyD^()*+-'0123456789/ ", max_size=12),
)
exponents = st.one_of(st.integers(0, 9), st.sampled_from([20, 61, 150, 1999, 2000, 10**6]))
orders = st.one_of(st.integers(0, 3), st.sampled_from([8, 40, 1001]))


def extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", " * "]), inner).map("".join),
        st.tuples(inner, exponents).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(orders, inner).map(lambda t: f"D^{t[0]}({t[1]})"),
        inner.map(lambda s: f"({s})"),
    )


texts = st.one_of(
    st.recursive(atoms, extend, max_leaves=8),
    st.sampled_from([chain(1001), f"{chain(600)}*{chain(600)}", f"{linear_sum(80)}*{linear_sum(80)}",
                     f"D^2({chain(1000)})", "((28)^1999)^2000",
                     f"{linear_sum(50)}*{chain(1000)}", f"({chain(100)}+{chain(100, 100)})^999"]),
)


@pytest.fixture
def pairs(monkeypatch):
    """The term pairs multiplied so far, in the one product loop, and the
    variables of their monomials, which the loop copies."""
    count = [0, 0]
    original = polynomial._accumulate

    def counting(out, w, a, b):
        count[0] += len(a) * len(b)
        count[1] += sum(map(len, a)) * len(b) + sum(map(len, b)) * len(a)
        return original(out, w, a, b)

    monkeypatch.setattr(polynomial, "_accumulate", counting)
    return count


def run_main(*argv, stdin: str) -> tuple[int, str]:
    """The exit code and stdout of run_cli: 0, or 2 with a one-line error."""
    r = run_cli(*argv, stdin=stdin)
    assert r.returncode in (0, 2), r.stderr
    assert (r.returncode == 2) == r.stderr.startswith("error: ")
    return r.returncode, r.stdout


@FUZZ
@given(text=texts, verb=st.sampled_from(["mul", "diff"]))
def test_text_is_parsed_or_refused_within_the_pair_limits(pairs, text, verb):
    """mul multiplies the parsed text by its second operand once more."""
    operations = text.count("*") + text.count("^")
    limit = max(MAX_POWER_PAIRS, MAX_PRODUCT_PAIRS)
    for mode in (POLY_MODE, DIFF_MODE):
        pairs[:] = 0, 0
        try:
            parse_poly(text, mode)
        except ParseError as exc:
            assert 1 <= exc.offset <= len(text.encode()) + 1
        except DiffalgError:
            pass
        assert pairs[0] <= operations * limit, (text, mode)
        assert pairs[1] <= 2 * MAX_WORK + 4 * pairs[0], (text, mode)
    pairs[:] = 0, 0
    run_main(verb, "-", *(["1"] if verb == "mul" else []), stdin=text)
    assert pairs[0] <= (operations + (verb == "mul")) * limit, (text, verb)
    meters = 3 if verb == "mul" else 1  # mul parses two operands, then multiplies them
    assert pairs[1] <= 2 * MAX_WORK * meters + 4 * pairs[0], (text, verb)


letters = st.one_of(
    st.sampled_from(["a", "b", "x*y", "0", "1/2", "x'"]),
    st.integers(2, 6).map(lambda k: "+".join(f"c{i}" for i in range(k))),
    st.integers(0, 40).map(lambda i: f"d{i}"),
)
words = st.one_of(st.lists(letters, max_size=5), st.lists(letters, min_size=8, max_size=40))
tails = st.sampled_from(["1", "x", "x+y", "2*x^2*y", "0", linear_sum(50)])
elements = st.lists(st.fixed_dictionaries({"word": words, "tail": tails}), max_size=3).map(
    lambda terms: {"terms": terms})


@pytest.fixture
def made(monkeypatch):
    """The words the shuffle kernel and the word expansion return."""
    count = [0]

    # shuffle_words returns (words, counts) and _word_ints (words, denominator)
    def counting(f):
        def call(*args):
            result = f(*args)
            count[0] += len(result[0])
            return result
        return call

    monkeypatch.setattr(rota_baxter, "shuffle_words", counting(rota_baxter.shuffle_words))
    monkeypatch.setattr(rota_baxter, "_word_ints", counting(rota_baxter._word_ints))
    return count


@settings(FUZZ, max_examples=60)
@given(op=st.sampled_from(["shuffle", "mul", "P", "D", "raw"]), u=words, v=words, s=elements,
       t=elements)
def test_rb_payloads_run_or_are_refused_within_the_word_limit(made, op, u, v, s, t):
    """Each side is expanded once and each pair of terms shuffled once, so
    the words made stay within the limit on each of the two sides and on
    their product."""
    made[0] = 0
    payload = {"u": u, "v": v} if op == "shuffle" else {"s": s, "t": t}
    code, out = run_main("rb", "--op", op, stdin=json.dumps(payload))
    assert made[0] <= 3 * MAX_POWER_TERMS, (op, payload)
    if code == 0 and op != "raw":
        result = json.loads(out)
        assert len(result["result" if op == "shuffle" else "terms"]) <= MAX_POWER_TERMS


# -- the series verbs: eval, hurwitz, power, psi ------------------------------
#
# Series literals, expressions and JSON environments drawn from a grammar
# with junk mixed in, at orders from -1 to past MAX_ORDER.  The work is the
# coefficient products of hurwitz._convolution, the one series product
# loop: one product of two series at most C(MAX_ORDER + 2, 2) of them, psi
# none, and an evaluation at most (1 + its variables) times MAX_EVAL_COST,
# since the ring evaluation makes at most one product per partial node and
# the recursion one pair per node and variable.  The names an environment
# can hold bound the variables.

def literal(items) -> str:
    return "[" + ",".join(items) + "]"


# Half of each draw is well formed, so that most requests reach the
# arithmetic; the junk is the other half.
numbers = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=9)).map(str)
junk_numbers = st.sampled_from(["2/0", "0.5", "x", "", "1/", "[1]", "9" * 5000])
LONG = [1] * (MAX_ORDER + 1)
literals = st.one_of(
    st.lists(numbers, min_size=1, max_size=12).map(literal),
    st.one_of(st.lists(st.one_of(numbers, junk_numbers), max_size=12).map(literal),
              st.sampled_from([literal(map(str, LONG)), literal(["-2/3"] * (MAX_ORDER + 2)),
                               "[", "]", "", "1,2", "[[1]]", "[1;2]"]),
              st.text(alphabet="[]0123456789,/ x", max_size=15)),
)
series_orders = st.sampled_from([-1, 0, 1, 2, 3, 8, 40, MAX_ORDER, MAX_ORDER + 1])
# A positional argument that starts with "-" would be an argparse usage
# error, not a refusal of ours, so such expressions go through stdin.
poly_texts = st.one_of(
    st.recursive(
        st.one_of(st.sampled_from(["x", "y", "z", "2", "-1/2", "0"]),
                  st.sampled_from(["w", "x'", "D", "2/0", "x^", "(x"]),
                  st.text(alphabet="xyz^()*+-/0123456789 ", max_size=8)),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map("".join),
            st.tuples(inner, st.integers(0, 12)).map(lambda t: f"({t[0]})^{t[1]}")),
        max_leaves=6),
    st.sampled_from(["x^12*y^12", "x^2000", "x*y*z"]),
)
ENV_NAMES = ("x", "y", "z", "schema", "env")


def series_objects(flavor):
    coeffs = st.lists(st.one_of(st.integers(-9, 9), numbers), min_size=1, max_size=10)
    return st.fixed_dictionaries({"flavor": st.just(flavor),
                                  "coeffs": st.one_of(coeffs, st.just(LONG))})


junk_series = st.one_of(
    st.fixed_dictionaries({"flavor": st.sampled_from(["hurwitz", "power", "laurent", 3]),
                           "coeffs": st.one_of(
                               st.lists(st.one_of(st.integers(-9, 9), junk_numbers, st.sampled_from(
                                   [1.5, True, None, [1]])), max_size=4),
                               st.sampled_from([[1] * (MAX_ORDER + 2), "[1, 2]", None, 5]))}),
    st.sampled_from([None, [], "x", {"coeffs": [1]}, {"flavor": "power"}]),
)
environments = st.one_of(
    st.one_of(
        st.sampled_from(["hurwitz", "power"]).flatmap(lambda flavor: st.fixed_dictionaries(
            {v: series_objects(flavor) for v in ENV_NAMES[:3]})),
        st.dictionaries(st.sampled_from(ENV_NAMES), st.one_of(junk_series, series_objects("power")),
                        max_size=3),
    ).flatmap(lambda env: st.sampled_from([json.dumps(env), json.dumps({"env": env})])),
    st.sampled_from(["", "[]", "null", "{", '"x"', '{"env": 3}',
                     '{"x": {"flavor": "power", "coeffs": [' + "9" * 5000 + "]}}"]),
)


@pytest.fixture
def products(monkeypatch):
    """The coefficient products of the series product loop so far."""
    count = [0]
    original = hurwitz._convolution

    def counting(pairs, order, flavor):
        count[0] += len(pairs) * (order + 1) * (order + 2) // 2
        return original(pairs, order, flavor)

    monkeypatch.setattr(hurwitz, "_convolution", counting)
    return count


def refused_or_done(r) -> None:
    """Exit 0 with nothing on stderr, or exit 2 with one ``error:`` line;
    any other exception escapes run_cli and fails the test."""
    assert r.returncode in (0, 2), r
    assert "Traceback" not in r.stderr
    if r.returncode:
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr
    else:
        assert r.stderr == "" and r.stdout


@FUZZ
@given(expr=poly_texts, env=environments, order=series_orders, piped=st.booleans(),
       fmt=st.sampled_from(["text", "json"]))
def test_eval_runs_or_is_refused_within_the_work_bound(products, expr, env, order, piped, fmt):
    products[0] = 0
    piped = piped or expr.startswith("-")
    refused_or_done(run_cli("eval", "-" if piped else expr, "--order", str(order), "--format", fmt,
                            stdin=f"{expr}\n{env}" if piped else env))
    assert products[0] <= (1 + len(ENV_NAMES)) * MAX_EVAL_COST, (expr, env, products[0])


@FUZZ
@given(verb=st.sampled_from(["hurwitz", "power", "psi"]), left=literals, right=literals,
       order=series_orders, flavors=st.sampled_from([("power", None), ("hurwitz", None),
                                                     ("power", "hurwitz"), ("hurwitz", "power"),
                                                     ("power", "power")]),
       fmt=st.sampled_from(["text", "json"]))
def test_series_literals_run_or_are_refused_within_the_work_bound(products, verb, left, right,
                                                                  order, flavors, fmt):
    products[0] = 0
    args = ["--order", str(order), "--format", fmt]
    if verb == "psi":
        src, dst = flavors
        r = run_cli("psi", "-", *args, "--from", src, *(["--to", dst] if dst else []), stdin=left)
    else:
        r = run_cli(verb, "-", right, *args, stdin=left)
    refused_or_done(r)
    assert products[0] <= (0 if verb == "psi" else (MAX_ORDER + 1) * (MAX_ORDER + 2) // 2)
