"""Command-line front end.

Verbs:

* ``diff EXPR``        apply the shift derivation --n times
* ``mul EXPR EXPR``    multiply two (differential) polynomials
* ``eval EXPR``        evaluate at a JSON environment of series (stdin),
                       reporting the coefficient recursion and the series
                       ring evaluation side by side
* ``hurwitz A B``      Hurwitz product of two series literals
* ``power A B``        Cauchy product of two series literals
* ``psi A``            convert between power and Hurwitz flavors
* ``laws``             run every law suite; nonzero exit on any failure
* ``rb --op ...``      shuffle / product / P / D on JSON input (stdin)

Exit codes: 0 success, 1 law failure or a closed stdout, 2 parse or usage
error.  --format json gives structured output; laws and rb print JSON only.
All output is deterministic given the inputs and --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DiffalgError, MalformedPayload, ParseError, ResultTooLarge
from .expr import (DIFF_MODE, MAX_EVAL_COST, MAX_ORDER, MAX_POWER_TERMS, POLY_MODE, WorkMeter,
                   _eval_cost, _shuffle_words, check_bound, parse_poly, parse_rational,
                   parse_series_literal, product, shift)
from .polynomial import Poly, mono_str

if TYPE_CHECKING:  # each verb imports the modules it uses, so start-up follows the verb
    from . import hurwitz as hz

SCHEMA = 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="diffalg", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("diff", help="apply the shift derivation")
    p.add_argument("expr")
    p.add_argument("--n", type=int, default=1, help="iteration count")
    common(p)

    p = sub.add_parser("mul", help="multiply two polynomials")
    p.add_argument("expr")
    p.add_argument("other")
    common(p)

    p = sub.add_parser("eval", help="evaluate at a JSON series environment from stdin")
    p.add_argument("expr")
    p.add_argument("--order", type=int, default=8)
    common(p)

    for flavor in ("hurwitz", "power"):
        p = sub.add_parser(flavor, help=f"{flavor} product of two series literals")
        p.add_argument("left")
        p.add_argument("right")
        p.add_argument("--order", type=int, default=8, help="truncate inputs to this order")
        common(p)

    p = sub.add_parser("psi", help="convert series flavor via factorial rescaling")
    p.add_argument("series")
    p.add_argument("--from", dest="src", choices=("power", "hurwitz"), default="power")
    p.add_argument("--to", dest="dst", choices=("power", "hurwitz"), default=None)
    p.add_argument("--order", type=int, default=8)
    common(p)

    p = sub.add_parser("laws", help="run the full law suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("rb", help="shuffle-algebra operations on JSON input")
    p.add_argument("--op", choices=("shuffle", "mul", "P", "D", "raw"), required=True)

    return ap


def _stdin() -> str:
    try:
        return sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"standard input is not {exc.encoding} text", exc.start + 1,
                         frozenset({f"{exc.encoding} text"})) from None


def _positional(value: str) -> str:
    return _stdin().strip() if value == "-" else value


def _text(value) -> str:
    """str(value) for output, with a number past the int/str digit limit
    reported as ResultTooLarge."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ResultTooLarge(f"the result has a number of more than {limit} digits") from None


def _emit_poly(p: Poly, fmt: str) -> None:
    print(json.dumps({"schema": SCHEMA, "result": _text(p)}) if fmt == "json" else _text(p))


def _emit_series(s: hz.Series, fmt: str) -> None:
    print(json.dumps({"schema": SCHEMA, "flavor": s.flavor.value,
                      "coeffs": [_text(c) for c in s.coeffs]}) if fmt == "json" else _text(s))


def _json_payload(text: str, what: str) -> dict:
    """The JSON object that text holds."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedPayload(f"{what} is not JSON: {exc}") from None
    except ValueError:  # an integer literal longer than int() reads
        limit = sys.get_int_max_str_digits()
        raise MalformedPayload(f"{what} has a number of more than {limit} digits") from None
    return _json_object(value, what)


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedPayload(f"{what} must be a JSON object")
    return value


def _field(obj: dict, key: str):
    """The required field key of a JSON object."""
    if key not in obj:
        raise MalformedPayload(f'missing field "{key}"')
    return obj[key]


def _json_list(value, kind: type, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, kind) for x in value):
        noun = "strings" if kind is str else "objects"
        raise MalformedPayload(f"{what} must be a list of {noun}")
    return value


def _rational(value, what: str) -> Fraction:
    try:
        return parse_rational(str(value))
    except OverflowError as exc:
        raise MalformedPayload(f"{what} has {exc}") from None
    except ValueError:
        raise MalformedPayload(f"{what} is not a rational: {value!r}") from None


def _letters(obj: dict, key: str) -> list:
    """The polynomial letters of the word stored under key."""
    return [parse_poly(s, POLY_MODE) for s in _json_list(_field(obj, key), str, f'"{key}"')]


def _series_from_json(env: dict, name: str) -> hz.Series:
    from . import hurwitz as hz
    obj = _json_object(env[name], f'series "{name}"')
    coeffs = _field(obj, "coeffs")
    if not isinstance(coeffs, list):
        raise MalformedPayload(f'"coeffs" of series "{name}" must be a list')
    if not coeffs:
        raise MalformedPayload(f'"coeffs" of series "{name}" must not be empty')
    if len(coeffs) > MAX_ORDER + 1:
        raise MalformedPayload(
            f'"coeffs" of series "{name}" has more than {MAX_ORDER + 1} coefficients')
    flavor = _field(obj, "flavor")
    if flavor not in ("hurwitz", "power"):
        raise MalformedPayload(f'"flavor" of series "{name}" must be "hurwitz" or "power"')
    coeffs = tuple(_rational(c, f'a coefficient of series "{name}"') for c in coeffs)
    return hz.Series(coeffs, hz.Flavor(flavor))


def _rb_terms(payload: dict, key: str) -> list:
    """The (letters, tail, coeff) terms of the element stored under key."""
    obj = _json_object(_field(payload, key), f'"{key}"')
    terms = []
    for t in _json_list(_field(obj, "terms"), dict, '"terms"'):
        tail = _field(t, "tail")
        if not isinstance(tail, str):
            raise MalformedPayload('"tail" must be a string')
        terms.append((_letters(t, "word"), parse_poly(tail, POLY_MODE),
                      _rational(t.get("coeff", 1), '"coeff"')))
    return terms


def _cmd_diff(args) -> int:
    if not 0 <= args.n <= MAX_ORDER:
        raise ParseError(f"--n must be from 0 to {MAX_ORDER}", 1, frozenset({"natural number"}))
    _emit_poly(shift(parse_poly(_positional(args.expr), DIFF_MODE), args.n, 1), args.format)
    return 0


def _cmd_mul(args) -> int:
    p = parse_poly(_positional(args.expr), DIFF_MODE)
    q = parse_poly(args.other, DIFF_MODE)
    _emit_poly(product(p, q, 1, WorkMeter()), args.format)
    return 0


def _cmd_eval(args) -> int:
    from . import hurwitz as hz
    expr, text = args.expr, _stdin()
    if expr == "-":  # first stdin line is the expression, the remainder is the JSON env
        line, _, text = text.partition("\n")
        expr = line.strip()
    p = parse_poly(expr, POLY_MODE)
    payload = _json_payload(text, "the environment")
    env_obj = _json_object(payload.get("env", payload), '"env"')
    env = {name: _series_from_json(env_obj, name) for name in env_obj if name != "schema"}
    if not env:
        raise ParseError("empty environment", 1, frozenset({"series object"}))
    first = next(iter(env.values()))
    order = min(args.order, min(s.order for s in env.values()))
    check_bound(_eval_cost(p, order), MAX_EVAL_COST, "an evaluation", "steps", 1,
                "a lower --order or a smaller polynomial")
    oracle = hz.ring_eval(p, {k: s.truncate(order) for k, s in env.items()})
    recursion = hz._components(p, env, order, first.flavor)
    rows = [{"n": n, "recursion": _text(rec), "ring": _text(ring)}
            for n, (rec, ring) in enumerate(zip(recursion, oracle.coeffs))]
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, "flavor": first.flavor.value, "components": rows}))
    else:
        for r in rows:
            agree = "ok" if r["recursion"] == r["ring"] else "MISMATCH"
            print(f"n={r['n']}: recursion={r['recursion']} ring={r['ring']} [{agree}]")
    return 0


def _cmd_series_mul(args) -> int:
    from . import hurwitz as hz
    left = parse_series_literal(_positional(args.left))
    right = parse_series_literal(args.right)
    flavor = hz.Flavor(args.verb)
    f = hz.Series(left, flavor).truncate(args.order)
    g = hz.Series(right, flavor).truncate(args.order)
    _emit_series(hz.smul_trunc(f, g), args.format)
    return 0


def _cmd_psi(args) -> int:
    from . import hurwitz as hz
    coeffs = parse_series_literal(_positional(args.series))
    src = hz.Flavor.POWER if args.src == "power" else hz.Flavor.HURWITZ
    if args.dst is not None and args.dst == args.src:
        raise ParseError("--to must differ from --from", 1, frozenset({"flavor"}))
    s = hz.Series(coeffs, src).truncate(args.order)
    out = hz.psi(s) if src is hz.Flavor.POWER else hz.psi_inv(s)
    _emit_series(out, args.format)
    return 0


def _cmd_laws(args) -> int:
    from .suites import run_all
    reports = run_all(args.seed, args.trials)
    for rep in reports:
        print(rep.to_json())
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_rb(args) -> int:
    from . import rota_baxter as rb
    payload = _json_payload(_stdin(), "the payload")
    if args.op == "shuffle":  # the words u and v, as one-term elements with tail 1
        s, t = ([(_letters(payload, key), Poly.one())] for key in "uv")
    else:
        s = _rb_terms(payload, "s")
        t = _rb_terms(payload, "t") if args.op == "mul" else [([], Poly.one())]
    check_bound(_shuffle_words(s, t), MAX_POWER_TERMS, "an rb result", "words", 1)
    s, t = (sum((rb.RBElem.term(*term) for term in terms), rb.RBElem.zero()) for terms in (s, t))
    texts: dict = {}  # each distinct letter of the output rendered once

    def word(w: tuple) -> list:
        """A word's letters as text, for output."""
        return [texts.get(m) or texts.setdefault(m, mono_str(m)) for m in w]

    if args.op == "shuffle":
        out = {"result": [{"word": word(w), "coeff": _text(c)}
                          for (w, _), c in sorted(rb.rb_mul(s, t).terms())]}
    elif args.op == "raw":
        raw = rb.rb_D_raw(s)
        out = {"result": [{"word": word(w), "tail": mono_str(t), "var": str(v),
                           "coeff": _text(raw[(w, t, v)])} for (w, t, v) in sorted(raw)]}
    else:
        if args.op == "mul":
            elem = rb.rb_mul(s, t)
        else:
            elem = rb.rb_P(s) if args.op == "P" else rb.rb_D(s)
        out = {"terms": [{"word": word(w), "tail": mono_str(t), "coeff": _text(c)}
                         for (w, t), c in sorted(elem.terms())]}
    print(json.dumps({"schema": SCHEMA, **out}))
    return 0


_COMMANDS = {"diff": _cmd_diff, "mul": _cmd_mul, "eval": _cmd_eval, "hurwitz": _cmd_series_mul,
             "power": _cmd_series_mul, "psi": _cmd_psi, "laws": _cmd_laws, "rb": _cmd_rb}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "order", 0) < 0:
            raise ParseError("--order must be a natural number", 1, frozenset({"natural number"}))
        if getattr(args, "trials", 1) < 1:
            raise ParseError("--trials must be at least 1", 1, frozenset({"positive integer"}))
        code = _COMMANDS[args.verb](args)
        sys.stdout.flush()
        return code
    except DiffalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout.  What is still buffered goes to devnull,
        # so the flush at exit raises nothing (the recipe of the signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
