import hashlib
import json
import os
import sys
import time
from pathlib import Path

import pytest

from cli_runner import CLI, run_child, run_cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
LAWS_GOLDEN = DATA / "laws_seed42_trials10.txt"
RB_MUL = json.dumps({"s": {"terms": [{"word": ["a"], "tail": "x"}]},
                     "t": {"terms": [{"word": ["b"], "tail": "y"}]}})


class TestGolden:
    def test_diff_twice(self):
        r = run_cli("diff", "--n", "2", "x^2")
        assert r.returncode == 0
        assert r.stdout == "2*x'^2 + 2*x*x''\n"

    def test_diff_default_once(self):
        r = run_cli("diff", "x^2")
        assert r.returncode == 0
        assert r.stdout == "2*x*x'\n"

    def test_psi_power_to_hurwitz(self):
        r = run_cli("psi", "[1,1,1,1]", "--from", "power")
        assert r.returncode == 0
        assert r.stdout == "[1,1,2,6]\n"

    def test_psi_hurwitz_to_power(self):
        r = run_cli("psi", "[1,1,2,6]", "--from", "hurwitz")
        assert r.returncode == 0
        assert r.stdout == "[1,1,1,1]\n"

    def test_hurwitz_product(self):
        r = run_cli("hurwitz", "[1,1,1,1,1]", "[1,1,1,1,1]")
        assert r.stdout == "[1,2,4,8,16]\n"

    def test_power_product(self):
        r = run_cli("power", "[1,1,1,1,1]", "[1,1,1,1,1]")
        assert r.stdout == "[1,2,3,4,5]\n"

    def test_mul(self):
        r = run_cli("mul", "x + 1", "x - 1")
        assert r.stdout == "x^2 + -1\n"

    def test_json_format(self):
        r = run_cli("diff", "--n", "2", "x^2", "--format", "json")
        assert json.loads(r.stdout) == {"schema": 1, "result": "2*x'^2 + 2*x*x''"}


class TestStdin:
    def test_dash_expression(self):
        r = run_cli("diff", "-", stdin="x^2\n")
        assert r.returncode == 0
        assert r.stdout == "2*x*x'\n"


class TestEval:
    ENV = json.dumps({
        "X": {"flavor": "hurwitz", "coeffs": ["1", "2", "3"]},
        "Y": {"flavor": "hurwitz", "coeffs": ["5", "7", "11"]},
    })

    def test_text_report(self):
        r = run_cli("eval", "X*Y", stdin=self.ENV)
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[1] == "n=1: recursion=17 ring=17 [ok]"
        assert all(line.endswith("[ok]") for line in lines)

    def test_json_report(self):
        r = run_cli("eval", "X*Y", "--format", "json", stdin=self.ENV)
        data = json.loads(r.stdout)
        assert data["flavor"] == "hurwitz"
        assert data["components"][1] == {"n": 1, "recursion": "17", "ring": "17"}

    def test_power_env_uses_cauchy(self):
        env = json.dumps({"X": {"flavor": "power", "coeffs": ["1", "1", "1"]}})
        r = run_cli("eval", "X^2", "--format", "json", stdin=env)
        data = json.loads(r.stdout)
        assert [c["recursion"] for c in data["components"]] == ["1", "2", "3"]


class TestRunners:
    """run_cli, which calls cli.main in this process, prints what a fresh
    ``python -m diffalg.cli`` prints and exits as it does: one call of
    each verb, an argparse usage error and a typed input error."""

    @pytest.mark.parametrize("args, stdin, code", [
        (("diff", "-", "--n", "2"), "x^2*y\n", 0),
        (("mul", "x + 1", "x - 1", "--format", "json"), "", 0),
        (("eval", "X*Y"), TestEval.ENV, 0),
        (("hurwitz", "[1,1,1,1]", "[1,2]"), "", 0),
        (("power", "[1,1,1,1]", "[1,2]", "--format", "json"), "", 0),
        (("psi", "[1,1,2,6]", "--from", "hurwitz"), "", 0),
        (("laws", "--seed", "7", "--trials", "1"), "", 0),
        (("rb", "--op", "mul"), RB_MUL, 0),
        (("nonsense",), "", 2),
        (("diff", "x^"), "", 2),
    ], ids=["diff-stdin", "mul", "eval", "hurwitz", "power", "psi", "laws", "rb", "usage-error",
            "typed-error"])
    def test_same_as_a_child(self, args, stdin, code):
        r = run_cli(*args, stdin=stdin)
        assert r == run_child(*CLI, *args, stdin=stdin)
        assert r.returncode == code
        assert r.stdout if code == 0 else r.stderr


def series_env(names, order: int, flavor: str = "hurwitz") -> str:
    return json.dumps({v: {"flavor": flavor, "coeffs": [str(k % 5 - 2) for k in range(order + 1)]}
                       for v in names})


class Reached(Exception):
    pass


def stopped(monkeypatch, module, *names) -> list:
    """The names of module's functions called so far: each named function
    records its name and raises Reached, as passing the bound is all a
    test of it needs to see."""
    calls = []

    def stop(name):
        def call(*args):
            calls.append(name)
            raise Reached
        return call

    for name in names:
        monkeypatch.setattr(module, name, stop(name))
    return calls


class TestEvalCost:
    """An eval request whose cost, (partial nodes) x (order + 1)^2, is over
    MAX_EVAL_COST exits 2 before the recursion or the ring evaluation runs;
    the tests count their calls."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from diffalg import hurwitz

        return stopped(monkeypatch, hurwitz, "ring_eval", "_components")

    @staticmethod
    def run(expr, names, order, *args, flavor="hurwitz"):
        return run_cli("eval", expr, "--order", str(order), *args,
                       stdin=series_env(names, order, flavor))

    @pytest.mark.parametrize("expr, names, order", [
        ("X^3*Y^3", "XY", 1000), ("X^3*Y^3", "XY", 559), ("X^4", "X", 1000),
        ("X*Y*Z", "XYZ", 1000)])
    def test_refused(self, calls, expr, names, order):
        from diffalg.cli import MAX_EVAL_COST

        r = self.run(expr, names, order)
        assert r.returncode == 2
        assert r.stderr == (
            f"error: an evaluation of more than {MAX_EVAL_COST} steps at byte 1 "
            "(expected: a lower --order or a smaller polynomial)\n")
        assert calls == []

    @pytest.mark.parametrize("expr, names, order", [
        ("X^4", "X", 999), ("X*Y", "XY", 1000), ("X^3*Y^3", "XY", 558)])
    def test_at_the_bound(self, calls, expr, names, order):
        with pytest.raises(Reached):
            self.run(expr, names, order)
        assert calls == ["ring_eval"]

    @pytest.mark.parametrize("expr, names, order, flavor, fmt", [
        ("3*X^2*Y - 1/2*X*Y^2 + 7", "XY", 6, "hurwitz", "text"),
        ("X*Y*Z + 2*X^2*Y - Z^3", "XYZ", 8, "power", "json")])
    def test_benchmark_requests_run(self, expr, names, order, flavor, fmt):
        """The shapes of the eval requests the cli benchmark makes."""
        r = self.run(expr, names, order, "--format", fmt, flavor=flavor)
        assert r.returncode == 0
        out = r.stdout
        rows = json.loads(out)["components"] if fmt == "json" else out.splitlines()
        assert len(rows) == order + 1

    def test_cost_counts_nodes(self):
        """X^4 has the partial nodes X^4, 4X^3, 12X^2, 24X and 24; X^3*Y^3
        the 16 partials X^i*Y^j; a sum adds up the nodes of its monomials."""
        from diffalg.expr import MAX_EVAL_COST, _eval_cost, parse_poly

        cost = [_eval_cost(parse_poly(text, "poly"), order)
                for text, order in (("X^4", 999), ("X^3*Y^3", 558), ("7", 1000), ("X + Y^2", 9))]
        assert cost == [5 * 1000 ** 2, 16 * 559 ** 2, 1001 ** 2, 5 * 10 ** 2]
        assert cost[0] == MAX_EVAL_COST < 16 * 560 ** 2


class TestEvalGolden:
    """`eval` stdout frozen byte for byte: the recursion column comes from
    the integer coefficient recursion, the ring column from smul."""

    CASES = [
        (("eval", "3*X^2*Y - 1/2*X*Y^3 + 7", "--order", "8"),
         "eval_hurwitz_env.json", "eval_hurwitz_order8.txt"),
        (("eval", "3*X^2*Y + X*Y*Z^2 - 2*Z^3 + Y", "--order", "12", "--format", "json"),
         "eval_power_env.json", "eval_power_order12.json"),
    ]

    @pytest.mark.parametrize("args, env, golden", CASES)
    def test_golden(self, args, env, golden):
        r = run_cli(*args, stdin=(DATA / env).read_text())
        assert r.returncode == 0
        assert r.stdout.encode() == (DATA / golden).read_bytes()


class TestLaws:
    def test_exit_zero_and_reports(self):
        r = run_cli("laws", "--seed", "42", "--trials", "10")
        assert r.returncode == 0
        reports = [json.loads(line) for line in r.stdout.splitlines()]
        assert all(rep["pass"] for rep in reports)
        assert len(reports) > 40

    def test_frozen_golden(self):
        """The reports are frozen byte for byte, so a change to any
        SplitMix64 draw order or law report shows up here."""
        r = run_cli("laws", "--seed", "42", "--trials", "10")
        assert r.returncode == 0
        golden = LAWS_GOLDEN.read_bytes()
        assert r.stdout.encode() == golden

    def test_frozen_golden_matches_benchmark(self):
        meta = json.loads((ROOT / "perfbench" / "golden.json").read_text())
        golden = LAWS_GOLDEN.read_bytes()
        assert (meta["seed"], meta["trials"]) == (42, 10)
        assert hashlib.sha256(golden).hexdigest() == meta["sha256"]
        assert golden.count(b"\n") == meta["lines"]

    def test_byte_identical_across_runs(self):
        a = run_cli("laws", "--seed", "42", "--trials", "8")
        b = run_cli("laws", "--seed", "42", "--trials", "8")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0


class TestImports:
    def test_cli_does_not_load_the_law_harness(self):
        """Only the laws verb needs suites and carriers; every other verb
        pays for them in start-up time if the CLI module imports them."""
        code = ("import sys, diffalg.cli; "
                "print(sorted(m for m in ('diffalg.suites', 'diffalg.carriers') if m in sys.modules))")
        r = run_child("-c", code)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[]\n"

    # Runs one verb through cli.main and prints, after the verb's output,
    # its exit code and the modules it loaded that were not loaded before;
    # json is imported for that print only after the modules are read.
    FOOTPRINT = ("import sys\n"
                 "before = set(sys.modules)\n"
                 "from diffalg import cli\n"
                 "code = cli.main(sys.argv[1:])\n"
                 "loaded = sorted(set(sys.modules) - before)\n"
                 "import json\n"
                 "print(json.dumps([code, loaded]))\n")
    HARNESS = ("diffalg.rota_baxter", "diffalg.diff_laws", "dataclasses")
    POLY_ONLY = ("diffalg.hurwitz", *HARNESS, "json")
    POLY_STACK = ("diffalg.polynomial", "diffalg.free_diff", "diffalg.expr")
    SERIES = (*HARNESS, *POLY_STACK, "json")

    @pytest.mark.parametrize("args, stdin, uses, absent", [
        (("mul", "x + 1", "x - 1"), None, "diffalg.expr", POLY_ONLY),
        (("diff", "--n", "2", "x^2"), None, "diffalg.free_diff", POLY_ONLY),
        (("rb", "--op", "mul"), RB_MUL, "diffalg.rota_baxter",
         ("diffalg.hurwitz", "diffalg.diff_laws", "diffalg.free_diff")),
        (("hurwitz", "[1,1]", "[1,2]"), None, "diffalg.hurwitz", SERIES),
        (("power", "[1,1]", "[1,2]"), None, "diffalg.hurwitz", SERIES),
        (("psi", "[1,1,1]"), None, "diffalg.hurwitz", SERIES),
        (("psi", "[1,1,1]", "--format", "json"), None, "json", (*HARNESS, *POLY_STACK)),
        (("eval", "X*Y"), TestEval.ENV, "diffalg.hurwitz", (*HARNESS, "diffalg.free_diff")),
    ], ids=["mul", "diff", "rb", "hurwitz", "power", "psi", "psi-json", "eval"])
    def test_each_verb_loads_only_its_modules(self, args, stdin, uses, absent):
        """A verb's start-up pays only for the modules it uses: the law
        harness (and dataclasses with it) loads for laws alone, the series
        module for the series verbs, the shuffle algebra for rb.  The
        series verbs load no polynomial module, eval and rb no free_diff,
        and only JSON input or output loads json."""
        r = run_child("-c", self.FOOTPRINT, *args, stdin=stdin)
        assert r.returncode == 0, r.stderr
        code, loaded = json.loads(r.stdout.splitlines()[-1])
        assert code == 0 and uses in loaded
        assert sorted(set(absent) & set(loaded)) == []


class TestRb:
    def test_shuffle(self):
        payload = json.dumps({"u": ["a"], "v": ["b"]})
        r = run_cli("rb", "--op", "shuffle", stdin=payload)
        data = json.loads(r.stdout)
        assert data == {
            "schema": 1,
            "result": [
                {"word": ["a", "b"], "coeff": "1"},
                {"word": ["b", "a"], "coeff": "1"},
            ],
        }

    def test_p_then_d_vanishes(self):
        elem = {"terms": [{"word": [], "tail": "x^2", "coeff": "1"}]}
        r = run_cli("rb", "--op", "P", stdin=json.dumps({"s": elem}))
        lifted = json.loads(r.stdout)
        assert lifted["terms"] == [{"word": ["x^2"], "tail": "1", "coeff": "1"}]
        r2 = run_cli("rb", "--op", "D", stdin=json.dumps({"s": lifted}))
        assert json.loads(r2.stdout)["terms"] == []

    def test_raw_derivative(self):
        elem = {"terms": [{"word": [], "tail": "x^2", "coeff": "1"}]}
        r = run_cli("rb", "--op", "raw", stdin=json.dumps({"s": elem}))
        data = json.loads(r.stdout)
        assert data["result"] == [{"word": [], "tail": "x", "var": "x", "coeff": "2"}]

    def test_mul(self):
        s = {"terms": [{"word": [], "tail": "x", "coeff": "1"}]}
        t = {"terms": [{"word": ["a"], "tail": "y", "coeff": "1"}]}
        r = run_cli("rb", "--op", "mul", stdin=json.dumps({"s": s, "t": t}))
        assert json.loads(r.stdout)["terms"] == [
            {"word": ["a"], "tail": "x*y", "coeff": "1"}
        ]


def letters(k: int, start: int = 0) -> list:
    """k distinct one-term letters x(start), ..., x(start+k-1)."""
    return [f"x{i}" for i in range(start, start + k)]


def rb_elem(*terms) -> dict:
    """The JSON element of (word, tail) terms."""
    return {"terms": [{"word": word, "tail": tail} for word, tail in terms]}


class TestRbBound:
    """An rb request whose result may have more than MAX_POWER_TERMS words
    exits 2 before any word is expanded or shuffled.  The words are counted
    as expr._shuffle_words counts them: each term's expansion (the term
    counts of its letters and tail multiplied) and, for shuffle and mul,
    the C(j+k, j) interleavings of each pair of terms.  Unbounded, a shuffle
    of two 10-letter words of distinct letters takes 5.7 s in a CLI process
    and P of a word of 17 letters x+y 4.4 s, each letter more multiplying
    that, and a factor that is zero leaves the other to be expanded.  The
    tests stop the expansion and the shuffle kernel to show that neither
    runs."""

    @pytest.fixture
    def expansions(self, monkeypatch):
        from diffalg import rota_baxter

        return stopped(monkeypatch, rota_baxter, "_word_ints", "shuffle_words")

    @staticmethod
    def run(op, payload):
        return run_cli("rb", "--op", op, stdin=json.dumps(payload))

    @pytest.mark.parametrize("op, payload", [
        ("shuffle", {"u": letters(11), "v": letters(11, 11)}),
        ("P", {"s": rb_elem((["x+y"] * 20, "1"))}),
        ("mul", {"s": rb_elem((letters(11), "x")), "t": rb_elem((letters(11, 11), "y"))}),
        ("D", {"s": rb_elem((["a+b"] * 10, "x+y"))}),
        ("raw", {"s": rb_elem(([], "+".join(letters(2001))))}),
        ("P", {"s": rb_elem(*[([], "x")] * 2001)}),
        ("mul", {"s": rb_elem((["x+y"] * 20, "1")), "t": rb_elem()}),
        ("shuffle", {"u": ["0"], "v": ["x+y"] * 20}),
    ], ids=["shuffle-11x11", "P-20-letters", "mul-11x11", "D-2048-words", "raw-wide-tail",
            "P-many-terms", "mul-by-zero", "shuffle-zero-word"])
    def test_refused(self, expansions, op, payload):
        from diffalg.expr import MAX_POWER_TERMS

        r = self.run(op, payload)
        assert r.returncode == 2
        assert r.stderr == (
            f"error: an rb result of more than {MAX_POWER_TERMS} words at byte 1 "
            f"(expected: at most {MAX_POWER_TERMS} words in an rb result)\n")
        assert expansions == []

    @pytest.mark.parametrize("op, payload", [
        ("P", {"s": rb_elem(([], "+".join(letters(2000))))}),
        ("shuffle", {"u": ["a0+a1+a2+a3+a4+a5+a6+a7+a8+a9"], "v": letters(199)}),
        ("mul", {"s": rb_elem((["a+b"] * 4 + ["+".join(letters(125))], "1")),
                 "t": rb_elem(([], "1"))}),
    ], ids=["P-2000-terms", "shuffle-10x200", "mul-16x125"])
    def test_at_the_bound(self, expansions, op, payload):
        with pytest.raises(Reached):
            self.run(op, payload)
        assert expansions[0] == "_word_ints"

    def test_repeated_letters_are_counted_apart(self):
        """The interleavings of repeated letters spell one word, but the
        estimate counts each: x^7 shuffled with x^7 is one word with
        coefficient C(14, 7) = 3432, and is refused; x^6 with x^6 runs."""
        from diffalg.polynomial import Poly
        from diffalg.rota_baxter import shuffle

        x = Poly.variable("x")
        assert shuffle([x] * 7, [x] * 7) == {((("x", 1),),) * 14: 3432}
        r = self.run("shuffle", {"u": ["x"] * 7, "v": ["x"] * 7})
        assert r.returncode == 2
        assert "an rb result of more than" in r.stderr
        r = self.run("shuffle", {"u": ["x"] * 6, "v": ["x"] * 6})
        assert r.returncode == 0
        assert json.loads(r.stdout)["result"] == [{"word": ["x"] * 12, "coeff": "924"}]

    def test_benchmark_requests_run(self):
        """The shapes of the rb requests the cli benchmark makes: a 5 x 6
        shuffle of distinct letters (462 words), and a mul of two elements
        of a 6-letter and a 2-letter word (at most 986 words)."""
        r = self.run("shuffle", {"u": letters(5), "v": letters(6, 5)})
        assert r.returncode == 0
        assert len(json.loads(r.stdout)["result"]) == 462
        s = rb_elem((letters(6), "x"), (letters(2, 6), "y"))
        t = rb_elem((letters(6, 8), "z"), (letters(2, 14), "w"))
        r = self.run("mul", {"s": s, "t": t})
        assert r.returncode == 0
        assert len(json.loads(r.stdout)["terms"]) == 924 + 28 + 28 + 6


class TestWorkBound:
    """Text of wide monomials that passes every other bound exits 2 at once:
    a wide sum times a chain (15 s before the work bound) and a power of
    two chains (40 s), each read by mul from stdin."""

    SUM = "(" + "+".join(f"x{i}" for i in range(50)) + ")"
    CHAIN = "*".join(f"v{i}" for i in range(1000))
    POWER = "(" + "*".join(f"w{i}" for i in range(100)) + "+" + "*".join(
        f"u{i}" for i in range(100)) + ")^999"

    @pytest.mark.parametrize("text, offset", [(f"{SUM}*{CHAIN}", 857), (POWER, 783)],
                             ids=["sum-times-chain", "power"])
    def test_refused_within_a_second(self, text, offset):
        start = time.perf_counter()
        r = run_cli("mul", "-", "1", stdin=text)
        elapsed = time.perf_counter() - start
        assert (r.returncode, r.stdout, r.stderr) == (2, "", (
            f"error: an expression of more than 600000 variable copies at byte {offset} "
            "(expected: at most 600000 variable copies in an expression)\n"))
        assert elapsed < 1, elapsed


class TestErrors:
    def test_parse_error_exits_2(self):
        r = run_cli("diff", "x^")
        assert r.returncode == 2
        assert "expected" in r.stderr

    def test_mode_error_exits_2(self):
        r = run_cli("eval", "x'", stdin="{}")
        assert r.returncode == 2

    def test_usage_error_exits_2(self):
        r = run_cli("nonsense")
        assert r.returncode == 2

    def test_bad_json_exits_2(self):
        r = run_cli("rb", "--op", "P", stdin="this is not json")
        assert r.returncode == 2

    @pytest.mark.parametrize("args", [("laws", "--trials", "1"), ("rb", "--op", "P")],
                             ids=["laws", "rb"])
    def test_format_is_not_an_option_of_json_verbs(self, args):
        """laws and rb always print JSON; --format would be ignored, so it
        is a usage error."""
        r = run_cli(*args, "--format", "text", stdin="{}")
        assert r.returncode == 2
        assert "unrecognized arguments: --format text" in r.stderr

    def test_closed_stdout_exits_1_without_traceback(self):
        """The reader closes stdout before the verb prints (the verb waits
        for its expression on stdin until then): exit 1, nothing on stderr."""
        p = run_child(*CLI, "diff", "-", stdin=b"x^2", close_stdout=True)
        assert p.returncode == 1
        assert p.stderr == b""

    def test_flavor_conflict_exits_2(self):
        r = run_cli("psi", "[1,1]", "--from", "power", "--to", "power")
        assert r.returncode == 2

    def test_deep_nesting_exits_2(self):
        from diffalg.expr import MAX_NESTING

        depth = MAX_NESTING + 1
        r = run_cli("diff", "-", stdin="(" * depth + "x" + ")" * depth)
        assert r.returncode == 2
        assert r.stderr.startswith("error: nesting deeper than")


class TestMalformedPayloads:
    """JSON of the wrong shape is a MalformedPayload: exit 2 with a
    one-line message, never a traceback, and never a string read as a
    list of letters."""

    @pytest.mark.parametrize("op, payload, message", [
        ("shuffle", {"u": 5, "v": []}, '"u" must be a list of strings'),
        ("shuffle", [1], "the payload must be a JSON object"),
        ("shuffle", {"u": ["x"], "v": [3]}, '"v" must be a list of strings'),
        ("shuffle", {"u": "xy", "v": []}, '"u" must be a list of strings'),
        ("P", {"s": 3}, '"s" must be a JSON object'),
        ("P", {"s": {"terms": [{"word": "xy", "tail": "1"}]}}, '"word" must be a list of strings'),
        ("D", {"s": {"terms": [1]}}, '"terms" must be a list of objects'),
        ("raw", {"s": {"terms": {"word": []}}}, '"terms" must be a list of objects'),
        ("mul", {"s": {"terms": []}, "t": {"terms": [{"word": [], "tail": 2}]}},
         '"tail" must be a string'),
        ("P", {"s": {"terms": [{"word": [], "tail": "x", "coeff": "1/0"}]}},
         "\"coeff\" is not a rational: '1/0'"),
    ])
    def test_rb(self, op, payload, message):
        r = run_cli("rb", "--op", op, stdin=json.dumps(payload))
        assert r.returncode == 2
        assert r.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("payload, message", [
        ([1], "the environment must be a JSON object"),
        ({"env": [1]}, '"env" must be a JSON object'),
        ({"x": 5}, 'series "x" must be a JSON object'),
        ({"x": {"flavor": "power", "coeffs": "12"}}, '"coeffs" of series "x" must be a list'),
        ({"x": {"flavor": "power", "coeffs": ["1", "1/0"]}},
         "a coefficient of series \"x\" is not a rational: '1/0'"),
    ])
    def test_eval(self, payload, message):
        r = run_cli("eval", "x", stdin=json.dumps(payload))
        assert r.returncode == 2
        assert r.stderr == f"error: {message}\n"


class TestMissingFields:
    """A required JSON field that is absent is a MalformedPayload naming
    it (exit 2), not a bare key name."""

    @pytest.mark.parametrize("op, payload, field", [
        ("shuffle", {}, "u"),
        ("shuffle", {"u": ["x"]}, "v"),
        ("P", {}, "s"),
        ("mul", {"s": {"terms": []}}, "t"),
        ("D", {"s": {}}, "terms"),
        ("P", {"s": {"terms": [{"word": []}]}}, "tail"),
        ("raw", {"s": {"terms": [{"tail": "x"}]}}, "word"),
    ])
    def test_rb(self, op, payload, field):
        r = run_cli("rb", "--op", op, stdin=json.dumps(payload))
        assert r.returncode == 2
        assert r.stderr == f'error: missing field "{field}"\n'

    @pytest.mark.parametrize("payload, field", [
        ({"x": {"flavor": "power"}}, "coeffs"),
        ({"x": {"coeffs": ["1"]}}, "flavor"),
    ])
    def test_eval(self, payload, field):
        r = run_cli("eval", "x", stdin=json.dumps(payload))
        assert r.returncode == 2
        assert r.stderr == f'error: missing field "{field}"\n'

    def test_internal_key_error_is_not_a_usage_error(self, monkeypatch):
        from diffalg import free_diff

        def broken(p):
            raise KeyError("internal")

        monkeypatch.setattr(free_diff, "d_shift", broken)
        with pytest.raises(KeyError):
            run_cli("diff", "x")


class TestTypedInputErrors:
    """Bad input is a DiffalgError with a pinned message (exit 2); main
    reports no other exception type as a usage error."""

    SERIES = '{"x": {"flavor": "power", "coeffs": ["1", "2"]}}'
    LONG = "9" * (sys.get_int_max_str_digits() + 1)
    WIDE = "(" + " + ".join(f"x{i}" for i in range(70)) + ")"  # its square has 2485 terms

    @pytest.mark.parametrize("args, stdin, message", [
        (("eval", "x"), '{"x": {"flavor": "bogus", "coeffs": ["1"]}}',
         '"flavor" of series "x" must be "hurwitz" or "power"'),
        (("eval", "x"), '{"x": {"flavor": "power", "coeffs": []}}',
         '"coeffs" of series "x" must not be empty'),
        (("eval", "x"), "this is not json",
         "the environment is not JSON: Expecting value: line 1 column 1 (char 0)"),
        (("eval", "-"), "x\n{",
         "the environment is not JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        (("rb", "--op", "shuffle"), "[",
         "the payload is not JSON: Expecting value: line 1 column 2 (char 1)"),
        (("rb", "--op", "P"), '{"s": ' + LONG + "}",
         f"the payload has a number of more than {sys.get_int_max_str_digits()} digits"),
        (("hurwitz", "[1,2]", "[3,4]", "--order", "-1"), None,
         "--order must be a natural number at byte 1 (expected: natural number)"),
        (("power", "[1,2]", "[3,4]", "--order", "-1"), None,
         "--order must be a natural number at byte 1 (expected: natural number)"),
        (("psi", "[1,2]", "--order", "-1"), None,
         "--order must be a natural number at byte 1 (expected: natural number)"),
        (("eval", "x", "--order", "-1"), SERIES,
         "--order must be a natural number at byte 1 (expected: natural number)"),
        (("laws", "--trials", "0"), None,
         "--trials must be at least 1 at byte 1 (expected: positive integer)"),
        (("diff", "x^" + LONG), None,
         f"number of more than {sys.get_int_max_str_digits()} digits at byte 3 "
         f"(expected: at most {sys.get_int_max_str_digits()} digits)"),
        (("mul", "(2*x)^15000", "1"), None,
         f"the result has a number of more than {sys.get_int_max_str_digits()} digits"),
        (("mul", "(2*x)^15000", "1", "--format", "json"), None,
         f"the result has a number of more than {sys.get_int_max_str_digits()} digits"),
        (("diff", "x^\u00b2"), None, "syntax error at byte 3 (expected: natural number)"),
        (("psi", "[1, 1e10000000]"), None,
         f"a number of more than {sys.get_int_max_str_digits()} digits at byte 5 "
         f"(expected: at most {sys.get_int_max_str_digits()} digits)"),
        (("eval", "x"), '{"x": {"flavor": "power", "coeffs": ["1", "1e10000000"]}}',
         f'a coefficient of series "x" has a number of more than '
         f"{sys.get_int_max_str_digits()} digits"),
        (("rb", "--op", "P"),
         '{"s": {"terms": [{"word": [], "tail": "x", "coeff": "-2e-10000000"}]}}',
         f'"coeff" has a number of more than {sys.get_int_max_str_digits()} digits'),
        (("hurwitz", "[" + "1," * 1001 + "1]", "[1]"), None,
         "series literal of more than 1001 coefficients at byte 1 "
         "(expected: at most 1001 coefficients)"),
        (("eval", "x"), json.dumps({"x": {"flavor": "power", "coeffs": ["1"] * 1002}}),
         '"coeffs" of series "x" has more than 1001 coefficients'),
        (("mul", "(x+y+1)^150", "1"), None,
         "a power of more than 2000 terms at byte 9 (expected: at most 2000 terms in a power)"),
        (("diff", "x + (x+y+1)^300"), None,
         "a power of more than 2000 terms at byte 13 (expected: at most 2000 terms in a power)"),
        (("mul", WIDE, WIDE), None,
         "a product of more than 2000 terms at byte 1 (expected: at most 2000 terms in a product)"),
        (("mul", f"{WIDE} * {WIDE}", "1"), None,
         f"a product of more than 2000 terms at byte {len(WIDE) + 2} "
         "(expected: at most 2000 terms in a product)"),
        (("mul", "(x+1)^999*(x+1)^999", "1"), None,
         "a product of more than 100000 term pairs at byte 10 "
         "(expected: at most 100000 term pairs in a product)"),
        (("mul", "(x+1)^1999", "1"), None,
         "a power of more than 400000 term pairs at byte 7 "
         "(expected: at most 400000 term pairs in a power)"),
        (("diff", "--n", "40", "x^20"), None,
         "a derivative of more than 2000 terms at byte 1 "
         "(expected: at most 2000 terms in a derivative)"),
        (("mul", "((28)^1999)^2000", "1"), None,
         "a power of more than 100000 coefficient bits at byte 13 "
         "(expected: at most 100000 coefficient bits in a power)"),
    ], ids=["flavor", "empty-coeffs", "eval-json", "eval-dash-json", "rb-json", "json-digits",
            "hurwitz-order", "power-order", "psi-order", "eval-order", "trials",
            "expr-digits", "result-digits", "result-digits-json", "superscript-digit",
            "literal-exponent", "eval-exponent", "rb-exponent", "literal-length", "eval-length",
            "dense-power", "dense-power-diff", "dense-product", "dense-product-in-one",
            "product-pairs", "power-pairs", "derivative-terms", "power-bits"])
    def test_message(self, args, stdin, message):
        r = run_cli(*args, stdin=stdin)
        assert (r.returncode, r.stderr, r.stdout) == (2, f"error: {message}\n", "")

    def test_series_length_checked_first(self, monkeypatch):
        """An overlong "coeffs" list is refused before any coefficient is read."""
        from diffalg import cli

        monkeypatch.setattr(cli, "parse_rational", None)
        r = run_cli("eval", "x", stdin=json.dumps(
            {"x": {"flavor": "hurwitz", "coeffs": ["1"] * 1002}}))
        assert r.returncode == 2
        err = r.stderr
        assert err == 'error: "coeffs" of series "x" has more than 1001 coefficients\n'

    def test_undecodable_stdin(self):
        env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
        r = run_child(*CLI, "rb", "--op", "P", stdin=b'{"s"\xff', env=env)
        assert r.returncode == 2
        assert r.stderr == b"error: standard input is not utf-8 text at byte 5 (expected: utf-8 text)\n"

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        from diffalg import free_diff

        def broken(p):
            raise ValueError("internal")

        monkeypatch.setattr(free_diff, "d_shift", broken)
        with pytest.raises(ValueError):
            run_cli("diff", "x")
