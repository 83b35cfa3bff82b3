"""Which laws catch which kernel fault: a small mutation matrix.

Each mutant is one exact text substitution in a kernel of src/diffalg.  For
each, this script copies src/ to a temporary directory, applies the
substitution there, runs ``python -m diffalg.cli laws --seed 42 --trials 10``
on the copy and prints the mutant with the laws that fail (a crash of the
run counts as caught).  It exits 1 if a substitution does not match exactly
once or a mutant fails no law.

    python tools/mutants.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (name, file under src/diffalg, text, replacement)
MUTANTS = [
    ("pascal_rows_all_ones", "hurwitz.py",
     "row = [1, *map(operator.add, row, row[1:]), 1]", "row = [1] * (len(row) + 1)"),
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
]


def failing_laws(name: str, text: str, replacement: str) -> list:
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
            return [f"crash(exit {run.returncode})"]
        reports = [json.loads(line) for line in run.stdout.splitlines()]
        return [r["law"] for r in reports if not r["pass"]]


def main() -> int:
    status = 0
    for mutant, name, text, replacement in MUTANTS:
        laws = failing_laws(name, text, replacement)
        print(f"{mutant}: {len(laws)} failing: {' '.join(laws) or 'NONE'}", flush=True)
        status |= not laws
    return status


if __name__ == "__main__":
    sys.exit(main())
