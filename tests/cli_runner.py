"""The two ways the tests run the command-line front end.

A test runs the CLI in this process, through ``run_cli``, unless it is
about the process itself: what a fresh interpreter imports, a reader that
closes stdout, bytes on stdin that are not text, the shipped
``python -m diffalg.cli`` golden.  Those tests, and the test that holds
the two runners to the same output, start a child through ``run_child``.
"""

import contextlib
import io
import subprocess
import sys
from typing import NamedTuple
from unittest import mock

# The interpreter arguments that run the CLI module in a child.
CLI = ("-m", "diffalg.cli")
# Every CLI call in the tests finishes in about a second; a bound that
# regresses into a long computation fails the test here instead of hanging
# the suite.
TIMEOUT_S = 60


class Run(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(*argv: str, stdin="") -> Run:
    """cli.main(argv) in this process, reading stdin and with stdout and
    stderr captured.  An argparse exit is its exit code; any other
    exception escapes to the test."""
    from diffalg import cli

    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.object(sys, "stdin", io.StringIO(stdin)),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return Run(code, out.getvalue(), err.getvalue())


def run_child(*argv: str, stdin="", env=None, close_stdout: bool = False) -> Run:
    """``python *argv`` in a fresh interpreter.  Bytes on stdin give bytes
    on stdout and stderr.  With close_stdout the reader closes stdout
    before the child writes to it, and stdout is None."""
    with subprocess.Popen((sys.executable, *argv), stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                          text=not isinstance(stdin, bytes)) as p:
        if close_stdout:
            p.stdout.close()
        try:
            out, err = p.communicate(stdin, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            p.kill()
            raise
    return Run(p.returncode, out, err)
