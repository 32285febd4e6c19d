"""Run one plcmarket command line in-process, as the tests see it."""

import contextlib
import io
from typing import NamedTuple

from plcmarket.cli import main


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, in the order written


def run(*args: str) -> Result:
    sink = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code or 0
    return Result(code, sink.getvalue())
