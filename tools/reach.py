"""Which lines of splitconf the program never runs, and which only the tests run.

    python3 tools/reach.py [pytest arguments]

Run from the root of a source checkout.  Under ``sys.settrace`` it first
makes a fixed list of in-process ``splitconf`` calls (``verify`` in each
format, ``transform`` on float, exact and at-infinity words, ``show``
of every object kind and output format), then runs the tier-1 tests through
``pytest.main`` (``tests`` unless arguments are given).  For every
module of ``src/splitconf`` it prints the executable lines, as ranges
with the function they sit in and their first source line, that

* nothing reached ("never"), and
* only the tests reached ("tests only").

Executable lines are those the compiler attributes bytecode to, found
by walking the code objects of each module's source.  A function's
``def`` line counts as reached when the function is called or defined.
The tool uses the standard library only; the tests need pytest, as
they do without it.  It is not a test and pytest does not collect it.
"""

import contextlib
import io
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitconf"

# The program's traffic: what a user of the command line runs.
PROGRAM_CALLS = (
    ["verify", "--format", "json"],
    ["verify", "--format", "text", "--seed", "7", "--samples", "40"],
    ["verify", "--format", "csv", "--suites", "clifford,group", "--samples", "20"],
    ["transform", "--point", "0.1,0.2,0.3,0.4",
     "--word", "xy:0.3,tz:0.5,ax:0.2,bx:-0.1,pq:0.4"],
    ["transform", "--point", "1,0,2,0", "--word", "ax:1,bt:-1,xy:0"],
    ["transform", "--point", "0,1,0,0", "--word", "bx:-1"],
    ["transform", "--point", "1,0,0,0,1,0", "--word", "pq:0.5"],
    ["transform", "--point", "1,0,0,0,1,0", "--word", "pq:0.5", "--format", "json"],
    ["transform", "--point", "0.5,0,0,0", "--word", "ax:1", "--format", "csv"],
    ["show", "sigma", "y"],
    ["show", "gamma", "t", "--format", "json"],
    ["show", "generator", "qx", "--angle", "0.3"],
    ["show", "real-gamma", "p", "--format", "csv"],
    ["show", "real-generator", "tx", "--angle", "0.2"],
    ["show", "generator", "ax", "--format", "csv"],
    ["show", "real-generator", "pq", "--format", "json"],
)


def executable_lines(path):
    """{line: qualified name of the innermost code object that holds it}."""
    owner = {}

    def walk(code, name):
        for _, _, line in code.co_lines():
            if line:  # None, or 0 for a module's first instruction
                owner[line] = name
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, getattr(const, "co_qualname", const.co_name))

    walk(compile(path.read_text(), str(path), "exec"), "<module>")
    return owner


class Recorder:
    """Collects (file, line) pairs of the traced files into the current set."""

    def __init__(self, files):
        self.files = files
        self.hits = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename not in self.files:
            return None
        self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    @contextlib.contextmanager
    def tracing(self, hits):
        self.hits = hits
        threading.settrace(self._global)
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def run_program(recorder, hits):
    with recorder.tracing(hits):
        from splitconf.cli import main

        for argv in PROGRAM_CALLS:
            with contextlib.redirect_stdout(io.StringIO()):
                with contextlib.redirect_stderr(io.StringIO()):
                    main(list(argv))


def run_tests(recorder, hits, args):
    import pytest

    with recorder.tracing(hits):
        return pytest.main(["-q", "-p", "no:cacheprovider", *(args or ["tests"])])


def ranges(lines):
    """Sorted lines as (first, last) runs of consecutive numbers."""
    out = []
    for line in sorted(lines):
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return out


def report(path, owner, program, tests):
    source = path.read_text().splitlines()
    never = [n for n in owner if n not in program and n not in tests]
    only = [n for n in owner if n not in program and n in tests]
    print("%s: %d executable, %d never run, %d run only by tests"
          % (path.name, len(owner), len(never), len(only)))
    for label, lines in (("never", never), ("tests only", only)):
        for first, last in ranges(lines):
            span = "%d" % first if first == last else "%d-%d" % (first, last)
            print("  %-10s L%-9s %-32s %s"
                  % (label, span, owner[first], source[first - 1].strip()[:60]))


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(PACKAGE.parent))
    paths = sorted(PACKAGE.glob("*.py"))
    recorder = Recorder({str(p) for p in paths})
    program, tests = set(), set()
    run_program(recorder, program)
    status = run_tests(recorder, tests, args)
    print()
    for path in paths:
        name = str(path)
        report(
            path,
            executable_lines(path),
            {line for f, line in program if f == name},
            {line for f, line in tests if f == name},
        )
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
