"""Line-coverage ratchet for src/translab under the test suite.

    python3 tools/coverage.py [--update] [PYTEST_ARG ...]

Run from the root of a checkout.  The script runs pytest in this process
(default arguments: tests) under a sys.settrace line tracer that records
only lines of src/translab, and lists every executable line that never
ran.  A line is keyed by its module, the qualified name of the innermost
function around it and its stripped source text, so an edit elsewhere in
the module does not change the key.  Each module's source is read once,
when the run starts, and the keys come from that text, so an edit made
during the run cannot shift them; the output names each file that changed
during the run.  tools/coverage_known.txt holds the keys known not to run.

Exit status 0 when the unexecuted lines are exactly the known ones, 1 when
a line is missing from the list (it stopped running) or the list names a
line that now runs (delete it from the list), 2 when a test fails.
--update rewrites the list from this run instead.  Tests that start a
subprocess, such as the python -O checks, run with src on PYTHONPATH but
are not traced.  Hypothesis runs derandomized without its example
database, so two runs trace the same lines.  Under the tracer the suite
runs about three times slower, so a test that only bounds wall-clock time
(WALL_CLOCK) may fail; its failure is reported and does not count.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src", "translab")
KNOWN = os.path.join(ROOT, "tools", "coverage_known.txt")
WALL_CLOCK = {
    "tests/test_deciders.py::test_pencil_minors_at_n7_within_time_bound",
}


class _Failures:
    """pytest plugin collecting the node ids of failed tests."""

    def __init__(self):
        self.ids: list = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.ids.append(report.nodeid)


def _code_lines(code, qualname_of: dict) -> None:
    """Map each line of code and of the code objects inside it to the
    qualified name of the innermost one."""
    for _start, _end, line in code.co_lines():
        if line is not None and line > 0:
            qualname_of[line] = code.co_qualname
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            _code_lines(const, qualname_of)


def _sources() -> dict:
    """{path: source text} of every module of src/translab."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path) as fh:
                out[path] = fh.read()
    return out


def _executable(path: str, text: str) -> dict:
    """{line: enclosing qualname} for the lines of the source text of path
    that compile to bytecode."""
    code = compile(text, path, "exec")
    qualname_of: dict = {}
    _code_lines(code, qualname_of)
    return qualname_of


def _trace(args: list) -> tuple:
    """(pytest exit code, failed node ids, {path: executed lines}) of one
    traced run."""
    hits: dict = {}

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, _event, _arg):
        fn = frame.f_code.co_filename
        if not fn.startswith(SRC):
            return None
        hits.setdefault(fn, set()).add(frame.f_code.co_firstlineno)
        return local

    import pytest
    from hypothesis import settings

    settings.register_profile("coverage", derandomize=True, database=None)
    settings.load_profile("coverage")
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    failures = _Failures()
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args],
                             plugins=[failures])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), failures.ids, hits


def _unexecuted(hits: dict, sources: dict) -> Counter:
    keys: Counter = Counter()
    for path, text in sources.items():
        name = os.path.basename(path)
        lines = text.split("\n")
        ran = hits.get(path, set())
        for line, qualname in sorted(_executable(path, text).items()):
            if line not in ran:
                keys[f"{name}:{qualname}: {lines[line - 1].strip()}"] += 1
    return keys


def main(argv: list) -> int:
    update = "--update" in argv
    args = [a for a in argv if a != "--update"] or ["tests"]
    sources = _sources()
    status, failed, hits = _trace(args)
    for path, text in _sources().items():
        if sources.get(path) != text:
            print(f"note: {os.path.basename(path)} changed during the run; "
                  "its lines are keyed by the text read at the start")
    if status not in (0, 1) or set(failed) - WALL_CLOCK:
        print(f"pytest exited {status}; coverage not compared")
        return 2
    for nodeid in failed:
        print(f"note: {nodeid} failed its wall-clock bound under the tracer")
    missed = _unexecuted(hits, sources)
    print("note: tests that start a subprocess (python -O) are not traced")
    if update:
        with open(KNOWN, "w") as fh:
            fh.writelines(f"{k}\n" for k in sorted(missed.elements()))
        print(f"wrote {sum(missed.values())} unexecuted lines to {KNOWN}")
        return 0
    with open(KNOWN) as fh:
        known = Counter(line.rstrip("\n") for line in fh if line.strip())
    new, stale = missed - known, known - missed
    for k in sorted(new.elements()):
        print(f"NEW UNEXECUTED  {k}")
    for k in sorted(stale.elements()):
        print(f"NOW RUNS        {k}")
    print(f"{sum(missed.values())} unexecuted lines, {sum(new.values())} "
          f"new, {sum(stale.values())} in the list now run")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
