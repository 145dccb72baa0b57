"""List the lines of ``src/diskplex`` that no test runs: ``python tests/coverage.py``.

Line coverage from the standard library alone.  ``sys.settrace`` records
each line of ``src/diskplex`` that runs while pytest runs ``tests/`` in
this process.  A tracer does not follow a test into the subprocesses it
starts, and ``tests/test_demos.py`` runs the demos that way, so a second
pass runs each demo in this process; a line that only a demo reaches is
marked ``(subprocess only)``, such as ``DecreaseVerdict.render_lines``
through ``demos/05_width_surgery.py``.  The fresh interpreters of
``tests/test_startup.py`` are not followed.

A line is executable when its module's compiled code has an instruction
on it, less each function's first line, which runs in the enclosing
code.  The report lists the unexecuted lines file by file, then their
count.  Nothing is written inside the repository.  Tracing every line
takes about four times as long as tier-1, so this stays out of it, like
``tests/mutants.py``.
"""

from __future__ import annotations

import contextlib
import glob
import io
import os
import runpy
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "diskplex") + os.sep


def executable(path: str) -> set[int]:
    """The lines of ``path`` that its compiled code has an instruction on."""
    with open(path, encoding="utf-8") as fh:
        top = compile(fh.read(), path, "exec")
    lines, todo = set(), [top]
    while todo:
        code = todo.pop()
        lines |= {line for _, _, line in code.co_lines() if line and (code is top or line != code.co_firstlineno)}
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def traced(run) -> set[tuple[str, int]]:
    """The (file, line) pairs of ``src/diskplex`` that ``run()`` executes."""
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SRC) else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def run_tests() -> None:
    import pytest

    status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    if status != 0:
        raise SystemExit(f"tests/ failed (pytest exit status {status}); coverage not reported")


def run_demos() -> None:
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(path, run_name="__main__")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (os.path.join(ROOT, "src"),
                                                             os.environ.get("PYTHONPATH"))))
    os.chdir(ROOT)
    in_process = traced(run_tests)
    by_demo = traced(run_demos) - in_process
    missed = 0
    for path in sorted(glob.glob(SRC + "*.py")):
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        for line in sorted(executable(path)):
            if (path, line) in in_process:
                continue
            mark = "  (subprocess only)" if (path, line) in by_demo else ""
            missed += not mark
            print(f"{rel}:{line}: {source[line - 1].strip()}{mark}")
    print(f"{missed} executable lines run by no test")
    return 0


if __name__ == "__main__":
    sys.exit(main())
