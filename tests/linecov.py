"""Per-test line tracer: a pytest plugin that lists the lines of
``src/labelflow`` that no test runs.

Standard library only. It is not a test module, so the suite does not
collect it; load it by name:

    PYTHONPATH=src python -m pytest -q -p tests.linecov tests flowbench/tests

At the end of the run it prints, per module, every line that holds a
bytecode instruction and was never reached, module-level lines included
(so the ``sys.exit(main())`` under ``if __name__ == "__main__"`` shows).
Tracing starts before the initial conftests import ``labelflow``.

Limits, each of which can make a line that a test does run read as
unreached:

- Tracing is per process and per thread: a test that runs the CLI in a
  subprocess, or code in another thread, is not traced.
- Hypothesis replaces the ``sys.settrace`` hook while it runs a property,
  which is why ``python -m trace`` under-counts. The plugin therefore
  reinstalls its hook at the start of every test phase (setup, call and
  teardown), not once.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "labelflow"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its code is on."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTracer:
    def __init__(self):
        self.reached = {str(p): set() for p in sorted(SRC.glob("*.py"))}
        self._files: dict[str, set | None] = {}  # co_filename -> its lines

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        try:
            lines = self._files[name]
        except KeyError:
            lines = self._files[name] = self.reached.get(os.path.realpath(name))
        if lines is None:
            return None
        # A function's first instruction sits on its ``def`` line, and
        # only this event reports it.
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def start(self):
        sys.settrace(self._call)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.start()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.start()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item):
        self.start()

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        write = terminalreporter.write_line
        terminalreporter.section("lines of src/labelflow no test reached")
        total = 0
        for name, reached in self.reached.items():
            missed = sorted(executable_lines(Path(name)) - reached)
            total += len(missed)
            if missed:
                write(f"{Path(name).name}: {', '.join(map(str, missed))}")
        write(f"{total} lines")


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config):
    tracer = LineTracer()
    early_config.pluginmanager.register(tracer, "linecov-tracer")
    tracer.start()
