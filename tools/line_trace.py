"""The lines of src/vmlkit that no tier-1 test runs, from a line tracer.

    python tools/line_trace.py [PYTEST_ARGS...]

Run from anywhere; PYTEST_ARGS go to pytest after the suite's own (for
example ``-x`` or ``tests/test_landau.py``, which then narrows the run).
``sys.settrace`` and ``threading.settrace`` are installed before vmlkit
is imported, so module-level lines count, and the suite runs in this
process.  The tracer records only frames whose code lies in src/vmlkit;
Python 3.11 has no ``sys.monitoring``, and no coverage package is needed.

The tests that measure memory with tracemalloc (``traced_memory``,
``memory_bounded``) are deselected and named in the output: the tracer's
own set of hit lines grows inside their traced window, so under it
``test_direct_step_traced_memory[16-8]`` exceeds its bound from the
tracer's allocations, not from a fault of the program.

A line counts as code when an instruction of the compiled module maps to
it.  The output names, per module, each line of code that never ran and
is not in ``ALLOWED`` (matched by its function and its stripped text, each
with a reason), then the allowlist entries that matched nothing.  Code run only in a
subprocess that a test starts (``tests/test_imports.py``'s fresh
interpreters, the benchmark self-test) is not seen.  Exit status: 0 when
the suite passed and every line ran or is allowed, 1 otherwise.  The
tracer makes the suite about 1.2x slower (102-108 s against 88-89 s on a
2-vCPU VM, the tracemalloc tests aside).
"""

from __future__ import annotations

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "vmlkit")
DESELECT = ("traced_memory", "memory_bounded")

_REREAD = ("_key_line_numbers re-reads a file that load_config_file has just read, "
           "so its OSError needs the file to vanish in between")

# (module file, qualified name of the function or class, stripped line
# text): why no test runs the line
ALLOWED = {
    ("cli.py", "<module>", "sys.exit(main())"):
        "the console script calls main(); the module runs as a script only by hand",
    ("cli.py", "_key_line_numbers", "except OSError:"): _REREAD,
    ("cli.py", "_key_line_numbers", "pass"): _REREAD,
}


def code_lines(path: str) -> dict:
    """{line: qualified name of its innermost code} over the lines an instruction maps to."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = {}
    while stack:
        code = stack.pop()
        lines.update((line, code.co_qualname) for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def install() -> dict:
    """Trace every thread from now on; returns {code file name: set of lines run}."""
    hits, ours = {}, {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = os.path.dirname(os.path.realpath(name)) == PACKAGE
            if mine:
                hits[name] = set()
        if not mine:
            return None
        hits[name].add(frame.f_lineno)
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    return hits


class Deselected:
    """A pytest plugin that keeps the ids of the deselected tests."""

    def __init__(self):
        self.ids: list = []

    def pytest_deselected(self, items):
        self.ids += [item.nodeid for item in items]


def report(hits: dict) -> int:
    """Print the unexecuted lines past the allowlist; returns their number."""
    run = {}
    for name, lines in hits.items():
        run.setdefault(os.path.realpath(name), set()).update(lines)
    missing, used = 0, set()
    for module in sorted(os.listdir(PACKAGE)):
        if not module.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, module)
        with open(path) as fh:
            text = fh.read().splitlines()
        left, owner = [], code_lines(path)
        for line in sorted(set(owner) - run.get(path, set())):
            key = (module, owner[line], text[line - 1].strip())
            if key in ALLOWED:
                used.add(key)
            else:
                left.append(line)
        missing += len(left)
        print(f"{module}: {len(left)} unexecuted")
        for line in left:
            print(f"  {line}: {text[line - 1].strip()}")
    for key in sorted(set(ALLOWED) - used):
        print(f"allowlist entry matched no unexecuted line: {key}")
    return missing


def main(argv: list) -> int:
    sys.path.insert(0, os.path.dirname(PACKAGE))
    hits = install()
    import pytest

    deselected = Deselected()
    os.chdir(ROOT)
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                          "-k", " and ".join(f"not {name}" for name in DESELECT)] + argv,
                         plugins=[deselected])
    sys.settrace(None)
    threading.settrace(None)
    print(f"deselected ({len(deselected.ids)}), as tracemalloc tests:")
    for nodeid in deselected.ids:
        print(f"  {nodeid}")
    missing = report(hits)
    return 0 if status == 0 and missing == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
