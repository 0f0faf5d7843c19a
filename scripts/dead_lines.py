#!/usr/bin/env python3
"""List the statements of src/kjump that a pytest run never executes.

Runs pytest in this process under a `sys.settrace` line tracer that follows
only frames whose code lives in src/kjump, then prints, module by module,
every statement (found with `ast`, first line shown) none of whose own
lines ran. A statement's own lines are its whole span for a simple
statement and its header (decorators included) for a compound one; only
lines that compile to bytecode count, so docstrings and `global` never
show. Needs no coverage package. Code run in a subprocess (the CLI tests
that spawn `python -m kjump.cli`) is not seen, and tests with a time bound
may fail under the tracer's slowdown: the report is printed whatever
pytest's outcome, with its exit status last.

Usage: python3 scripts/dead_lines.py [pytest arguments]
       (default: tests --ignore=tests/test_acceptance.py -q)
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "kjump") + os.sep


def _code_lines(code):
    """Lines that carry bytecode in code and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path):
    """(first line, own lines) of each statement of the module at path."""
    with open(path) as fh:
        source = fh.read()
    tree = ast.parse(source, path)
    has_code = _code_lines(compile(source, path, "exec"))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        children = [
            c.lineno for field in ("body", "orelse", "handlers", "finalbody", "cases")
            for c in getattr(node, field, ()) if hasattr(c, "lineno")
        ]
        first = min([d.lineno for d in getattr(node, "decorator_list", ())] + [node.lineno])
        stop = min(children) if children else node.end_lineno + 1
        own = set(range(first, stop)) & has_code
        if own:
            out.append((node.lineno, own))
    return sorted(out)


def main():
    import pytest

    args = sys.argv[1:] or [
        os.path.join(ROOT, "tests"),
        "--ignore=" + os.path.join(ROOT, "tests", "test_acceptance.py"),
        "-q",
    ]
    ran = {}  # file -> set of lines that ran

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PKG):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PKG, name)
        with open(path) as fh:
            text = fh.read().splitlines()
        seen = ran.get(path, set())
        for lineno, own in _statements(path):
            if not own & seen:
                total += 1
                print(f"src/kjump/{name}:{lineno}: {text[lineno - 1].strip()}")
    print(f"{total} statements never ran; pytest exit status {int(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
