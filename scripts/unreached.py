"""List the src/ statements that no tier-1 test executes.

    python3 scripts/unreached.py [PYTEST ARGS ...]

Runs the tier-1 suite in this process with a line tracer on every thread
(``sys.settrace`` and ``threading.settrace``) that records only frames of
files under ``src/krcrystals``.  Hypothesis runs with a fixed seed, no
example database and no deadline, so the result does not depend on the
run.  A statement is any ``ast`` statement except a docstring, a ``def``
or ``class`` header and an import; it counts as executed when one of its
own lines (the lines of its header, not of the statements nested in it)
that carries bytecode was executed.

Prints each statement no test executed as ``path:line: source`` and exits 1
if the suite failed, or if any such statement is left besides ``cli.py``'s
``sys.exit(main())`` under ``__main__``, which only a ``kr`` process runs.
Takes about five times as long as plain tier-1.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "krcrystals"
EXPECTED = {("cli.py", "sys.exit(main())")}
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _is_docstring(body, k):
    node = body[k]
    return (
        k == 0
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _nested(node):
    """The statement lists directly under a compound statement."""
    for field in ("body", "orelse", "finalbody"):
        yield getattr(node, field, [])
    for handler in getattr(node, "handlers", []):
        yield handler.body
    for case in getattr(node, "cases", []):
        yield case.body


def statements(tree):
    """(statement, its own lines) for every counted statement of a module."""
    out = []

    def visit(body, in_scope):
        for k, node in enumerate(body):
            inner = [stmt for block in _nested(node) for stmt in block]
            if not (isinstance(node, SKIPPED) or (in_scope and _is_docstring(body, k))):
                own = set(range(node.lineno, node.end_lineno + 1))
                for stmt in inner:
                    own -= set(range(stmt.lineno, stmt.end_lineno + 1))
                out.append((node, own))
            if inner:
                scope = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                for block in _nested(node):
                    visit(block, scope)

    visit(tree.body, True)
    return out


def code_lines(code):
    """Every line that carries bytecode in a code object and those nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def main(argv):
    hit = {}  # filename -> executed lines
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hit.setdefault(name, set()).add(frame.f_lineno)
        return local

    import pytest

    class Profile:
        @pytest.hookimpl(tryfirst=True)
        def pytest_configure(self, config):
            from hypothesis import settings  # imported late: pytest rewrites its plugin

            settings.register_profile("unreached", database=None, deadline=None)

    args = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
    args += ["--hypothesis-profile=unreached", *argv]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args, plugins=[Profile()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        live = code_lines(compile(source, str(path), "exec"))
        lines = source.splitlines()
        done = hit.get(str(path), set())
        for node, own in statements(ast.parse(source)):
            if own & live and not own & done:
                text = lines[node.lineno - 1].strip()
                missed.append((path.name, node.lineno, text))
    for name, line, text in missed:
        print(f"src/krcrystals/{name}:{line}: {text}")
    unexpected = [m for m in missed if (m[0], m[2]) not in EXPECTED]
    print(f"{len(missed)} unreached statements, {len(unexpected)} unexpected")
    return 1 if status or unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
