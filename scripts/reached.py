"""List the statements of the subdifferential calculus that no pinned run reaches.

Usage, from anywhere:

    python3 scripts/reached.py

In one interpreter, with this tree's ``src`` on the path, the script runs
``nsvar.cli.run`` on every run of ``scripts/compare_runs.py`` (the
built-ins, each benchmark pool member and ``EXTRA``), under a line
tracer that follows only frames of ``src/nsvar``.  The calculus is every
function of ``nsvar.integrand`` that takes a node rule's ``node`` and
``out`` (the rules of the rule tables and the wrappers the passes put
around them), the chain rules of ``_SD_CHAIN``, every function of the
module that one of these names, transitively, and the functions they
build.  The script prints each line of ``integrand.py`` that holds a
statement or a lambda of the calculus that no run executed, as
``integrand.py:LINE: source``, and exits 1 if there is any.  Error paths
are left out: ``raise`` statements, and every statement of a block that
ends in one.  A compound statement counts as executed when its header
is.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import sys
import types
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from nsvar import cli, integrand  # noqa: E402

def _codes(code: types.CodeType) -> list:
    """code and the code objects nested in it."""
    found, stack = [], [code]
    while stack:
        found.append(stack.pop())
        stack += [c for c in found[-1].co_consts if isinstance(c, types.CodeType)]
    return found


def _calculus() -> set:
    """The names of the calculus's module-level functions: those that take
    a node rule's node and out, the chain rules, and every function of
    integrand that one of these names, transitively."""
    functions = {name: f for name, f in vars(integrand).items()
                 if isinstance(f, types.FunctionType)
                 and f.__module__ == integrand.__name__}
    names = {f.__name__ for f in integrand._SD_CHAIN.values()}
    names |= {name for name, f in functions.items() if {"node", "out"}
              <= set(f.__code__.co_varnames[:f.__code__.co_argcount])}
    stack = list(names)
    while stack:
        for code in _codes(functions[stack.pop()].__code__):
            new = functions.keys() & set(code.co_names) - names
            names |= new
            stack += new
    return names


def _statements(tree: ast.Module, names: set) -> list:
    """(first line, last line) of every statement in the named functions
    and the functions nested in them: a compound statement's header only,
    without docstrings, error paths or global declarations."""
    spans = []

    def visit(body: list) -> None:
        if isinstance(body[-1], ast.Raise):    # an error path
            return
        for i, stmt in enumerate(body):
            docstring = (i == 0 and isinstance(stmt, ast.Expr)
                         and isinstance(stmt.value, ast.Constant))
            # declarations run no code
            if docstring or isinstance(stmt, (ast.Global, ast.Nonlocal)):
                continue
            inner = [b for b in (getattr(stmt, "body", None),
                                 getattr(stmt, "orelse", None)) if b]
            end = inner[0][0].lineno - 1 if inner else stmt.end_lineno
            spans.append((stmt.lineno, max(stmt.lineno, end)))
            for b in inner:
                visit(b)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            visit(node.body)
    return spans


def _lambdas(names: set) -> list:
    """The code objects of the lambdas in the named functions."""
    return [c for name in names for c in _codes(getattr(integrand, name).__code__)
            if c.co_name == "<lambda>"]


def _runs(scratch: Path) -> list:
    path = ROOT / "scripts" / "compare_runs.py"
    spec = importlib.util.spec_from_file_location("_compare_runs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._runs(scratch)


def main() -> int:
    package = str(SRC / "nsvar")
    events: set = set()     # (code, line) of every line executed in nsvar

    def local(frame, event, arg):
        if event == "line":
            events.add((frame.f_code, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        for i, (label, args) in enumerate(_runs(scratch)):
            with contextlib.redirect_stdout(io.StringIO()):
                sys.settrace(call)
                try:
                    code = cli.run(["solve", *args, "--out", str(scratch / str(i))])
                finally:
                    sys.settrace(None)
            print(f"{label}: exit {code}", flush=True)

    source_path = Path(integrand.__file__)
    lines = source_path.read_text().splitlines()
    names = _calculus()
    here = {line for code, line in events if code.co_filename == str(source_path)}
    missed = {first for first, last in _statements(ast.parse("\n".join(lines)), names)
              if not here.intersection(range(first, last + 1))}
    ran = {code for code, _ in events}
    missed |= {c.co_firstlineno for c in _lambdas(names) if c not in ran}
    for line in sorted(missed):
        print(f"{source_path.name}:{line}: {lines[line - 1].strip()}")
    print(f"{len(missed)} lines of the calculus hold a statement or"
          " lambda that no run reaches")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
