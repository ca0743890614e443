"""List the statements of ``src/ncsym`` that a pytest run never executes.

Runs pytest in this process under a ``sys.settrace`` line hook (also set
for new threads) and writes JSON: the pytest exit code, the number of
statements, and one record per statement that never ran, with its file,
line, enclosing function and source line.  A statement counts as run when
its first line, or the line of one of its decorators, fires a line event.
Docstrings are not statements here.  Child processes are not traced.

    PYTHONPATH=src python3 tools/line_trace.py --out unexecuted.json
    PYTHONPATH=src python3 tools/line_trace.py tests/test_solver.py -k witness

Arguments other than ``--out`` go to pytest (default: ``tests``).  The
exit code is pytest's, or 2 when a package source changed during the run.
The full suite runs about twice as slowly under the hook, so it is not a
test itself, and its file name keeps pytest from collecting it.  Besides
pytest it needs only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ncsym"


def statements(source: str) -> dict:
    """{line: (scope, lines that run it)} for each statement of a module's
    source, where scope is the qualified name of the enclosing function or
    class ('' at module level)."""
    tree = ast.parse(source)
    out = {}

    def visit(body: list, scope: str) -> None:
        for k, node in enumerate(body):
            if not isinstance(node, ast.stmt):
                continue
            docstring = (k == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if not docstring:
                lines = {node.lineno}
                lines.update(d.lineno for d in getattr(node, "decorator_list", ()))
                out[node.lineno] = (scope, lines)
            inner = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{node.name}" if scope else node.name
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), inner)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner)
            for case in getattr(node, "cases", []):
                visit(case.body, inner)

    visit(tree.body, "")
    return out


def traced(run, prefix: str) -> tuple[object, set]:
    """run() under a line hook; its result and the (file, line) pairs hit
    in files whose path starts with prefix."""
    hits: set = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    outer = sys.gettrace(), threading.gettrace()
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        result = run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return result, hits


def unexecuted(package: Path, hits: set) -> tuple[int, list]:
    """Statement count of the package's modules and a record for each
    statement whose lines were never hit."""
    total, missed = 0, []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line, (scope, lines) in sorted(statements(source).items()):
            total += 1
            if not any((str(path), hit) in hits for hit in lines):
                missed.append({"file": path.relative_to(package.parents[1]).as_posix(),
                               "line": line, "scope": scope, "source": text[line - 1].strip()})
    return total, missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args, pytest_args = parser.parse_known_args(argv)
    import pytest

    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    # child processes the tests start import the same package
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    sources = {path: path.read_bytes() for path in PACKAGE.glob("*.py")}
    code, hits = traced(lambda: pytest.main(pytest_args or ["tests"]), str(PACKAGE))
    if any(path.read_bytes() != text for path, text in sources.items()):
        # the line numbers hit are those of the sources the run imported
        print("error: src/ncsym changed during the run; run again", file=sys.stderr)
        return 2
    total, missed = unexecuted(PACKAGE, hits)
    report = json.dumps({"pytest_exit": int(code), "statements": total,
                         "unexecuted": missed}, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
