"""The line-trace runner in ``tools/`` lists exactly the statements that did not run."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("line_trace", ROOT / "tools" / "line_trace.py")
line_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_trace)

PROBE = '''"""Module docstring."""


@staticmethod
def decorated():
    return 0


def verdict(x):
    """Docstring."""
    if x:
        return 1
    return None
'''


def test_runner_lists_the_statements_that_never_ran(tmp_path, monkeypatch):
    (tmp_path / "line_trace_probe.py").write_text(PROBE)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "line_trace_probe", raising=False)
    result, hits = line_trace.traced(
        lambda: importlib.import_module("line_trace_probe").verdict(1), str(tmp_path))
    assert result == 1
    total, missed = line_trace.unexecuted(tmp_path, hits)
    # the two defs and their bodies, without the docstrings
    assert total == 6
    assert [(r["line"], r["scope"], r["source"]) for r in missed] == [
        (6, "decorated", "return 0"),
        (13, "verdict", "return None"),
    ]
    assert all(r["file"].endswith("/line_trace_probe.py") for r in missed)
    json.dumps(missed)  # the runner writes these records as JSON
