"""The benchmark's traced run can wrap every entry point it names, and undo it.

`perfbench/tracing.py` patches methods and module functions of the package by
name.  Entering `Spans` fails if one of those names is gone, so renaming a
traced entry point fails here and not only in a traced benchmark run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_spans_wrap_every_entry_point_and_restore_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    spans = tracing.Spans()
    with spans:
        patched = list(spans._patches)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, attr
    assert spans._patches == []
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr
