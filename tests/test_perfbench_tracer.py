"""perfbench's tracer wraps ``repro`` entry points from outside ``src/``.

``perfbench/tracer.py`` names each one as an ``(owner, attribute)`` pair.
A pair that no longer resolves makes every traced run
(``perfbench/run.py --trace 1``) raise when it installs its ledger, so a
change that renames or deletes a wrapped name fails here first.  The test
only reads ``perfbench/``.
"""

from __future__ import annotations

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrapped_entry_point_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    entry_points = tracer._entry_points()
    assert entry_points
    missing = [
        name
        for name, owner, attribute, _hook in entry_points
        if not callable(getattr(owner, attribute, None))
    ]
    assert missing == []
