"""The benchmark tracer resolves every binding it wraps.

perfbench/tracing.py wraps hamfp's functions at the modules that import
them, and its constructor raises if one of those names is missing or bound
to another object. Constructing it installs nothing.
"""

import importlib
import sys
from pathlib import Path

import hamfp.cli
import hamfp.localize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer(0)
    assert len(tracer.bindings) == sum(len(s) for s in tracing.SITES.values())
    assert hamfp.cli.chern_number is hamfp.localize.chern_number
