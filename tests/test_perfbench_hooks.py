"""The repo benchmark's tracer (``perfbench/tracer.py``) wraps src
functions by the names their callers look up. Renaming or deleting one of
those names breaks the traced benchmark, so this test installs the tracer
against the current src and uninstalls it: every name must resolve, be
wrapped, and be put back as the identical object. ``perfbench/`` is only
read here."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_resolve_wrap_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    targets = [
        (tracer._resolve(path), attr)
        for _layer, path, attr in tracer.SPANNED + tracer.STEPPED
    ]
    targets.append((tracer._resolve("repro.snd.fast"), "select_transport_method"))
    before = [getattr(owner, attr) for owner, attr in targets]

    installed = tracer.Tracer().install()
    try:
        during = [getattr(owner, attr) for owner, attr in targets]
    finally:
        installed.uninstall()
    after = [getattr(owner, attr) for owner, attr in targets]

    for (owner, attr), old, wrapped, new in zip(targets, before, during, after):
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        assert wrapped is not old and wrapped.__wrapped__ is old, name
        assert new is old, name
