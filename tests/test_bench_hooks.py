"""The benchmark's traced run rebinds relfix functions by name
(bench/tracing.py), so every name it lists must exist in relfix."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_name_existing_relfix_functions():
    tracing = _load_tracing()
    targets = [(m, a) for m, a, _, _ in tracing.TARGETS]
    generators = [(m, a) for m, a, _ in tracing.GENERATORS]

    def lookup(module, attr):
        return getattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"), attr, None)

    assert [f"{m}.{a}" for m, a in targets if not callable(lookup(m, a))] == []
    assert [
        f"{m}.{a}" for m, a in generators if not inspect.isgeneratorfunction(lookup(m, a))
    ] == []

    originals = {(m, a): lookup(m, a) for m, a in targets + generators}
    tracer = tracing.Tracer("hooks")
    tracer.install()
    try:
        unwrapped = [f"{m}.{a}" for (m, a), fn in originals.items() if lookup(m, a) is fn]
    finally:
        tracer.restore()
    assert unwrapped == []
    assert all(lookup(m, a) is fn for (m, a), fn in originals.items())
