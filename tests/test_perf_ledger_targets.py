"""Every callable the perf ledger names still resolves.

``benchmarks/perf/perf_tracing.py`` wraps the callables listed in its
``TARGETS`` by ``module`` + ``Class.method`` name; the PR driver runs that
ledger on every change, and a renamed or moved target is a ``KeyError`` /
``AttributeError`` there. Tier-1 does not collect ``benchmarks/perf``, so
this test installs and removes the wrappers here (read-only: the module is
loaded by path, nothing under ``benchmarks/perf`` is touched).
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERF_TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "perf_tracing.py"


@pytest.fixture
def perf_tracing():
    if not PERF_TRACING.exists():
        pytest.skip("benchmarks/perf is not part of this checkout")
    name = "_tier1_perf_tracing"
    spec = importlib.util.spec_from_file_location(name, PERF_TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def resolve(target):
    """The callable a ledger row names, looked up the way the ledger does:
    on the class's (or module's) own ``__dict__``, not through inheritance."""
    namespace = vars(importlib.import_module(target.module))
    owner_name, _, attr = target.attr.rpartition(".")
    if owner_name:
        namespace = vars(namespace[owner_name])
    return namespace[attr]


def test_every_ledger_target_installs_and_is_restored(perf_tracing):
    originals = {}
    for target in perf_tracing.TARGETS:
        try:
            originals[target] = resolve(target)
        except (ImportError, KeyError) as exc:
            pytest.fail(f"ledger target {target.module}:{target.attr} no longer resolves: {exc!r}")
    recorder = perf_tracing.Recorder()
    recorder.install()
    try:
        patched = recorder.patched_attributes()
        wrapped = {id(original) for _, _, original in patched}
        missing = [
            f"{t.module}:{t.attr}" for t, original in originals.items()
            if id(original) not in wrapped
        ]
        assert not missing, f"ledger targets left unwrapped: {missing}"
        assert all(vars(holder)[attr] is not original for holder, attr, original in patched)
    finally:
        recorder.uninstall()
    assert all(vars(holder)[attr] is original for holder, attr, original in patched)
    assert recorder.patched_attributes() == []
    assert [resolve(target) for target in originals] == list(originals.values())
