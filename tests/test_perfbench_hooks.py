"""The benchmark's hooks into greenchain still resolve.

perfbench imports greenchain names and its tracer wraps others by
attribute name, so a rename under ``src/`` would otherwise surface only
in a benchmark run.  Nothing here runs a workload.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_and_tracer_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads  # noqa: F401  (imports every greenchain name the workloads use)

    tracer = spans.Tracer()
    patched = []
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
