"""The benchmark's tracer wraps pipeline entry points by name; building it
here makes a renamed or deleted entry point fail the test suite rather
than a traced benchmark run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads
    tracer = tracing.Tracer(workloads)
    assert len(tracer._replace) > 0
    for module, name, original, wrapper in tracer._replace:
        assert getattr(module, name) is original
