"""The benchmark reaches into the pipeline by name: its tracer wraps entry
points, and its checks read the objects the operations return.  Building
the tracer and running every workload once here makes a renamed entry
point or a changed output fail the test suite rather than a benchmark run."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads
    tracer = tracing.Tracer(workloads)
    assert len(tracer._replace) > 0
    for module, name, original, wrapper in tracer._replace:
        assert getattr(module, name) is original


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_passes_its_checks_at_tiny_size(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    w = workloads.WORKLOADS[name]
    n, n_coarse = w.tiny
    inp = workloads.prepare(w.domain(n), 1, tmp_path / "input.msh")
    out = w.operation(inp, tmp_path)
    w.check(inp, out)
    if n_coarse is not None:
        coarse = workloads.prepare(w.domain(n_coarse), 1, tmp_path / "coarse.msh")
        workloads.check_constant_and_order(out, coarse, tmp_path)
