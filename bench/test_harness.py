"""Tests of the benchmark harness itself.

    python3 -m pytest bench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(entries):
    return [(m["name"], m["unit"], m["better"]) for m in entries]


def test_declared_metrics_match_benchmark_json():
    assert _declared(SPEC["end_to_end"]) == run.END_TO_END
    assert _declared(SPEC["per_layer"]) == layers.PER_LAYER


def test_workloads_match_benchmark_json():
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _span(sid, parent, name, c0, c1):
    return Span(sid, parent, name, 1, c0, c1, c0, c1)


def test_self_times_subtract_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]; c holds a
    # nested a [6, 8], which holds d [6.5, 7]
    spans = [
        _span(4, 2, "d", 2.0, 3.0),
        _span(2, 1, "b", 1.0, 4.0),
        _span(7, 6, "d", 6.5, 7.0),
        _span(6, 3, "a", 6.0, 8.0),
        _span(3, 1, "c", 5.0, 9.0),
        _span(1, 0, "a", 0.0, 10.0),
    ]
    got = self_times(spans)
    assert got["a"] == (2, pytest.approx((10 - 3 - 4) + (2 - 0.5)))
    assert got["b"] == (1, pytest.approx(3 - 1))
    assert got["c"] == (1, pytest.approx(4 - 2))
    assert got["d"] == (2, pytest.approx(1 + 0.5))
    total = sum(t for _n, t in got.values())
    assert total == pytest.approx(10.0)  # self times partition the root span


def test_per_layer_averages_passes_and_adds_setup():
    setup = [_span(1, 0, "catalog.get_model", 0.0, 2.0)]
    work = [
        _span(2, 0, "dynamics.integrate", 0.0, 4.0),
        _span(3, 2, "dynamics.ModelInstance.rhs", 1.0, 2.0),
        _span(4, 0, "dynamics.integrate", 0.0, 6.0),
        _span(5, 4, "dynamics.ModelInstance.rhs", 1.0, 4.0),
        _span(6, 5, "expr.is_zero", 1.0, 2.0),
    ]
    got = layers.per_layer(setup, work, 2, (30.0, 2.0), {"IX": 1.5}, 12.0)
    assert [name for name, _u, _b in layers.PER_LAYER] == list(got)
    assert got["catalog.get_model_s"] == pytest.approx(2.0)
    assert got["dynamics.rhs_calls"] == pytest.approx(1.0)
    assert got["dynamics.rhs_us"] == pytest.approx((1.0 + 2.0) / 2 * 1e6)
    assert got["expr.is_zero_calls"] == pytest.approx(0.5)
    assert got["dynamics.steps_per_s"] == pytest.approx(32.0 / 5.0)
    assert got["cli.run_verification.IX_s"] == 1.5
    assert got["cli.verify_serial_s"] == 1.5
    assert got["trace.overhead_pct"] == 12.0


def test_tracer_wraps_every_binding_and_restores_it():
    import types

    def g(x):
        return x * 2

    owner, alias = types.ModuleType("owner"), types.ModuleType("alias")
    owner.g, alias.helper = g, g
    tracer = Tracer([owner, alias])
    tracer.trace_function(g, "owner.g")
    assert owner.g is not g and alias.helper is not g
    assert alias.helper(3) == 6 and owner.g(1) == 2
    tracer.uninstall()
    assert owner.g is g and alias.helper is g
    assert [s.name for s in tracer.spans] == ["owner.g", "owner.g"]
    assert all(s.parent == 0 for s in tracer.spans)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace,declared", [("0", run.END_TO_END), ("1", layers.PER_LAYER)])
def test_printed_metrics_match_benchmark_json(trace, declared):
    proc = _run("--workload", "solve-errata", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] % 16 == 0 and result["attempted"] > 0
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert printed == [(name, unit) for name, unit, _better in declared]


def test_refuses_a_tree_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = _run("--workload", "conserve", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
