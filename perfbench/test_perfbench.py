"""Tests of the benchmark itself: span arithmetic, percentiles, failure
counting, patching and restoring, and a tiny-shape run of each workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from tracing import Target, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Run  # noqa: E402


def span(span_id, parent, name, start, end):
    return (span_id, parent, name, start, end)


# -- self time ----------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        span(0, -1, "a", 0, 100),
        span(1, 0, "b", 10, 30),
        span(2, 1, "d", 15, 20),
        span(3, 0, "c", 40, 60),
    ]
    assert self_times(spans) == {0: 60, 1: 15, 2: 5, 3: 20}


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, -1, "a", 0, 100),
        span(1, 0, "b", 10, 50),
        span(2, 0, "c", 30, 70),  # overlaps b by 20
        span(3, 0, "e", 90, 120),  # runs past its parent: clipped to 10
    ]
    assert self_times(spans)[0] == 100 - 60 - 10


def test_busy_time_of_a_recursive_name_is_its_union():
    spans = [span(0, -1, "f", 0, 100), span(1, 0, "f", 10, 30), span(2, -1, "g", 200, 250)]
    out = layer_metrics(spans, ["f", "g", "h"])
    assert out["f.s"] == pytest.approx(100e-9)
    assert out["f.self_s"] == pytest.approx(100e-9)  # 80 outer + 20 inner
    assert out["g.s"] == pytest.approx(50e-9)
    assert out["h.s"] == 0 and out["h.self_s"] == 0


# -- percentiles and failures -----------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert stats.tail_percentile(10) is None
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10_000) == 99.9
    assert stats.tail_percentile(100_000) == 99.99


def test_latency_summary_reports_median_tail_and_count():
    summary = stats.latency_summary(list(range(1000, 0, -1)))
    assert summary == {"count": 1000, "p50": 500.5, "tail_pct": 99.0, "tail": 990}
    short = stats.latency_summary([3.0, 1.0, 2.0])
    assert short == {"count": 3, "p50": 2.0, "tail_pct": None, "tail": None}


def test_fail_ratio_counts_operations_not_problems():
    run = Run(root=ROOT, workdir=ROOT, workload="x", seed=0, seconds=1, trace=False,
              shape={}, deadline=0.0)
    first = run.op([], "step one")
    run.op(["exit code 2", "error:data: bad"], "step two")  # one failed operation
    run.op([], "step three")
    run.fail(first, ["output out of range"], "step one")
    run.fail(first, ["another problem"], "step one")
    assert (run.attempted, run.failed, len(run.failures)) == (3, 2, 4)
    assert stats.fail_ratio(run.failed, run.attempted) == pytest.approx(2 / 3)
    assert stats.fail_ratio(0, 5) == 0.0
    with pytest.raises(ValueError):
        stats.fail_ratio(0, 0)


def test_a_run_measures_whole_units_only():
    import time

    from workloads import _room_for_another

    run = Run(root=ROOT, workdir=ROOT, workload="x", seed=0, seconds=60, trace=False,
              shape={}, deadline=0.0)
    start = time.perf_counter()
    assert _room_for_another(run, start, [])
    assert _room_for_another(run, start - 1.0, [1.0])
    assert not _room_for_another(run, start - 31.0, [31.0])  # the next would end past 60 s
    assert not _room_for_another(run, start - 59.5, [1.0])


# -- patching -----------------------------------------------------------------


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.core defines the functions; fakepkg.user imports them by
    name, the way the demandrec modules do."""
    core = types.ModuleType("fakepkg.core")

    def work(x):
        return x + 1

    class Index:
        def query(self, x):
            return 2 * x

    def factor(a):
        return core.np.linalg.qr(a)

    core.work, core.Index, core.factor, core.np = work, Index, factor, np
    user = types.ModuleType("fakepkg.user")
    user.work = work

    def outer(x):
        return user.work(x) + Index().query(x)

    user.outer = outer
    pkg = types.ModuleType("fakepkg")
    pkg.work = work
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return pkg, core, user


def test_install_wraps_every_binding_and_restore_puts_originals_back(fake_package):
    pkg, core, user = fake_package
    originals = (core.work, core.Index.query, core.Index.__init__, user.outer, core.np)
    ticks = iter(range(0, 10_000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.install([
        Target("core.work", "fakepkg.core", "work"),
        Target("core.Index.query", "fakepkg.core", "Index.query", count_only=True),
        Target("user.outer", "fakepkg.user", "outer"),
        Target("utility.qr", "fakepkg.core", "np.linalg.qr"),
        Target("core.gone", "fakepkg.core", "gone"),
        Target("missing.mod", "fakepkg.missing", "anything"),
    ])
    assert pkg.work is user.work is core.work is not originals[0]
    assert user.outer(1) == 4
    core.factor(np.eye(3))
    assert tracer.counts == {"core.work.calls": 1, "core.Index.query.calls": 1,
                             "user.outer.calls": 1, "utility.qr.calls": 1}
    assert tracer.absent == ["core.gone", "missing.mod"]
    spans = tracer.finished_spans()
    names = {s[2]: s for s in spans}
    assert names["core.work"][1] == names["user.outer"][0]  # parent link
    assert "core.Index.query" not in names  # counted, not spanned
    tracer.restore()
    assert (core.work, core.Index.query, core.Index.__init__, user.outer, core.np) == originals
    assert pkg.work is user.work is originals[0]
    assert core.np is np


def test_hooks_derive_step_counts():
    tracer = Tracer()
    step = tracer.wrap("utility.gradient_step", lambda *a, gamma=None: None,
                       hook=tracing._GradientStepHook())

    def update_x(gammas):
        for gamma in gammas:
            step(None, None, None, gamma=gamma)
        return types.SimpleNamespace(rank=4)

    update = tracer.wrap("utility.update_X", update_x, hook=tracing._UpdateXHook())
    update([1.0, 0.5, 0.5, 0.25, 0.25, 0.25])
    assert tracer.counts["utility.update_X.halvings"] == 2
    assert tracer.counts["utility.update_X.accepted"] == 4
    assert tracer.values["utility.rank"] == 4
    metrics = tracer.metrics(1.0, 1.5)
    assert metrics["utility.update_X.accept_ratio"] == pytest.approx(4 / 6)
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)


def test_every_demandrec_target_is_found_and_restored():
    import demandrec
    import demandrec.cli
    from demandrec import data, utility

    before = (demandrec.cli.ingest_purchases, data.RecencyIndex.query, utility.np,
              demandrec.fit)
    tracer = Tracer()
    tracer.install(tracing.TARGETS)
    try:
        assert tracer.absent == []
        assert demandrec.cli.ingest_purchases is not before[0]
        assert data.RecencyIndex.query is not before[1]
        assert utility.np is not before[2]
        assert demandrec.fit is not before[3]
    finally:
        tracer.restore()
    after = (demandrec.cli.ingest_purchases, data.RecencyIndex.query, utility.np,
             demandrec.fit)
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    layer = tracing.per_layer_spec()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layer
    assert [w["name"] for w in spec["workloads"]] == ["cli_chain", "solver_4m", "serve_topn"]


# -- runs -----------------------------------------------------------------------


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["cli_chain", "solver_4m", "serve_topn"])
def test_tiny_run(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.absent"]["value"] == 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "cli_chain", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
