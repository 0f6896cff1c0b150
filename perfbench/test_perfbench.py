"""Tests of the benchmark's own code: the self-time arithmetic on synthetic
spans, the shims, and one round of the timing loop on a miniature workload.

Run from the repository root with ``python -m pytest perfbench``.  The
one-trial smoke run of the four real workloads takes about 25 s on two cores
and is kept out of the test suite: run it with
``python3 perfbench/run.py --smoke``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import bench  # noqa: E402
import hostclock  # noqa: E402
from hypergraph_spectra import metrics  # noqa: E402
from hypergraph_spectra.spectra import EmpiricalMeasure  # noqa: E402
from spans import (  # noqa: E402
    Span,
    Tracer,
    check_self_time_sums,
    run_summary,
    self_times,
    union_length,
)


def span(sid, name, start, end, parent=None, thread=1, run=1):
    return Span(sid, name, float(start), float(end), parent, thread, run)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)


def test_self_times_of_nested_spans_on_one_thread():
    spans = [
        span(1, "experiments.run_experiment", 0, 10),
        span(2, "gham.sample_surrogate", 1, 4, parent=1),
        span(3, "spectra.eigensolve", 2, 3, parent=2),
        span(4, "metrics.ks_distance", 5, 9, parent=1),
    ]
    assert self_times(spans) == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    assert check_self_time_sums(spans) == []
    summary = run_summary(spans, {}, threads=1)
    assert summary["main_thread_self_s"] == 10.0
    assert summary["pool_busy_ratio"] == pytest.approx(7.0 / 10.0)
    assert summary["shares"]["metrics.ks_distance"] == pytest.approx(0.4)


def test_self_times_of_two_pool_threads():
    # run_experiment on thread 1 waits while threads 2 and 3 run trials; their
    # spans are its children but do not reduce its self time
    spans = [
        span(1, "experiments.run_experiment", 0, 10, thread=1),
        span(2, "gham.sample_surrogate", 1, 6, parent=1, thread=2),
        span(3, "spectra.eigensolve", 2, 5, parent=2, thread=2),
        span(4, "spectra.eigensolve", 1, 8, parent=1, thread=3),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 10.0, 2: 2.0, 3: 3.0, 4: 7.0}
    # summed self time exceeds the wall time; per thread it adds up
    assert sum(selfs.values()) == 22.0
    assert check_self_time_sums(spans) == []
    summary = run_summary(spans, {}, threads=2)
    assert summary["main_thread_self_s"] == 10.0
    assert summary["self_s"]["spectra.eigensolve"] == 10.0
    assert summary["shares"]["spectra.eigensolve"] == pytest.approx(10.0 / 20.0)
    assert summary["pool_busy_ratio"] == pytest.approx((5.0 + 7.0) / 20.0)


def test_overlapping_spans_on_one_thread_are_reported():
    spans = [span(1, "a", 0, 5), span(2, "b", 3, 8)]
    assert len(check_self_time_sums(spans)) == 1


def test_shims_record_nesting_and_are_removed():
    original = metrics.bl_upper_bound
    a = EmpiricalMeasure(np.array([0.0, 1.0, 2.0]))
    b = EmpiricalMeasure(np.array([0.5, 1.5]))
    tracer = Tracer()
    with tracer.installed():
        assert metrics.bl_upper_bound is not original
        value = metrics.bl_upper_bound(a, b)
    assert metrics.bl_upper_bound is original
    assert value == original(a, b)
    by_name = {s.name: s for s in tracer.spans}
    outer = by_name["metrics.bl_upper_bound"]
    assert outer.parent is None
    assert by_name["metrics.w1_distance"].parent == outer.id
    assert by_name["metrics.ks_distance"].parent == outer.id
    assert check_self_time_sums(tracer.spans) == []


def test_layer_metrics_cover_the_per_layer_spec():
    summary = run_summary([span(1, "experiments.run_experiment", 0, 1)], {}, threads=1)
    names = set(bench.layer_metrics(summary, "bulk"))
    names |= {"experiments.persist_bytes", "trace.overhead_s"}
    names |= {"cli.import_numpy_s", "cli.import_scipy_stats_s", "cli.import_package_s"}
    assert names == {m["name"] for m in bench.load_spec()["per_layer"]}


def test_one_round_of_a_small_workload_through_shims_and_gate(tmp_path):
    # a two-thread Bernoulli bulk run small enough to take well under a
    # second: warm-up, untraced and traced experiment, staged set-up
    small = bench.Workload(
        "small",
        dict(kind="bulk", ensemble="bernoulli_hypergraph", n=40, r=3, p=0.5,
             trials=2, threads=2, tolerance=0.5),
        seed=1, held_out_seed=2, host_kernels=("py",),
    )
    result = bench.measure(small, small.seed, 0, True, tmp_path, min_rounds=1)
    assert result["gate"].problems == []
    assert result["gate"].attempted == 3
    assert len(result["host"]) == 2 and set(result["host"][0]) == {"py"}
    values, _, _ = bench.metric_values(result, trace=True)
    assert bench.missing_metrics(values, bench.load_spec(), trace=True) == []
    assert values["combinatorics.sample_hypergraph.calls"] == 2
    assert values["spectra.eigensolve.calls"] == 2
    assert values["laws.free_additive_convolution.calls"] == 0


def test_end_to_end_timings_are_rescaled_by_the_host_slowdown_around_each_round():
    ref = hostclock.REFERENCE_S

    def host(py, blas):  # a host-clock sample at the given slowdowns
        return {"py": [py * ref["py"]["wall"], py * ref["py"]["cpu"]],
                "blas": [blas * ref["blas"]["wall"], blas * ref["blas"]["cpu"]]}

    # rounds 1-3 lie between samples at slowdowns (py, blas) of 1/1, 1/3, 3/3, 3/5
    samples = [host(1, 1), host(1, 3), host(3, 3), host(3, 5)]
    untraced = [(r, bench.Sample(wall_s=w, cpu_s=2 * w, persist_bytes=1, fingerprint=""))
                for r, w in ((1, 2.0), (2, 9.0), (3, 8.0))]
    result = {"setup": {"setup_s": [2.0, 6.0]}, "setup_rounds": [1, 3], "untraced": untraced,
              "host": samples, "host_kernels": ("blas",), "peak_rss_mb": 100.0}
    values, raw, counts = bench.metric_values(result, trace=False)
    assert raw == {"setup_s": 4.0, "experiment_s": 8.0, "cpu_s": 16.0}
    # experiment: 2/2, 9/3, 8/4; set-up (py kernel): 2/1, 6/3
    assert values == {"setup_s": 2.0, "experiment_s": 2.0, "cpu_s": 4.0, "peak_rss_mb": 100.0}
    assert counts == {"setup_s": 2, "experiment_s": 3, "cpu_s": 3}


def test_host_clock_child_is_stopped():
    with hostclock.HostClock(("py",)) as clock:
        clock.sample()
        proc = clock._proc
    assert proc.poll() == 0
    assert len(clock.samples) == 1 and clock.samples[0]["py"][0] > 0
