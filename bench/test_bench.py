"""Tests of the benchmark's own machinery: the seeded generator, the span
recorder's self time and wrapping, and the metric names."""

import itertools
import json
import math
import os
import re
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(REPO, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    inputs = workloads.WORKLOADS[name].inputs
    first = list(itertools.islice(inputs(7), 50))
    assert first == list(itertools.islice(inputs(7), 50))
    if name != "verify":
        assert first != list(itertools.islice(inputs(8), 50))


@pytest.mark.parametrize("name, ratio_hi", [("curve", 16.0), ("scan", 16.0),
                                            ("excited", 2.0)])
def test_generator_ranges(name, ratio_hi):
    ops = list(itertools.islice(workloads.WORKLOADS[name].inputs(3), 200))
    ratios = [op["h"] / op["c"] ** 2 for op in ops]
    assert len(set(ratios)) == len(ratios)
    assert all(0.01 * (1 - 1e-12) <= r <= ratio_hi * (1 + 1e-12)
               for r in ratios)
    assert all(0.25 <= op["h"] <= 4.0 for op in ops)
    # equidistributed in log(h/c^2), log h and log(T/h): every tenth of each
    # range is visited
    axes = [(ratios, 0.01, ratio_hi), ([op["h"] for op in ops], 0.25, 4.0)]
    if "T" in ops[0]:
        axes.append(([op["T"] / op["h"] for op in ops], 0.002, 0.05))
    for values, lo, hi in axes:
        lo, hi = math.log(lo), math.log(hi)
        tenths = {int(10 * (math.log(v) - lo) / (hi - lo)) for v in values}
        assert tenths >= set(range(10))
    for op in ops:
        if "T" in op:
            assert 0.002 <= op["T"] / op["h"] <= 0.05
        if "x" in op:
            assert len(op["x"]) == 8 and list(op["x"]) == sorted(op["x"])


def test_each_op_is_scaled_by_the_readings_around_it(monkeypatch):
    import probe
    values = iter([1.0, 3.0, 2.0, 4.0])
    monkeypatch.setattr(probe, "reading", lambda op_seconds=0.0: next(values))
    wl = workloads.Workload("fake", lambda seed: iter([{}, {}, {}]),
                            lambda inp, workdir: 0,
                            lambda inp, raw: ("ok", ""), None, None)
    records, _ = run.run_loop(wl, 0, 60.0)
    assert [r["probe_s"] for r in records] == [2.0, 2.5, 3.0]
    for r in records:
        factor = (probe.REFERENCE_S / r["probe_s"]) ** probe.ELASTICITY
        assert r["scaled"] == pytest.approx(r["seconds"] * factor)


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children [1, 3], [3, 5], [6, 7]; [1.5, 2] under [1, 3]
    tree = [(0.0, 10.0, None), (1.0, 3.0, 0), (1.5, 2.0, 1), (3.0, 5.0, 0),
            (6.0, 7.0, 0)]
    assert spans.self_times(tree) == pytest.approx([5.0, 1.5, 0.5, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [(0.0, 4.0, None), (1.0, 3.0, 0), (2.0, 3.5, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.5)


def test_tracer_wraps_every_binding_and_restores():
    import bosegas
    from bosegas import cli, groundstate, thermal

    original = groundstate.build_ground_state
    tracer = spans.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        assert bosegas.build_ground_state is cli.build_ground_state
        assert thermal.build_ground_state is not original
        bosegas.build_ground_state(bosegas.ModelParams(c=1.0, h=1.0))
    finally:
        tracer.uninstall()
    assert groundstate.build_ground_state is original
    assert cli.build_ground_state is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "groundstate.build_ground_state"
    assert "groundstate.solve_fermi_boundary" in names
    metrics = spans.layer_metrics(
        tracer.spans, 1, tracer.spans[0].end - tracer.spans[0].start)
    assert metrics["groundstate.build_ground_state.calls"] == 1
    assert metrics["groundstate.factorizations_per_build"] >= 2
    assert set(metrics) <= set(spans.per_layer_names())


def test_metric_names():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert e2e == list(run.E2E_UNITS)
    assert layer == spans.per_layer_names()
    for name in e2e + layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + layer)) == len(e2e + layer)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_tail_latency():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
    lat = [float(i) for i in range(40)]
    assert run.tail_latency(lat) == (29.0, 75.0)
