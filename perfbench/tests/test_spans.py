import pytest

import spans


def span(name, start, end, parent=None, experiment=0):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "experiment": experiment, "counts": {}}


def test_self_time_nested():
    records = [span("bench.experiment", 0.0, 10.0),
               span("cli.run", 1.0, 9.0, parent=0),
               span("kernel.eigh", 2.0, 5.0, parent=1)]
    assert spans.self_times(records) == pytest.approx([2.0, 5.0, 3.0])
    assert sum(spans.self_times(records)) == pytest.approx(10.0)


def test_self_time_siblings_disjoint_and_overlapping():
    records = [span("cli.run", 0.0, 10.0),
               span("a.x", 1.0, 3.0, parent=0),
               span("a.y", 2.0, 5.0, parent=0),   # overlaps its sibling
               span("a.z", 6.0, 7.0, parent=0)]
    # children cover [1, 5] and [6, 7]: 5 of the parent's 10 seconds
    assert spans.self_times(records)[0] == pytest.approx(5.0)


def test_self_time_clips_children_to_parent():
    records = [span("cli.run", 0.0, 4.0), span("a.x", 3.0, 6.0, parent=0)]
    assert spans.self_times(records)[0] == pytest.approx(3.0)


def test_covered_length_of_empty_and_contained():
    assert spans.covered_length([], 0.0, 1.0) == 0.0
    assert spans.covered_length([(0.2, 0.8), (0.3, 0.4)], 0.0, 1.0) == pytest.approx(0.6)


def test_tracer_parents_scope_and_layer_sum():
    tracer = spans.Tracer()
    inner = spans.wrap(tracer, "kernel.eigh", lambda: 1, scope=("scattering",))
    outer = spans.wrap(tracer, "scattering.spectrum", lambda: inner())
    tracer.experiment = 0
    root = tracer.begin("bench.experiment")
    assert outer() == 1
    inner()  # outside scattering: passes through without a span
    tracer.end(root)
    records = tracer.records()
    assert [r["name"] for r in records] == ["bench.experiment", "scattering.spectrum",
                                            "kernel.eigh"]
    assert [r["parent"] for r in records] == [None, 0, 1]
    metrics = spans.layer_metrics(records, experiments=1)
    modules = sum(metrics[f"{m}.self_s"] for m in spans.MODULES)
    assert modules + metrics["cli.validate_s"] + metrics["trace.unwrapped_s"] == \
        pytest.approx(metrics["trace.wall_s"])
    assert metrics["kernel.eigh_calls"] == 1


def test_layer_metrics_cover_per_layer_table():
    metrics = spans.layer_metrics([span("bench.experiment", 0.0, 1.0)], experiments=1)
    from_threads_study = {"cli.ordered_map_speedup", "cli.blas2_speedup",
                          "cli.blas_bytes_changed", "trace.overhead_frac"}
    assert set(metrics) | from_threads_study == set(spans.PER_LAYER)
