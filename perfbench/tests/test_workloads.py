import json

import pytest

import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic(workload):
    first = workloads.generate(workload, 7, 20)
    again = workloads.generate(workload, 7, 20)
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(workloads.generate(workload, 8, 20))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_cycle_has_the_same_mix(workload):
    plan = workloads.generate(workload, 3, 20)
    space = workloads.reference_space(workload)
    mixes = {tuple(sorted(e["config"]["kind"] for e in cycle)) for cycle in plan}
    assert len(mixes) == 1
    for cycle in plan:
        for exp in cycle:
            assert space[exp["key"]] == exp["config"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cycle_count_gives_a_tail(workload):
    plan = workloads.generate(workload, 0, 1)
    assert sum(len(c) for c in plan) >= workloads.MIN_SAMPLES


def test_layer_segment_is_one_deterministic_cycle():
    segment = workloads.layer_segment(5)
    assert len(segment) == 1
    assert json.dumps(segment) == json.dumps(workloads.layer_segment(5))
    space = workloads.reference_space(workloads.LAYER_SEGMENT)
    assert {e["key"] for e in segment[0]} <= set(space)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_warmup_cycle_is_deterministic_and_has_the_cycle_mix(workload):
    warmup = workloads.warmup_cycle(workload, 4)
    assert json.dumps(warmup) == json.dumps(workloads.warmup_cycle(workload, 4))
    cycle = workloads.generate(workload, 4, 20)[0]
    assert sorted(e["config"]["kind"] for e in warmup) == sorted(
        e["config"]["kind"] for e in cycle)
    assert set(e["key"] for e in warmup) <= set(workloads.reference_space(workload))
