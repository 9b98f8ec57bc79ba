import json
from pathlib import Path

import run
import spans
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_code():
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert declared == run.END_TO_END


def test_per_layer_metrics_match_the_code():
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert declared == spans.PER_LAYER


def test_workloads_match_the_code():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS
