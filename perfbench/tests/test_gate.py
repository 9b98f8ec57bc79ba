import csv

import numpy as np
import pytest

import gate
import workloads


@pytest.fixture(scope="module")
def references():
    return gate.load_references()


def test_every_reference_key_is_stored(references):
    for workload in workloads.WORKLOADS + (workloads.LAYER_SEGMENT,):
        assert set(workloads.reference_space(workload)) <= set(references)


def write_spectrum(path, values):
    with open(path / "spectrum.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["omega", "transmission"])
        for i, value in enumerate(values):
            writer.writerow([i, format(float(value), ".17g")])


KEY = "sweep.landau.1-6"


def test_reference_output_passes(tmp_path, references):
    write_spectrum(tmp_path, references[KEY])
    assert gate.check(KEY, "spectrum", tmp_path, references) is None


def test_last_bit_changes_pass(tmp_path, references):
    write_spectrum(tmp_path, references[KEY] * (1 + 1e-14))
    assert gate.check(KEY, "spectrum", tmp_path, references) is None


def test_perturbed_output_fails(tmp_path, references):
    values = references[KEY].copy()
    values[int(np.argmax(values))] *= 1 + 1e-6
    write_spectrum(tmp_path, values)
    assert "exceeds" in gate.check(KEY, "spectrum", tmp_path, references)


def test_missing_output_fails(tmp_path, references):
    assert "unreadable" in gate.check(KEY, "spectrum", tmp_path, references)


def test_chern_numbers_must_match_exactly(tmp_path, references):
    key = "bulk.chern.1-3"
    fukui, mismatch = references[key]
    rows = [[m + 1, f, "" if p == gate.NO_CHERN else p]
            for m, (f, p) in enumerate(zip(fukui, mismatch))]
    path = tmp_path / "chern.csv"

    def write(rows):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["band", "chern_fukui_hatsugai", "chern_phase_mismatch"])
            writer.writerows(rows)

    write(rows)
    assert gate.check(key, "chern", tmp_path, references) is None
    rows[0][1] += 1
    write(rows)
    assert "Chern" in gate.check(key, "chern", tmp_path, references)
