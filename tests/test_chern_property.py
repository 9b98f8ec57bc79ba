"""Randomized gauge property of both Chern routes and the partition rule.

Hypothesis draws a reduced flux ``p/q`` with ``q <= 6``, a grid size and a
random phase for every band at every momentum (not smooth: each sample is
independent).  Both Chern routes see only gauge-invariant quantities, so
on every isolated band they must return the same integer (or refuse) on
the rotated vectors as on the originals; and whatever
:func:`auto_partition` returns must pass the partition validator.
The broadcast Bloch matrix and the longest-clear-arc search are checked
against per-element loops.  ``derandomize=True`` and fixed example counts
keep the runs identical and short.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from oamphoton.chern import (
    BlochBandData,
    MagneticBZGrid,
    _longest_clear_arc,
    _single_band,
    _validate_partition,
    _zero_columns,
    auto_partition,
    band_structure,
    fukui_hatsugai_chern,
    magnetic_bloch_hamiltonian,
    phase_mismatch_chern,
)

FLUXES = [(p, q) for q in range(1, 7) for p in range(q + 1) if math.gcd(p, q) == 1]


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def isolated_bands(data):
    return [m for m in range(data.q) if outcome(_single_band, data, m) == m]


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    flux=st.sampled_from(FLUXES),
    n=st.sampled_from([16, 24, 32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_chern_routes_ignore_per_k_phases(flux, n, seed):
    data = band_structure(MagneticBZGrid(*flux, n, n))
    phases = np.random.default_rng(seed).uniform(-np.pi, np.pi, (data.q, n, n))
    rotated = BlochBandData(
        grid=data.grid,
        energies=data.energies,
        vectors=data.vectors * np.exp(1j * phases)[..., None],
    )
    for m in isolated_bands(data):
        assert outcome(fukui_hatsugai_chern, rotated, m) == outcome(
            fukui_hatsugai_chern, data, m
        )
        partition = outcome(auto_partition, data, m)
        assert outcome(auto_partition, rotated, m) == partition
        if partition is ValueError:  # the slab route refuses both alike
            continue
        _validate_partition(data, m, partition, _zero_columns(data, m))
        assert phase_mismatch_chern(rotated, m, partition) == phase_mismatch_chern(
            data, m, partition
        )


@settings(derandomize=True, max_examples=20, deadline=None)
@given(flux=st.sampled_from(FLUXES), n=st.integers(4, 12))
def test_bloch_matrix_broadcast_equals_pointwise(flux, n):
    grid = MagneticBZGrid(*flux, n, n)
    blocks = magnetic_bloch_hamiltonian(
        *flux, grid.kx_values[:, None], grid.ky_values[None, :]
    )
    pointwise = [
        [magnetic_bloch_hamiltonian(*flux, kx, ky) for ky in grid.ky_values]
        for kx in grid.kx_values
    ]
    assert np.array_equal(blocks, np.array(pointwise))


def longest_clear_arc_reference(bad):
    """Per-element scan: every start of a clear run, walked to its end."""
    n = len(bad)
    best = None
    for start in range(n):
        if bad[start] or not bad[start - 1]:
            continue  # not the first clear column of a run
        length = 0
        while not bad[(start + length) % n]:
            length += 1
        if best is None or length > best[1]:
            best = (start, length)
    start, length = best
    return start, (start + length - 1) % n


@settings(derandomize=True, max_examples=200, deadline=None)
@given(bad=st.lists(st.booleans(), min_size=2, max_size=24))
def test_longest_clear_arc_matches_reference(bad):
    if all(bad) or not any(bad):
        return
    assert _longest_clear_arc(np.array(bad)) == longest_clear_arc_reference(bad)
