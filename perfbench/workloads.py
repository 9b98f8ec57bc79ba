"""Seeded workload generation: the CLI configs each benchmark run executes.

A workload is a list of *cycles*; a cycle holds the same mix of experiment
types every time, in a seed-shuffled order and with seed-drawn parameters
that do not change the amount of work.  Runs execute whole cycles, so every
run sees the same mix and the medians and tails compare across seeds.

Every experiment carries a reference ``key``.  Parameters are drawn from
finite sets, so :func:`reference_space` can enumerate every key a seed can
produce and ``make_references.py`` can store a reference for each.

This module is pure Python (no NumPy) and deterministic: the same
``(workload, seed, seconds)`` always yields the same plan.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("sweep", "disorder", "probe")

#: Chern numbers, bands, the qsh gap scan and the optics dispersion check run
#: as one extra cycle inside every traced run, for their per-layer metrics.
#: They are not a timed workload: this in-cache compute follows the host's
#: CPU-speed spells (up to 1.7x, 10-60 s long), and 20-30 s runs of it
#: spread by 0.16-0.36 between seeds, beyond any allowed bound.
LAYER_SEGMENT = "bulk"

#: Wall time of one cycle at the seed commit (2 BLAS threads, 2-core x86
#: container).  ``--seconds`` is turned into a cycle count with it, so the
#: amount of work in a run is fixed by the benchmark, not by the program's
#: speed: both sides of a comparison run exactly the same experiments.
#: A 24 s probe run holds 3 cycles: the tail rank (11th from the top) then
#: falls below the 6 heavy experiments (20x201 map, displacement), in the
#: middle of the 12 polarized 12x101 maps.  With 4 cycles it fell on the 3rd
#: of 16, at the edge where the displacement times overlap that group, and
#: spread by up to 0.26 over ten seeds.
NOMINAL_CYCLE_S = {"sweep": 1.45, "disorder": 4.0, "probe": 8.7}

#: The tail percentile needs at least 10 samples beyond it.
MIN_SAMPLES = 11

#: Disorder experiments draw their Monte-Carlo seed from this many values.
DISORDER_SEED_POOL = 16

#: Models in one disorder cycle.  An odd mix puts the median and the tail
#: rank inside one model's samples rather than on the boundary between two.
DISORDER_CYCLE = ("A", "B", "B")

DESK = {"n_x": 10, "l_min": -50, "l_max": 50}
GRID_400 = {"start": -4.5, "stop": 4.5, "num": 400}

# ---------------------------------------------------------------------------
# Experiment families: key -> config
# ---------------------------------------------------------------------------


def farey_fluxes(q_max: int) -> list[tuple[int, int]]:
    """Reduced fluxes ``p/q`` in ``[0, 1]`` with ``q <= q_max``, ascending."""
    fluxes = {Fraction(p, q) for q in range(1, q_max + 1) for p in range(q + 1)}
    return [(f.numerator, f.denominator) for f in sorted(fluxes)]


SWEEP_BUILDERS = ("landau", "oam-gauge")
SWEEP_FLUXES = farey_fluxes(12)


def sweep_config(builder: str, p: int, q: int) -> dict:
    return {
        "kind": "spectrum",
        "lattice": dict(DESK),
        "model": {"builder": builder, "phi0": [p, q]},
        "decay": {"gamma": 0.1},
        "omega": dict(GRID_400),
    }


def disorder_config(model: str, seed: int) -> dict:
    """Model A: per-cavity detuning (uniform loss, one ``eigh`` per trial).
    Model B: enveloped per-OAM-link coupling and loss errors (per-mode loss,
    one dense LU per input and frequency)."""
    config = {
        "kind": "disorder",
        "seed": seed,
        "lattice": dict(DESK),
        "model": {"builder": "landau", "phi0": [1, 6]},
        "decay": {"gamma": 0.2},
        "region": {"side": "right", "depth": 4},
    }
    if model == "A":
        config["omega"] = {"values": [-2.2, -1.5034]}
        config["disorder"] = {"sigma_detuning": 0.1, "trials": 2}
    else:
        config["omega"] = {"values": [-2.2]}
        config["disorder"] = {
            "sigma_coupling_mag": 0.05, "sigma_loss": 0.02,
            "scope": "per_oam_link", "envelope_width": 30, "trials": 2,
        }
    return config


#: Probe lattices: name -> (n_x, half window, spin_dim).  They sit on both
#: sides of the dense/sparse storage limit (4096) and of the direct/Krylov
#: solve limit (6000).
PROBE_LATTICES = {
    "s10x101": (10, 50, 1),     # 1010, dense
    "q12x101": (12, 50, 2),     # 2424, dense, Jones blocks
    "s20x201": (20, 100, 1),    # 4020, dense (largest dense case)
    "s21x201": (21, 100, 1),    # 4221, CSR + sparse LU
    "q24x101": (24, 50, 2),     # 4848, CSR + sparse LU
    "s30x301": (30, 150, 1),    # 9030, CSR + Krylov
}
PROBE_SIDES = ("left", "right")


def _probe_lattice(name: str) -> tuple[dict, dict, float]:
    n_x, half, spin = PROBE_LATTICES[name]
    lattice = {"n_x": n_x, "l_min": -half, "l_max": half, "spin_dim": spin}
    if spin == 1:
        return lattice, {"builder": "landau", "phi0": [1, 6]}, -2.2
    return lattice, {"builder": "qsh", "lambda0": 0.6}, -1.6


def probe_map_config(name: str, side: str, spin: int = 0) -> dict:
    lattice, model, omega = _probe_lattice(name)
    j = 0 if side == "left" else lattice["n_x"] - 1
    return {
        "kind": "edge-map",
        "lattice": lattice,
        "model": model,
        "decay": {"gamma": 0.2},
        "omega": {"values": [omega]},
        "input": [j, 0, spin],
    }


#: The dense spinful lattice is mapped for every input edge and polarization
#: in each cycle.  Four of the cycle's ten experiments then sit in one
#: BLAS-bound group, which holds both the median and the tail rank; with one
#: map per lattice the median fell on the Krylov map, whose Python-level
#: iteration follows the host's CPU-speed spells (spread 0.27 over ten seeds).
POLARIZED_LATTICE = "q12x101"


def _map_key(name: str, side: str, spin: int = 0) -> str:
    return f"probe.map.{name}.{side}" + (f".s{spin}" if spin else "")


def probe_displacement_config(side: str) -> dict:
    lattice, model, omega = _probe_lattice("s30x301")
    return {
        "kind": "displacement",
        "lattice": lattice,
        "model": model,
        "decay": {"gamma": 0.2},
        "omega": {"values": [omega]},
        "region": {"side": side, "depth": 4},
    }


CHERN_FLUXES = {q: [p for p in range(1, q) if math.gcd(p, q) == 1]
                for q in (3, 4, 5, 6)}
BANDS_FLUXES = [(1, 4), (3, 4)]
QSH_BETAS = [0.125 * i / 8 for i in range(9)]
DISPERSION_R = [0.3, 0.6]


def chern_config(p: int, q: int) -> dict:
    return {"kind": "chern", "model": {"builder": "landau", "phi0": [p, q]},
            "sampling": {"k_points": 64}}


def bands_config(p: int, q: int) -> dict:
    return {"kind": "bands", "model": {"builder": "landau", "phi0": [p, q]},
            "sampling": {"k_points": 64}}


def qsh_config() -> dict:
    return {
        "kind": "qsh",
        "lattice": {"n_x": 8, "l_min": -50, "l_max": 50, "spin_dim": 2,
                    "bc_y": "periodic"},
        "model": {"builder": "qsh", "lambda0": 0.6},
        "qsh": {"beta0_values": list(QSH_BETAS)},
    }


def dispersion_config() -> dict:
    return {"kind": "dispersion-check", "optics": {"r_values": list(DISPERSION_R)}}


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------


def _slots(workload: str) -> list[list[tuple[str, dict]]]:
    """A cycle's slots; each lists the ``(key, config)`` alternatives a seed
    picks one from."""
    if workload == "sweep":
        return [[(f"sweep.{builder}.{p}-{q}", sweep_config(builder, p, q))
                 for p, q in SWEEP_FLUXES] for builder in SWEEP_BUILDERS]
    if workload == "disorder":
        return [[(f"disorder.{model}.{seed}", disorder_config(model, seed))
                 for seed in range(DISORDER_SEED_POOL)] for model in DISORDER_CYCLE]
    if workload == "probe":
        maps = [[(_map_key(name, side), probe_map_config(name, side)) for side in PROBE_SIDES]
                for name in PROBE_LATTICES if name != POLARIZED_LATTICE]
        polarized = [[(_map_key(POLARIZED_LATTICE, side, spin),
                       probe_map_config(POLARIZED_LATTICE, side, spin))]
                     for side in PROBE_SIDES for spin in (0, 1)]
        return maps + polarized + [[(f"probe.displacement.s30x301.{side}",
                                     probe_displacement_config(side))
                                    for side in PROBE_SIDES]]
    if workload == "bulk":
        chern = [[(f"bulk.chern.{p}-{q}", chern_config(p, q))]
                 for q, ps in CHERN_FLUXES.items() for p in ps]
        return chern + [[(f"bulk.bands.{p}-{q}", bands_config(p, q)) for p, q in BANDS_FLUXES],
                        [("bulk.qsh", qsh_config())],
                        [("bulk.dispersion", dispersion_config())]]
    raise ValueError(f"unknown workload {workload!r}")


def _cycle(workload: str, rng: random.Random) -> list[dict]:
    cycle = []
    for slot in _slots(workload):
        key, config = slot[0] if len(slot) == 1 else rng.choice(slot)
        cycle.append({"key": key, "config": config})
    rng.shuffle(cycle)
    return cycle


def cycle_count(workload: str, seconds: float) -> int:
    """Whole cycles that fill at least ``seconds`` at the nominal cycle time."""
    per_cycle = len(_slots(workload))
    return max(math.ceil(MIN_SAMPLES / per_cycle),
               math.ceil(seconds / NOMINAL_CYCLE_S[workload]))


def generate(workload: str, seed: int, seconds: float) -> list[list[dict]]:
    """The run plan: a list of cycles, each a list of ``{key, config}``."""
    rng = random.Random(f"{workload}:{seed}")
    return [_cycle(workload, rng) for _ in range(cycle_count(workload, seconds))]


def warmup_cycle(workload: str, seed: int) -> list[dict]:
    """One cycle run untimed before the plan, drawn apart from its cycles."""
    return _cycle(workload, random.Random(f"{workload}:{seed}:warmup"))


def layer_segment(seed: int) -> list[list[dict]]:
    """The traced-only cycle of :data:`LAYER_SEGMENT` experiments."""
    return [_cycle(LAYER_SEGMENT, random.Random(f"{LAYER_SEGMENT}:{seed}"))]


def reference_space(workload: str) -> dict[str, dict]:
    """Every reference key a seed can draw for ``workload``, with its config."""
    return {key: config for slot in _slots(workload) for key, config in slot}


#: The ``--threads`` study of the traced run: one butterfly experiment, timed
#: at BLAS 1 / --threads 1, BLAS 1 / --threads 2 and BLAS 2 / --threads 1.
THREADS_STUDY_CONFIG = {
    "kind": "butterfly",
    "lattice": {"n_x": 10, "l_min": -20, "l_max": 20},
    "decay": {"gamma": 0.1},
    "omega": dict(GRID_400),
    "butterfly": {"q_max": 4},
}
THREADS_STUDY_REPEATS = 3
