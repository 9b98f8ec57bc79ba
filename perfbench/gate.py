"""Correctness gate: compare a run's output files with stored references.

Values are compared within a tolerance, never by digest, so a solver change
that only moves the last bits still passes.  The tolerance is
:data:`RTOL` times the largest magnitude in the reference array of that
output (the reference scale), which admits rounding differences between
eigenbasis, LU, Krylov or Chebyshev evaluations of the same resolvent and
rejects any real change of the result.  Chern numbers must match exactly.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

RTOL = 1e-9
"""Allowed deviation, as a share of the largest reference magnitude."""

NO_CHERN = -999
"""Stands for an empty Chern field (the method does not apply to the band)."""

REFERENCES = Path(__file__).resolve().parent / "references.npz"


def load_references(path: Path = REFERENCES) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def read_csv_columns(path: Path, names: tuple[str, ...]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    index = [header.index(name) for name in names]
    return [[row[i] for row in body] for i in index]


def _floats(columns: list[list[str]]) -> np.ndarray:
    return np.array([[float(v) for v in column] for column in columns])


def read_grid(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    n_x, n_l = (int(v) for v in lines[0].split()[:2])
    grid = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    if grid.shape != (n_x, n_l):
        raise ValueError(f"{path.name}: header says {n_x}x{n_l}, body is {grid.shape}")
    return grid


def compare(values: np.ndarray, reference: np.ndarray) -> str | None:
    """None when ``values`` match ``reference`` within the tolerance."""
    values = np.asarray(values, dtype=float)
    if values.shape != reference.shape:
        return f"shape {values.shape} != reference {reference.shape}"
    scale = float(np.max(np.abs(reference)))
    deviation = float(np.max(np.abs(values - reference)))
    if not deviation <= RTOL * scale:  # written so that NaN fails
        return f"max deviation {deviation:.3e} exceeds {RTOL:g} x scale {scale:.3e}"
    return None


def observed(kind: str, out_dir: Path) -> np.ndarray:
    """The gated values of one run, shaped like its reference."""
    if kind == "spectrum":
        return _floats(read_csv_columns(out_dir / "spectrum.csv", ("transmission",)))[0]
    if kind in ("disorder", "displacement"):
        values = _floats(read_csv_columns(out_dir / "displacement.csv",
                                          ("l_e_mean", "l_e_std")))
        if kind == "displacement":
            if np.any(values[1] != 0.0):
                raise ValueError("clean displacement run reports a nonzero std")
            return values[0]
        return values
    if kind == "edge-map":
        single = out_dir / "edge-map.grid"
        if single.exists():
            return read_grid(single)
        return np.stack([read_grid(out_dir / f"edge-map_s{s}.grid") for s in (0, 1)],
                        axis=-1)
    if kind == "chern":
        columns = read_csv_columns(out_dir / "chern.csv",
                                   ("chern_fukui_hatsugai", "chern_phase_mismatch"))
        return np.array([[int(v) if v else NO_CHERN for v in column] for column in columns])
    if kind == "bands":
        return _floats(read_csv_columns(out_dir / "bands.csv", ("energy",)))[0]
    if kind == "qsh":
        return _floats(read_csv_columns(out_dir / "qsh.csv",
                                        ("gap_low", "gap_high", "gap_width"))).T
    if kind == "dispersion-check":
        return _floats(read_csv_columns(
            out_dir / "dispersion-check.csv",
            ("detuning", "cosine_reference", "abs_deviation"))).T
    raise ValueError(f"no gate for kind {kind!r}")


def check(key: str, kind: str, out_dir: Path, references: dict[str, np.ndarray]) -> str | None:
    """None when the outputs in ``out_dir`` pass; otherwise the reason."""
    reference = references[key]
    try:
        values = observed(kind, Path(out_dir))
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
    if kind == "chern":
        if values.shape != reference.shape or np.any(values != reference):
            return f"Chern numbers {values.tolist()} != reference {reference.tolist()}"
        return None
    return compare(values, reference)
