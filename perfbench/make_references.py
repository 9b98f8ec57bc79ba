"""Compute the correctness references the benchmark gate compares against.

Run once, from the repository root, at the commit the references should
pin (they were made at the seed commit of the benchmark):

    PYTHONPATH=src python3 perfbench/make_references.py

It writes ``perfbench/references.npz``: one array per reference key of
:func:`workloads.reference_space`.  Each reference is computed on a
different path from the one the library takes for that experiment:

* uniform-loss transmission and displacement: the dense eigenbasis oracle
  (``spectral_factorization`` and the ``eig_transmission_vector`` formula,
  batched over frequencies);
* per-mode loss (disorder model B): one dense LU solve for all input
  columns at once;
* lattices above 2424 sites: a sparse LU factorization (``splu``) where the
  library uses dense LU or Krylov, and a dense LU where it uses SuperLU;
* bulk bands: one ``eigvalsh`` per k-point of ``magnetic_bloch_hamiltonian``;
* Chern numbers, gap scans and the optics dispersion: the library functions
  themselves; Chern numbers of isolated bands are also checked against the
  TKNN Diophantine equation.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "2")

import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from oamphoton.chern import (
    MagneticBZGrid,
    band_structure,
    fukui_hatsugai_chern,
    magnetic_bloch_hamiltonian,
    phase_mismatch_chern,
)
from oamphoton.disorder import (
    DisorderModel,
    DisorderScope,
    loss_perturbed_decay,
    sample_disordered_hamiltonian,
    saturating_oam_envelope,
)
from oamphoton.hamiltonians import (
    build_landau_hofstadter,
    build_oam_gauge_hofstadter,
    build_qsh,
)
from oamphoton.lattice import Boundary, LatticeSpec, SiteIndex, flat_index, l_of_index
from oamphoton.optics import OpticalParams, bloch_dispersion, coupling_strength
from oamphoton.qsh import qsh_gap_scan
from oamphoton.scattering import eig_transmission_vector, spectral_factorization

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from gate import NO_CHERN, REFERENCES  # noqa: E402


def _spec(lattice: dict) -> LatticeSpec:
    return LatticeSpec(lattice["n_x"], lattice["l_min"], lattice["l_max"],
                       spin_dim=lattice.get("spin_dim", 1),
                       bc_y=Boundary(lattice.get("bc_y", "open")))


def _build(config: dict):
    spec = _spec(config["lattice"])
    model = config["model"]
    if model["builder"] == "qsh":
        return build_qsh(spec, model.get("beta0", 0.0), model["lambda0"])
    phi0 = float(Fraction(*model["phi0"]))
    if model["builder"] == "landau":
        return build_landau_hofstadter(spec, phi0)
    return build_oam_gauge_hofstadter(spec, phi0)


def _eig_amplitudes(evals, evecs, gamma, omegas, r) -> np.ndarray:
    """``eig_transmission_vector`` for every frequency at once: rows are omegas."""
    coeff = evecs[r, :].conj()[None, :] / (omegas[:, None] - evals[None, :] + 0.5j * gamma)
    return -1j * gamma * (coeff @ evecs.T)


def _check_batched(evals, evecs, gamma, omegas, r) -> None:
    batched = _eig_amplitudes(evals, evecs, gamma, omegas[:1], r)[0]
    single = eig_transmission_vector(evals, evecs, gamma, float(omegas[0]), r)
    assert np.allclose(batched, single, rtol=1e-12, atol=1e-14)


def _region_rows(spec: LatticeSpec, side: str, depth: int) -> list[int]:
    cols = range(depth) if side == "left" else range(spec.n_x - depth, spec.n_x)
    return [flat_index(spec, SiteIndex(j, 0, s)) for j in cols
            for s in range(spec.spin_dim)]


def sweep_reference(config: dict) -> np.ndarray:
    H = _build(config)
    gamma = config["decay"]["gamma"]
    omegas = np.linspace(config["omega"]["start"], config["omega"]["stop"],
                         config["omega"]["num"])
    evals, evecs = spectral_factorization(H)
    rows = [flat_index(H.spec, SiteIndex(j, 0, 0)) for j in range(H.spec.n_x)]
    _check_batched(evals, evecs, gamma, omegas, rows[0])
    total = np.zeros(omegas.size)
    for r in rows:
        total += np.sum(np.abs(_eig_amplitudes(evals, evecs, gamma, omegas, r)) ** 2, axis=1)
    return total


def _disorder_model(block: dict) -> DisorderModel:
    width = block.get("envelope_width")
    return DisorderModel(
        sigma_detuning=block.get("sigma_detuning", 0.0),
        sigma_coupling_mag=block.get("sigma_coupling_mag", 0.0),
        sigma_loss=block.get("sigma_loss", 0.0),
        oam_envelope=(None if width is None
                      else (lambda x: saturating_oam_envelope(x, width))),
        scope=DisorderScope(block.get("scope", "per_cavity_link")),
    )


def disorder_reference(config: dict) -> np.ndarray:
    """Rows: Monte-Carlo mean and sample std of the displacement per omega."""
    H0 = _build(config)
    spec = H0.spec
    model = _disorder_model(config["disorder"])
    gamma = config["decay"]["gamma"]
    omegas = np.asarray(config["omega"]["values"], dtype=float)
    rows = _region_rows(spec, config["region"]["side"], config["region"]["depth"])
    l_out = l_of_index(spec).astype(float)
    samples = []
    for trial in range(config["disorder"]["trials"]):
        rng = np.random.Generator(np.random.Philox(key=config["seed"]).jumped(trial))
        H = sample_disordered_hamiltonian(H0, model, rng)
        if model.sigma_loss > 0.0:
            rates = loss_perturbed_decay(gamma, spec, model, rng).rates
            dense = H.toarray()
            values = []
            for omega in omegas:
                A = -dense.astype(complex)
                A[np.diag_indices_from(A)] += omega + 0.5j * rates
                rhs = np.zeros((spec.dim, len(rows)), dtype=complex)
                rhs[rows, range(len(rows))] = 1.0
                X = scipy.linalg.solve(A, rhs)
                T = -1j * np.sqrt(rates)[:, None] * X * np.sqrt(rates[rows])[None, :]
                values.append(float(np.sum(np.abs(T) ** 2 * l_out[:, None])))
        else:
            evals, evecs = spectral_factorization(H)
            values = np.zeros(omegas.size)
            for r in rows:
                amps = _eig_amplitudes(evals, evecs, gamma, omegas, r)
                values += np.abs(amps) ** 2 @ l_out
        samples.append(values)
    samples = np.asarray(samples, dtype=float)
    return np.stack([samples.mean(axis=0), samples.std(axis=0, ddof=1)])


def _direct_columns(H, gamma: float, omega: float, rows: list[int]) -> np.ndarray:
    """Resolvent columns ``(omega - H + i gamma/2)^-1 e_r`` by a direct solve
    on the path the library does not take for this size."""
    dim = H.dim
    rhs = np.zeros((dim, len(rows)), dtype=complex)
    rhs[rows, range(len(rows))] = 1.0
    if H.is_dense or dim > 6000:
        A = scipy.sparse.diags(np.full(dim, omega + 0.5j * gamma)) - scipy.sparse.csc_matrix(H.data)
        return scipy.sparse.linalg.splu(A.tocsc()).solve(rhs)
    A = -H.toarray()
    A[np.diag_indices_from(A)] += omega + 0.5j * gamma
    return scipy.linalg.solve(A, rhs)


def probe_reference(config: dict) -> np.ndarray:
    H = _build(config)
    spec = H.spec
    gamma = config["decay"]["gamma"]
    omega = float(config["omega"]["values"][0])
    if config["kind"] == "displacement":
        rows = _region_rows(spec, config["region"]["side"], config["region"]["depth"])
        X = _direct_columns(H, gamma, omega, rows)
        l_out = l_of_index(spec).astype(float)
        return np.array([float(np.sum(np.abs(gamma * X) ** 2 * l_out[:, None]))])
    j, l, s = config["input"]
    r = flat_index(spec, SiteIndex(j, l, s))
    if spec.dim <= 2500:
        evals, evecs = spectral_factorization(H)
        amps = eig_transmission_vector(evals, evecs, gamma, omega, r)
    else:
        amps = -1j * gamma * _direct_columns(H, gamma, omega, [r])[:, 0]
    grid = (np.abs(amps) ** 2).reshape(spec.n_x, spec.n_l, spec.spin_dim)
    return grid[:, :, 0] if spec.spin_dim == 1 else grid


def _tknn_chern(p: int, q: int) -> list[int | None]:
    """Chern numbers from ``r = q s_r + p t_r`` with ``|t_r| < q/2``; None
    where a neighbouring gap is the closed central gap of even ``q``."""
    t = {0: 0, q: 0}
    for r in range(1, q):
        sols = [tr for tr in range(-q, q + 1) if (r - p * tr) % q == 0 and 2 * abs(tr) < q]
        t[r] = sols[0] if len(sols) == 1 else None
    return [None if t[r] is None or t[r - 1] is None else t[r] - t[r - 1]
            for r in range(1, q + 1)]


def chern_reference(config: dict) -> np.ndarray:
    p, q = config["model"]["phi0"]
    data = band_structure(MagneticBZGrid(p, q, 64, 64))
    out = np.full((2, q), NO_CHERN, dtype=np.int64)
    for m in range(q):
        for row, method in enumerate((fukui_hatsugai_chern, phase_mismatch_chern)):
            try:
                out[row, m] = int(method(data, m))
            except ValueError:
                pass
    for m, expected in enumerate(_tknn_chern(p, q)):
        if expected is not None:
            assert out[0, m] == expected, (p, q, m, out[0, m], expected)
    return out


def bands_reference(config: dict) -> np.ndarray:
    p, q = config["model"]["phi0"]
    grid = MagneticBZGrid(p, q, 64, 64)
    energies = np.empty((q, grid.n_kx, grid.n_ky))
    for a, kx in enumerate(grid.kx_values):
        for b, ky in enumerate(grid.ky_values):
            energies[:, a, b] = np.linalg.eigvalsh(magnetic_bloch_hamiltonian(p, q, kx, ky))
    return energies.ravel()


def qsh_reference(config: dict) -> np.ndarray:
    spec = _spec(config["lattice"])
    reports = qsh_gap_scan(spec, config["model"]["lambda0"],
                           config["qsh"]["beta0_values"], -1.6)
    return np.array([[r.e_low, r.e_high, r.width] for r in reports])


def dispersion_reference(config: dict) -> np.ndarray:
    k_bloch = np.linspace(-np.pi, np.pi, 16, endpoint=False)
    rows = []
    for r_mag in config["optics"]["r_values"]:
        params = OpticalParams(r_mag, float(np.pi), s_c=8.0, s_a=3.0)
        kappa = float(coupling_strength(params))
        for kx in k_bloch.tolist():
            for ky in k_bloch.tolist():
                detuning = float(bloch_dispersion(params, kx, ky))
                reference = -2.0 * kappa * (np.cos(kx) + np.cos(ky))
                rows.append((detuning, reference, abs(detuning - reference)))
    return np.array(rows)


def reference(key: str, config: dict) -> np.ndarray:
    family = key.split(".")[:2]
    if family[0] == "sweep":
        return sweep_reference(config)
    if family[0] == "disorder":
        return disorder_reference(config)
    if family[0] == "probe":
        return probe_reference(config)
    return {"chern": chern_reference, "bands": bands_reference,
            "qsh": qsh_reference, "dispersion": dispersion_reference}[family[1]](config)


def main() -> None:
    arrays = {}
    for workload in workloads.WORKLOADS + (workloads.LAYER_SEGMENT,):
        for key, config in workloads.reference_space(workload).items():
            start = time.perf_counter()
            arrays[key] = reference(key, config)
            print(f"{key}: {arrays[key].shape} in {time.perf_counter() - start:.2f} s",
                  flush=True)
    np.savez_compressed(REFERENCES, **arrays)
    print(f"wrote {len(arrays)} references to {REFERENCES}")


if __name__ == "__main__":
    main()
