"""Command-line front end: validated configs in, deterministic data files out.

One experiment per run, selected by the config's ``kind`` and mirrored by
the subcommand: transmission spectra, flux-sweep butterflies, edge maps,
OAM-displacement spectra (clean or disorder-averaged), Chern numbers,
bulk bands, polarization-pair gap scans, and the resonator dispersion
check.  Every run emits CSV tables (RFC-4180 quoting, 17 significant
digits) and/or plain-text grids, plus a JSON manifest with the config
echo and content digests.  Outputs are byte-identical across reruns with
the same config and seed, and independent of the worker count; files are
written to temporaries and atomically renamed.

The config is a single JSON object; the schema is documented in the
repository README.  Unknown keys anywhere are fatal validation errors.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .chern import (
    MagneticBZGrid,
    band_structure,
    fukui_hatsugai_chern,
    phase_mismatch_chern,
)
from .disorder import (
    DisorderModel,
    DisorderScope,
    _check_coupling_axis,
    displacement_robustness,
    saturating_oam_envelope,
)
from .edge import EdgeRegion, Side, displacement_spectrum, transmission_map
from .hamiltonians import (
    build_dirac,
    build_landau_hofstadter,
    build_oam_gauge_hofstadter,
    build_qsh,
)
from .lattice import Boundary, LatticeSpec, SiteIndex, flat_index
from .optics import OpticalParams, bloch_dispersion, coupling_strength
from .qsh import qsh_gap_scan, transition_detector
from .scattering import DecaySpec, total_transmission_spectrum
from . import __version__

__all__ = [
    "Diagnostic",
    "ConfigError",
    "ExperimentConfig",
    "RunManifest",
    "validate_config",
    "run",
    "main",
    "EXPERIMENT_KINDS",
]

TWO_PI = 2.0 * np.pi

EXPERIMENT_KINDS = (
    "spectrum",
    "butterfly",
    "edge-map",
    "displacement",
    "chern",
    "bands",
    "disorder",
    "qsh",
    "dispersion-check",
)

_UNIVERSAL_KEYS = {"kind", "seed", "out_dir"}

#: Per kind: (required top-level blocks, optional top-level blocks).
_KIND_KEYS: dict[str, tuple[set[str], set[str]]] = {
    "spectrum": ({"lattice", "model", "decay", "omega"}, {"inputs"}),
    "butterfly": ({"lattice", "decay", "omega"}, {"butterfly"}),
    "edge-map": ({"lattice", "model", "decay", "omega"}, {"input"}),
    "displacement": ({"lattice", "model", "decay", "omega"}, {"region", "disorder"}),
    "disorder": ({"lattice", "model", "decay", "omega", "disorder"}, {"region"}),
    "chern": ({"model"}, {"sampling"}),
    "bands": ({"model"}, {"sampling"}),
    "qsh": ({"lattice", "model", "qsh"}, set()),
    "dispersion-check": ({"optics"}, set()),
}

_BUILDERS = ("landau", "oam-gauge", "dirac", "qsh")

#: Kinds whose results depend on the seed.
_SEEDED_KINDS = ("displacement", "disorder")


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: ``fatal`` blocks the run, ``warning`` does not."""

    level: str
    path: str
    message: str

    def __str__(self) -> str:
        where = self.path if self.path else "(top level)"
        return f"{self.level}: {where}: {self.message}"


class ConfigError(ValueError):
    """Raised when a config fails validation; carries the diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """A validated experiment: the echo dict plus resolved library objects."""

    kind: str
    seed: int
    out_dir: str | None
    echo: dict = field(repr=False)
    resolved: dict = field(repr=False)

    @classmethod
    def from_dict(cls, raw: dict, *, seed_override: int | None = None
                  ) -> "ExperimentConfig":
        """Validate ``raw`` and resolve it; raise :class:`ConfigError` on fatals."""
        diagnostics, resolved = _resolve(raw)
        fatal = [d for d in diagnostics if d.level == "fatal"]
        if fatal:
            raise ConfigError(fatal)
        seed = seed_override if seed_override is not None else resolved["seed"]
        echo = copy.deepcopy(raw)
        echo["seed"] = seed
        resolved = dict(resolved, seed=seed)
        return cls(
            kind=raw["kind"],
            seed=seed,
            out_dir=raw.get("out_dir"),
            echo=echo,
            resolved=resolved,
        )


@dataclass(frozen=True, eq=False)
class RunManifest:
    """What a run produced: config echo, version, timing, digests, results."""

    kind: str
    artifact_version: str
    config: dict = field(repr=False)
    seed: int = 0
    threads: int = 1
    wall_time_seconds: float = 0.0
    outputs: tuple[dict, ...] = ()
    results: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "artifact_version": self.artifact_version,
            "config": self.config,
            "seed": self.seed,
            "threads": self.threads,
            "total_includes_same_mode": True,
            "wall_time_seconds": self.wall_time_seconds,
            "outputs": list(self.outputs),
            "results": self.results,
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
                ).encode("utf-8")


# ---------------------------------------------------------------------------
# Validation / resolution
# ---------------------------------------------------------------------------


def _fatal(diags: list[Diagnostic], path: str, message: str) -> None:
    diags.append(Diagnostic("fatal", path, message))


def _warn(diags: list[Diagnostic], path: str, message: str) -> None:
    diags.append(Diagnostic("warning", path, message))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _get_number(block: dict, key: str, path: str, diags, *,
                required: bool = False, default=None):
    if key not in block:
        if required:
            _fatal(diags, _join(path, key), "required key missing")
        return default
    value = block[key]
    if not _is_number(value) or not np.isfinite(value):
        _fatal(diags, _join(path, key),
               f"must be a finite number, got {value!r}")
        return None
    return float(value)


def _get_int(block: dict, key: str, path: str, diags, *,
             required: bool = False, default=None, minimum=None):
    if key not in block:
        if required:
            _fatal(diags, _join(path, key), "required key missing")
        return default
    value = block[key]
    if not isinstance(value, int) or isinstance(value, bool):
        _fatal(diags, _join(path, key), f"must be an integer, got {value!r}")
        return None
    if minimum is not None and value < minimum:
        _fatal(diags, _join(path, key),
               f"must be at least {minimum}, got {value}")
        return None
    return value


def _get_choice(block: dict, key: str, path: str, diags, choices, *,
                required: bool = False, default=None):
    if key not in block:
        if required:
            _fatal(diags, _join(path, key), "required key missing")
        return default
    value = block[key]
    if value not in choices:
        _fatal(diags, _join(path, key),
               f"must be one of {sorted(choices)}, got {value!r}")
        return None
    return value


def _check_block(raw: dict, name: str, allowed: set[str], diags) -> dict | None:
    block = raw[name]
    if not isinstance(block, dict):
        _fatal(diags, name, "must be an object")
        return None
    ok = True
    for key in block:
        if key not in allowed:
            _fatal(diags, f"{name}.{key}", "unknown key")
            ok = False
    return block if ok else None


def _parse_lattice(raw: dict, diags) -> LatticeSpec | None:
    block = _check_block(
        raw, "lattice", {"n_x", "l_min", "l_max", "spin_dim", "bc_x", "bc_y"},
        diags,
    )
    if block is None:
        return None
    n_x = _get_int(block, "n_x", "lattice", diags, required=True)
    l_min = _get_int(block, "l_min", "lattice", diags, required=True)
    l_max = _get_int(block, "l_max", "lattice", diags, required=True)
    spin_dim = _get_int(block, "spin_dim", "lattice", diags, default=1)
    bc_x = _get_choice(block, "bc_x", "lattice", diags,
                       ("open", "periodic"), default="open")
    bc_y = _get_choice(block, "bc_y", "lattice", diags,
                       ("open", "periodic"), default="open")
    if None in (n_x, l_min, l_max, spin_dim, bc_x, bc_y):
        return None
    try:
        return LatticeSpec(n_x, l_min, l_max, spin_dim=spin_dim,
                           bc_x=Boundary(bc_x), bc_y=Boundary(bc_y))
    except ValueError as exc:
        _fatal(diags, "lattice", str(exc))
        return None


def _parse_phi0(value, path: str, diags):
    """A flux is a finite number or an exact ``[p, q]`` integer pair."""
    if _is_number(value) and np.isfinite(value):
        return float(value), None
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, int) and not isinstance(v, bool)
                    for v in value)):
        p, q = value
        if q < 1:
            _fatal(diags, path, f"denominator must be positive, got {q}")
            return None
        frac = Fraction(p, q)
        return float(frac), frac
    _fatal(diags, path,
           f"must be a finite number or a [p, q] integer pair, got {value!r}")
    return None


def _parse_model(raw: dict, kind: str, diags) -> dict | None:
    block = _check_block(
        raw, "model", {"builder", "phi0", "beta0", "lambda0"}, diags
    )
    if block is None:
        return None
    builder = _get_choice(block, "builder", "model", diags, _BUILDERS,
                          required=True)
    if builder is None:
        return None
    model: dict = {"builder": builder, "phi0": None, "phi0_frac": None,
                   "beta0": 0.0, "lambda0": 0.0}
    if builder == "qsh":
        if "phi0" in block:
            _fatal(diags, "model.phi0", "not used by the qsh builder")
            return None
        lambda0 = _get_number(block, "lambda0", "model", diags, required=True)
        beta0 = _get_number(block, "beta0", "model", diags, default=0.0)
        if lambda0 is None or beta0 is None:
            return None
        model["lambda0"] = lambda0
        model["beta0"] = beta0
    else:
        for key in ("beta0", "lambda0"):
            if key in block:
                _fatal(diags, f"model.{key}",
                       f"only the qsh builder takes {key}")
                return None
        if "phi0" not in block:
            _fatal(diags, "model.phi0", "required key missing")
            return None
        parsed = _parse_phi0(block["phi0"], "model.phi0", diags)
        if parsed is None:
            return None
        model["phi0"], model["phi0_frac"] = parsed
    if kind in ("chern", "bands"):
        if builder not in ("landau", "oam-gauge"):
            _fatal(diags, "model.builder",
                   f"bulk band analysis needs a scalar-flux builder, got {builder!r}")
            return None
        if model["phi0_frac"] is None:
            _fatal(diags, "model.phi0",
                   "bulk band analysis needs rational flux [p, q]")
            return None
    return model


def _parse_decay(raw: dict, diags) -> DecaySpec | None:
    block = _check_block(raw, "decay", {"gamma"}, diags)
    if block is None:
        return None
    gamma = _get_number(block, "gamma", "decay", diags, required=True)
    if gamma is None:
        return None
    if gamma <= 0:
        _fatal(diags, "decay.gamma", "loss must be positive")
        return None
    return DecaySpec(gamma=gamma)


def _parse_omega(raw: dict, diags) -> np.ndarray | None:
    block = _check_block(raw, "omega", {"start", "stop", "num", "values"}, diags)
    if block is None:
        return None
    has_values = "values" in block
    has_range = any(k in block for k in ("start", "stop", "num"))
    if has_values and has_range:
        _fatal(diags, "omega", "give either 'values' or 'start'/'stop'/'num'")
        return None
    if has_values:
        values = block["values"]
        if (not isinstance(values, list) or not values
                or not all(_is_number(v) and np.isfinite(v) for v in values)):
            _fatal(diags, "omega.values",
                   "must be a non-empty list of finite numbers")
            return None
        return np.asarray([float(v) for v in values])
    start = _get_number(block, "start", "omega", diags, required=True)
    stop = _get_number(block, "stop", "omega", diags, required=True)
    num = _get_int(block, "num", "omega", diags, required=True, minimum=1)
    if None in (start, stop, num):
        return None
    return np.linspace(start, stop, num)


def _parse_site(value, path: str, spec: LatticeSpec | None, diags
                ) -> SiteIndex | None:
    if (not isinstance(value, list) or len(value) not in (2, 3)
            or not all(isinstance(v, int) and not isinstance(v, bool)
                       for v in value)):
        _fatal(diags, path, f"must be [j, l] or [j, l, s] integers, got {value!r}")
        return None
    site = SiteIndex(value[0], value[1], value[2] if len(value) == 3 else 0)
    if spec is not None:
        try:
            flat_index(spec, site)
        except (ValueError, IndexError) as exc:
            _fatal(diags, path, str(exc))
            return None
    return site


def _parse_region(raw: dict, spec: LatticeSpec | None, diags
                  ) -> EdgeRegion | None:
    if "region" not in raw:
        region = EdgeRegion(Side.RIGHT, 4)
    else:
        block = _check_block(raw, "region", {"side", "depth"}, diags)
        if block is None:
            return None
        side = _get_choice(block, "side", "region", diags,
                           ("left", "right"), default="right")
        depth = _get_int(block, "depth", "region", diags, default=4, minimum=1)
        if side is None or depth is None:
            return None
        region = EdgeRegion(Side(side), depth)
    if spec is not None:
        try:
            region.columns(spec)
        except ValueError as exc:
            _fatal(diags, "region.depth", str(exc))
            return None
    return region


def _parse_disorder(raw: dict, diags) -> dict | None:
    block = _check_block(
        raw, "disorder",
        {"sigma_detuning", "sigma_coupling_mag", "sigma_coupling_phase",
         "sigma_loss", "scope", "envelope_width", "trials", "input_l_values"},
        diags,
    )
    if block is None:
        return None
    sigmas = {
        key: _get_number(block, key, "disorder", diags, default=0.0)
        for key in ("sigma_detuning", "sigma_coupling_mag",
                    "sigma_coupling_phase", "sigma_loss")
    }
    scope = _get_choice(block, "scope", "disorder", diags,
                        tuple(s.value for s in DisorderScope),
                        default=DisorderScope.PER_CAVITY_LINK.value)
    width = None
    if "envelope_width" in block and block["envelope_width"] is not None:
        width = _get_number(block, "envelope_width", "disorder", diags)
        if width is not None and width <= 0:
            _fatal(diags, "disorder.envelope_width",
                   f"must be positive, got {width}")
            return None
    trials = _get_int(block, "trials", "disorder", diags, default=100, minimum=2)
    input_l_values = block.get("input_l_values", [0])
    if (not isinstance(input_l_values, list) or not input_l_values
            or not all(isinstance(v, int) and not isinstance(v, bool)
                       for v in input_l_values)):
        _fatal(diags, "disorder.input_l_values",
               f"must be a non-empty list of integers, got {input_l_values!r}")
        return None
    if None in sigmas.values() or scope is None or trials is None:
        return None
    envelope = None
    if width is not None:
        envelope = lambda x, w=width: saturating_oam_envelope(x, w)
    try:
        model = DisorderModel(
            sigma_detuning=sigmas["sigma_detuning"],
            sigma_coupling_mag=sigmas["sigma_coupling_mag"],
            sigma_coupling_phase=sigmas["sigma_coupling_phase"],
            sigma_loss=sigmas["sigma_loss"],
            oam_envelope=envelope,
            scope=DisorderScope(scope),
        )
    except ValueError as exc:
        _fatal(diags, "disorder", str(exc))
        return None
    if all(v == 0.0 for v in sigmas.values()):
        _warn(diags, "disorder", "all sigmas are zero; the model is a no-op")
    return {"model": model, "trials": trials,
            "input_l_values": list(input_l_values)}


def _parse_butterfly(raw: dict, diags) -> int | None:
    if "butterfly" not in raw:
        return 12
    block = _check_block(raw, "butterfly", {"q_max"}, diags)
    if block is None:
        return None
    return _get_int(block, "q_max", "butterfly", diags, default=12, minimum=1)


def _parse_qsh_block(raw: dict, diags) -> dict | None:
    block = _check_block(raw, "qsh", {"beta0_values", "energy_target"}, diags)
    if block is None:
        return None
    values = block.get("beta0_values")
    if (not isinstance(values, list) or not values
            or not all(_is_number(v) and np.isfinite(v) for v in values)):
        _fatal(diags, "qsh.beta0_values",
               "must be a non-empty list of finite numbers")
        return None
    target = _get_number(block, "energy_target", "qsh", diags, default=-1.6)
    if target is None:
        return None
    return {"beta0_values": [float(v) for v in values],
            "energy_target": target}


def _parse_sampling(raw: dict, diags) -> int | None:
    if "sampling" not in raw:
        return 64
    block = _check_block(raw, "sampling", {"k_points"}, diags)
    if block is None:
        return None
    return _get_int(block, "k_points", "sampling", diags, default=64, minimum=4)


def _parse_optics(raw: dict, diags) -> dict | None:
    block = _check_block(
        raw, "optics",
        {"r_values", "k_points", "s_c", "s_a", "k_wave", "omega0",
         "phi_x", "phi_y"},
        diags,
    )
    if block is None:
        return None
    r_values = block.get("r_values")
    if (not isinstance(r_values, list) or not r_values
            or not all(_is_number(v) for v in r_values)):
        _fatal(diags, "optics.r_values",
               "must be a non-empty list of numbers")
        return None
    if not all(0 < v < 1 for v in r_values):
        _fatal(diags, "optics.r_values",
               "reflection magnitudes must lie strictly between 0 and 1")
        return None
    out = {
        "r_values": [float(v) for v in r_values],
        "k_points": _get_int(block, "k_points", "optics", diags,
                             default=16, minimum=2),
        "s_c": _get_number(block, "s_c", "optics", diags, default=8.0),
        "s_a": _get_number(block, "s_a", "optics", diags, default=3.0),
        "k_wave": _get_number(block, "k_wave", "optics", diags,
                              default=float(np.pi)),
        "phi_x": _get_number(block, "phi_x", "optics", diags, default=0.0),
        "phi_y": _get_number(block, "phi_y", "optics", diags, default=0.0),
        "omega0": None,
    }
    if any(out[k] is None
           for k in ("k_points", "s_c", "s_a", "k_wave", "phi_x", "phi_y")):
        return None
    if "omega0" in block and block["omega0"] is not None:
        out["omega0"] = _get_number(block, "omega0", "optics", diags)
        if out["omega0"] is None:
            return None
    try:
        OpticalParams(out["r_values"][0], out["k_wave"], s_c=out["s_c"],
                      s_a=out["s_a"], phi_x=out["phi_x"], phi_y=out["phi_y"],
                      omega0=out["omega0"])
    except ValueError as exc:
        _fatal(diags, "optics", str(exc))
        return None
    return out


def _make_builder(model: dict, spec: LatticeSpec):
    name = model["builder"]
    if name == "landau":
        return lambda: build_landau_hofstadter(spec, model["phi0"])
    if name == "oam-gauge":
        return lambda: build_oam_gauge_hofstadter(spec, model["phi0"])
    if name == "dirac":
        return lambda: build_dirac(spec, model["phi0"])
    return lambda: build_qsh(spec, model["beta0"], model["lambda0"])


def _builder_spin_check(model: dict, spec: LatticeSpec, diags) -> None:
    needed = 2 if model["builder"] in ("dirac", "qsh") else 1
    if spec.spin_dim != needed:
        _fatal(diags, "lattice.spin_dim",
               f"builder '{model['builder']}' needs spin_dim={needed}, "
               f"got {spec.spin_dim}")


def _resolve(raw) -> tuple[list[Diagnostic], dict]:
    """Validate a raw config dict and resolve the library objects it names."""
    diags: list[Diagnostic] = []
    resolved: dict = {"seed": 0}
    if not isinstance(raw, dict):
        _fatal(diags, "", "config must be a JSON object")
        return diags, resolved
    kind = raw.get("kind")
    if kind is None:
        _fatal(diags, "kind", "required key missing")
        return diags, resolved
    if kind not in EXPERIMENT_KINDS:
        _fatal(diags, "kind",
               f"unknown kind {kind!r}; expected one of {list(EXPERIMENT_KINDS)}")
        return diags, resolved
    resolved["kind"] = kind

    required, optional = _KIND_KEYS[kind]
    allowed = _UNIVERSAL_KEYS | required | optional
    every_key = _UNIVERSAL_KEYS.union(*(r | o for r, o in _KIND_KEYS.values()))
    for key in raw:
        if key in allowed:
            continue
        if key in every_key:
            _fatal(diags, key, f"does not apply to kind '{kind}'")
        else:
            _fatal(diags, key, "unknown key")
    for key in sorted(required):
        if key not in raw:
            _fatal(diags, key, f"required for kind '{kind}'")

    seed = _get_int(raw, "seed", "", diags, default=0, minimum=0)
    if seed is not None:
        resolved["seed"] = seed
    if "out_dir" in raw and not isinstance(raw["out_dir"], str):
        _fatal(diags, "out_dir", "must be a string path")
    if "seed" in raw and kind not in _SEEDED_KINDS:
        _warn(diags, "seed", f"seed has no effect for kind '{kind}'")

    spec = _parse_lattice(raw, diags) if "lattice" in raw else None
    model = _parse_model(raw, kind, diags) if "model" in raw else None
    decay = _parse_decay(raw, diags) if "decay" in raw else None
    omega = _parse_omega(raw, diags) if "omega" in raw else None
    resolved.update(spec=spec, model=model, decay=decay, omega_grid=omega)

    if spec is not None and model is not None:
        _builder_spin_check(model, spec, diags)
        resolved["build"] = _make_builder(model, spec)
        if (model["builder"] == "landau" and spec.bc_x is Boundary.PERIODIC):
            total = spec.n_x * model["phi0"]
            if abs(total - round(total)) > 1e-9:
                _fatal(diags, "model.phi0",
                       f"cavity ring needs integer total flux, "
                       f"got n_x * phi0 = {total}")
        # The magnetic unit cell spans q OAM sites: a periodic OAM axis
        # must hold an integer number of cells.
        if (model["phi0_frac"] is not None and spec.bc_y is Boundary.PERIODIC
                and spec.n_l % model["phi0_frac"].denominator != 0):
            q = model["phi0_frac"].denominator
            _fatal(diags, "lattice",
                   f"window not multiple of q (window length {spec.n_l}, q={q})")

    if kind == "spectrum" and spec is not None:
        if "inputs" in raw:
            entries = raw["inputs"]
            if not isinstance(entries, list) or not entries:
                _fatal(diags, "inputs", "must be a non-empty list of sites")
            else:
                sites = [
                    _parse_site(entry, f"inputs[{i}]", spec, diags)
                    for i, entry in enumerate(entries)
                ]
                if all(s is not None for s in sites):
                    resolved["inputs"] = sites
        elif not spec.l_min <= 0 <= spec.l_max:
            _fatal(diags, "lattice",
                   "default probes enter at OAM 0, outside the window")
        else:
            resolved["inputs"] = [
                SiteIndex(j, 0, s)
                for j in range(spec.n_x) for s in range(spec.spin_dim)
            ]

    if kind == "butterfly":
        if spec is not None and spec.spin_dim != 1:
            _fatal(diags, "lattice.spin_dim",
                   "the flux sweep uses the scalar cavity-phase lattice")
        if spec is not None and not spec.l_min <= 0 <= spec.l_max:
            _fatal(diags, "lattice", "probes enter at OAM 0, outside the window")
        resolved["q_max"] = _parse_butterfly(raw, diags)

    if kind == "edge-map":
        if omega is not None and omega.size != 1:
            _fatal(diags, "omega",
                   f"edge-map needs exactly one omega value, got {omega.size}")
        if spec is not None:
            if "input" in raw:
                resolved["input"] = _parse_site(raw["input"], "input", spec,
                                                diags)
            else:
                if not spec.l_min <= 0 <= spec.l_max:
                    _fatal(diags, "lattice",
                           "default input sits at OAM 0, outside the window")
                else:
                    resolved["input"] = SiteIndex(0, 0, 0)
            if resolved.get("input") is not None \
                    and resolved["input"].j not in (0, spec.n_x - 1):
                _fatal(diags, "input",
                       f"input column {resolved['input'].j} is not an edge cavity")

    if kind in ("displacement", "disorder"):
        resolved["region"] = _parse_region(raw, spec, diags)
        resolved["disorder"] = (_parse_disorder(raw, diags)
                                if "disorder" in raw else None)
        if spec is not None and resolved["disorder"] is not None:
            try:
                _check_coupling_axis(spec, resolved["disorder"]["model"])
            except ValueError as exc:
                _fatal(diags, "disorder", str(exc))
        if spec is not None and not spec.l_min <= 0 <= spec.l_max:
            _fatal(diags, "lattice", "probes enter at OAM 0, outside the window")

    if kind in ("chern", "bands") and model is not None:
        k_points = _parse_sampling(raw, diags)
        resolved["k_points"] = k_points
        if k_points is not None:
            frac = model["phi0_frac"]
            try:
                resolved["bz_grid"] = MagneticBZGrid(
                    frac.numerator, frac.denominator, k_points, k_points
                )
            except ValueError as exc:
                _fatal(diags, "model.phi0", str(exc))

    if kind == "qsh":
        if "qsh" in raw:
            resolved["qsh"] = _parse_qsh_block(raw, diags)
        if model is not None and model["builder"] != "qsh":
            _fatal(diags, "model.builder",
                   f"kind 'qsh' needs the qsh builder, got {model['builder']!r}")
        if spec is not None:
            if spec.spin_dim != 2:
                _fatal(diags, "lattice.spin_dim",
                       f"polarization-pair analysis needs spin_dim=2, "
                       f"got {spec.spin_dim}")
            if spec.n_x % 4 != 0:
                _fatal(diags, "lattice.n_x",
                       f"cavity count must be a multiple of 4 "
                       f"(four-cavity unit cell), got {spec.n_x}")

    if kind == "dispersion-check" and "optics" in raw:
        resolved["optics"] = _parse_optics(raw, diags)

    return diags, resolved


def validate_config(raw) -> list[Diagnostic]:
    """Schema and physics checks; returns diagnostics, performs no computation."""
    diagnostics, _ = _resolve(raw)
    return diagnostics


# ---------------------------------------------------------------------------
# Output serialization
# ---------------------------------------------------------------------------


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _csv_bytes(header: tuple[str, ...], rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_value(v) for v in row])
    return buffer.getvalue().encode("utf-8")


def _grid_bytes(grid: np.ndarray, l_min: int, j_min: int) -> bytes:
    lines = [f"{grid.shape[0]} {grid.shape[1]} {l_min} {j_min}"]
    for row in grid:
        lines.append(" ".join(format(float(v), ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _atomic_write(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _ordered_map(fn, items, threads: int) -> list:
    """Map preserving order; thread workers never change the values."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _run_spectrum(res: dict, threads: int):
    H = res["build"]()
    grid = res["omega_grid"]
    values = total_transmission_spectrum(H, res["decay"], res["inputs"], grid)
    rows = list(zip(grid.tolist(), values.tolist()))
    return [("spectrum.csv", "csv", (("omega", "transmission"), rows))], {}


def _farey_fluxes(q_max: int) -> list[Fraction]:
    fluxes = {Fraction(0, 1), Fraction(1, 1)}
    for q in range(1, q_max + 1):
        for p in range(q + 1):
            fluxes.add(Fraction(p, q))
    return sorted(fluxes)


def _run_butterfly(res: dict, threads: int):
    spec, decay, grid = res["spec"], res["decay"], res["omega_grid"]
    fluxes = _farey_fluxes(res["q_max"])
    inputs = [SiteIndex(j, 0, 0) for j in range(spec.n_x)]

    def one_flux(frac: Fraction) -> np.ndarray:
        H = build_landau_hofstadter(spec, float(frac))
        return total_transmission_spectrum(H, decay, inputs, grid)

    spectra = _ordered_map(one_flux, fluxes, threads)
    rows = []
    for frac, values in zip(fluxes, spectra):
        for omega, value in zip(grid.tolist(), values.tolist()):
            rows.append((frac.numerator, frac.denominator, omega, value))
    header = ("phi0_num", "phi0_den", "omega", "transmission")
    results = {"flux_count": len(fluxes)}
    return [("butterfly.csv", "csv", (header, rows))], results


def _run_edge_map(res: dict, threads: int):
    H = res["build"]()
    spec = res["spec"]
    omega = float(res["omega_grid"][0])
    input = res["input"]
    grid = transmission_map(H, res["decay"], omega, input)
    files = []
    if grid.ndim == 2:
        files.append(("edge-map.grid", "grid", (grid, spec.l_min, 0)))
    else:
        for s in range(grid.shape[2]):
            files.append(
                (f"edge-map_s{s}.grid", "grid", (grid[:, :, s], spec.l_min, 0))
            )
    results = {"omega": omega, "input": [input.j, input.l, input.s],
               "total_power": float(grid.sum())}
    return files, results


def _run_displacement(res: dict, threads: int):
    H = res["build"]()
    grid = res["omega_grid"]
    region = res["region"]
    disorder = res["disorder"]
    header = ("omega", "l_e_mean", "l_e_std")
    if disorder is None:
        values = displacement_spectrum(H, res["decay"], grid, region)
        rows = [(w, v, 0.0) for w, v in zip(grid.tolist(), values.tolist())]
        results = {"trials": 1, "region": [region.side.value, region.depth]}
    else:
        summary = displacement_robustness(
            H, disorder["model"], res["decay"], grid, region,
            trials=disorder["trials"], seed=res["seed"],
            input_l_values=tuple(disorder["input_l_values"]),
        )
        rows = list(zip(grid.tolist(), summary.mean.tolist(),
                        summary.std.tolist()))
        results = {"trials": disorder["trials"],
                   "region": [region.side.value, region.depth]}
    return [("displacement.csv", "csv", (header, rows))], results


def _run_chern(res: dict, threads: int):
    data = band_structure(res["bz_grid"])
    q = data.q
    fukui: list[int | None] = []
    mismatch: list[int | None] = []
    for m in range(q):
        try:
            fukui.append(int(fukui_hatsugai_chern(data, m)))
        except ValueError:
            fukui.append(None)
        try:
            mismatch.append(int(phase_mismatch_chern(data, m)))
        except ValueError:
            mismatch.append(None)
    rows = [(m + 1, fukui[m], mismatch[m]) for m in range(q)]
    header = ("band", "chern_fukui_hatsugai", "chern_phase_mismatch")
    band_1 = fukui[0] if fukui[0] is not None else mismatch[0]
    results = {"fukui_hatsugai": fukui, "phase_mismatch": mismatch,
               "band_1": band_1}
    return [("chern.csv", "csv", (header, rows))], results


def _run_bands(res: dict, threads: int):
    data = band_structure(res["bz_grid"])
    grid = res["bz_grid"]
    kxs, kys = grid.kx_values, grid.ky_values
    rows = []
    for band in range(data.q):
        energies = data.energies[band]
        for a, kx in enumerate(kxs.tolist()):
            for b, ky in enumerate(kys.tolist()):
                rows.append((kx, ky, band + 1, energies[a, b]))
    header = ("kx", "ky", "band", "energy")
    return [("bands.csv", "csv", (header, rows))], {"bands": data.q}


def _run_qsh(res: dict, threads: int):
    spec, model, block = res["spec"], res["model"], res["qsh"]
    betas = block["beta0_values"]
    target = block["energy_target"]
    results: dict = {"energy_target": target}
    reports = None
    if len(betas) >= 3 and all(b2 > b1 for b1, b2 in zip(betas, betas[1:])):
        try:
            estimate = transition_detector(spec, model["lambda0"], betas, target)
            results["transition_beta0"] = float(estimate.beta0)
            results["transition_uncertainty"] = float(estimate.uncertainty)
            reports = estimate.reports
        except ValueError as exc:
            results["transition_error"] = str(exc)
    if reports is None:  # no estimate, so no scan to reuse
        reports = qsh_gap_scan(spec, model["lambda0"], betas, target)
    rows = [(r.beta0, r.e_low, r.e_high, r.width) for r in reports]
    header = ("beta0", "gap_low", "gap_high", "gap_width")
    return [("qsh.csv", "csv", (header, rows))], results


def _run_dispersion_check(res: dict, threads: int):
    opt = res["optics"]
    k_bloch = np.linspace(-np.pi, np.pi, opt["k_points"], endpoint=False)

    def one_r(r_mag: float):
        params = OpticalParams(
            r_mag, opt["k_wave"], s_c=opt["s_c"], s_a=opt["s_a"],
            phi_x=opt["phi_x"], phi_y=opt["phi_y"], omega0=opt["omega0"],
        )
        kappa = float(coupling_strength(params))
        rows = []
        worst = 0.0
        for kx in k_bloch.tolist():
            for ky in k_bloch.tolist():
                detuning = float(bloch_dispersion(params, kx, ky))
                reference = -2.0 * kappa * (
                    float(np.cos(kx - TWO_PI * opt["phi_x"]))
                    + float(np.cos(ky - TWO_PI * opt["phi_y"]))
                )
                deviation = abs(detuning - reference)
                worst = max(worst, deviation / (4.0 * kappa))
                rows.append((r_mag, kx, ky, detuning, reference, deviation))
        return rows, kappa, worst

    outputs = _ordered_map(one_r, opt["r_values"], threads)
    rows = [row for chunk, _, _ in outputs for row in chunk]
    header = ("r_mag", "kx_bloch", "ky_bloch", "detuning",
              "cosine_reference", "abs_deviation")
    results = {
        "coupling_strength": {
            str(r): kappa for r, (_, kappa, _) in zip(opt["r_values"], outputs)
        },
        "max_rel_deviation": {
            str(r): worst for r, (_, _, worst) in zip(opt["r_values"], outputs)
        },
    }
    return [("dispersion-check.csv", "csv", (header, rows))], results


_RUNNERS = {
    "spectrum": _run_spectrum,
    "butterfly": _run_butterfly,
    "edge-map": _run_edge_map,
    "displacement": _run_displacement,
    "disorder": _run_displacement,
    "chern": _run_chern,
    "bands": _run_bands,
    "qsh": _run_qsh,
    "dispersion-check": _run_dispersion_check,
}


def run(config: ExperimentConfig, out_dir, threads: int = 1) -> RunManifest:
    """Execute one validated experiment and write its files atomically.

    All results are computed in memory first; the data files are then
    written through temporaries and renamed, the manifest last, so an
    interrupted run never leaves a partial file behind.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    start = time.perf_counter()
    files, results = _RUNNERS[config.kind](config.resolved, threads)

    payloads: list[tuple[str, bytes]] = []
    records = []
    for name, payload_kind, payload in files:
        if payload_kind == "csv":
            data = _csv_bytes(*payload)
        else:
            data = _grid_bytes(*payload)
        payloads.append((name, data))
        records.append({
            "path": name,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        })

    manifest = RunManifest(
        kind=config.kind,
        artifact_version=__version__,
        config=config.echo,
        seed=config.seed,
        threads=threads,
        wall_time_seconds=round(time.perf_counter() - start, 6),
        outputs=tuple(records),
        results=results,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in payloads:
        _atomic_write(out / name, data)
    _atomic_write(out / "manifest.json", manifest.to_json_bytes())
    return manifest


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamphoton",
        description="Run one lattice-photonics experiment from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", metavar="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run a '{kind}' config")
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON config file")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (overrides config out_dir)")
        p.add_argument("--seed", type=int, metavar="N",
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=1, metavar="N",
                       help="worker cap for parallel sweeps (default 1)")
        p.add_argument("--validate-only", action="store_true",
                       help="check the config and exit without computing")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns 0 on success, 2 on config error, 3 on failure."""
    args = _build_parser().parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2

    diagnostics = validate_config(raw)
    for diagnostic in diagnostics:
        print(diagnostic, file=sys.stderr)
    fatal = any(d.level == "fatal" for d in diagnostics)
    if (not fatal and isinstance(raw, dict)
            and raw.get("kind") != args.command):
        print(
            f"config error: config kind {raw.get('kind')!r} does not match "
            f"subcommand '{args.command}'",
            file=sys.stderr,
        )
        return 2
    if args.validate_only:
        if not fatal:
            print("config ok", file=sys.stderr)
        return 2 if fatal else 0
    if fatal:
        return 2
    if args.threads is not None and args.threads < 1:
        print("config error: --threads must be at least 1", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print("config error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if args.seed is not None and args.command not in _SEEDED_KINDS:
        print(
            Diagnostic(
                "warning", "seed",
                f"seed has no effect for kind '{args.command}'",
            ),
            file=sys.stderr,
        )

    config = ExperimentConfig.from_dict(raw, seed_override=args.seed)
    out_dir = args.out if args.out is not None else config.out_dir
    if out_dir is None:
        print("config error: no output directory (give --out or out_dir)",
              file=sys.stderr)
        return 2
    try:
        manifest = run(config, out_dir, threads=args.threads)
    except Exception as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(manifest.outputs) + 1} files to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
