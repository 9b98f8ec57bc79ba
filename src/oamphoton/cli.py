"""Command-line front end: validated configs in, deterministic data files out.

One experiment per run, selected by the config's ``kind`` and mirrored by
the subcommand: transmission spectra, flux-sweep butterflies, edge maps,
clean OAM-displacement spectra and their disorder averages, Chern numbers,
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

import copy
import csv
import hashlib
import importlib
import io
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .hamiltonians import (
    build_dirac,
    build_landau_hofstadter,
    build_oam_gauge_hofstadter,
    build_qsh,
)
from .lattice import Boundary, LatticeSpec, SiteIndex, flat_index
from .scattering import DecaySpec, total_transmission_spectrum
from . import __version__

if TYPE_CHECKING:
    import argparse

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

_UNIVERSAL_KEYS = {"kind", "seed", "out_dir"}

#: The largest seed: the disorder streams are ``Philox(key=seed)``, and a
#: Philox key lies below 2**128.
_SEED_MAX = 2**128 - 1

#: The range of every other integer: what NumPy can index (``np.intp``).
_INDEX_MIN, _INDEX_MAX = int(np.iinfo(np.intp).min), int(np.iinfo(np.intp).max)

_LOG = logging.getLogger("oamphoton")

#: Per kind: (required top-level blocks, optional top-level blocks).
_KIND_KEYS: dict[str, tuple[set[str], set[str]]] = {
    "spectrum": ({"lattice", "model", "decay", "omega"}, {"inputs"}),
    "butterfly": ({"lattice", "decay", "omega"}, {"butterfly"}),
    "edge-map": ({"lattice", "model", "decay", "omega"}, {"input"}),
    "displacement": ({"lattice", "model", "decay", "omega"}, {"region"}),
    "chern": ({"model"}, {"sampling"}),
    "bands": ({"model"}, {"sampling"}),
    "disorder": ({"lattice", "model", "decay", "omega", "disorder"}, {"region"}),
    "qsh": ({"lattice", "model", "qsh"}, set()),
    "dispersion-check": ({"optics"}, set()),
}

EXPERIMENT_KINDS = tuple(_KIND_KEYS)

#: Builder name -> (spin_dim, lattice axis its gauge phase winds along,
#: build).  These builds and the butterfly's look ``build_*`` up in this
#: module at call time.
_BUILDERS = {
    "landau": (1, "x", lambda spec, m: build_landau_hofstadter(spec, m["phi0"])),
    "oam-gauge": (1, "y", lambda spec, m: build_oam_gauge_hofstadter(spec, m["phi0"])),
    "dirac": (2, "x", lambda spec, m: build_dirac(spec, m["phi0"])),
    "qsh": (2, "x", lambda spec, m: build_qsh(spec, m["beta0"], m["lambda0"])),
}

#: Module -> the names this module takes from it, for the modules that only
#: some kinds use.  Each loads, and binds its names here, when a kind that
#: uses it is validated or run, or when one of its names is read from this
#: module; the callers look the names up here at call time.
_DEFERRED = {
    "edge": ("EdgeRegion", "Side", "displacement_spectrum", "transmission_map"),
    "disorder": ("DisorderModel", "DisorderScope", "_check_coupling_axis",
                 "displacement_robustness", "saturating_oam_envelope"),
    "chern": ("MagneticBZGrid", "band_structure", "fukui_hatsugai_chern",
              "phase_mismatch_chern"),
    # transition_detector is unused here, but perfbench/spans.py patches it.
    "qsh": ("_locate_transition", "qsh_gap_scan", "transition_detector"),
    "optics": ("OpticalParams", "bloch_dispersion", "coupling_strength"),
}

#: Kind -> the modules of ``_DEFERRED`` it uses; the others use none.
_KIND_MODULES = {
    "edge-map": ("edge",),
    "displacement": ("edge",),
    "disorder": ("edge", "disorder"),
    "chern": ("chern",),
    "bands": ("chern",),
    "qsh": ("qsh",),
    "dispersion-check": ("optics",),
}


def _load(*modules: str) -> None:
    """Load ``modules`` of ``_DEFERRED`` and bind their names here; a name
    already bound (a tracing wrapper, say) is kept."""
    for module in modules:
        loaded = importlib.import_module(f"{__package__}.{module}")
        for name in _DEFERRED[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    """A deferred name read from outside loads its module (PEP 562)."""
    for module, names in _DEFERRED.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        """Validate ``raw`` and resolve it; raise :class:`ConfigError` on fatals.

        ``seed_override``, if given, replaces the config's seed.
        """
        raw = _with_seed(raw, seed_override)
        return cls._from_resolved(raw, *_resolve(raw))

    @classmethod
    def _from_resolved(cls, raw: dict, diagnostics: list[Diagnostic],
                       resolved: dict) -> "ExperimentConfig":
        fatal = [d for d in diagnostics if d.level == "fatal"]
        if fatal:
            raise ConfigError(fatal)
        echo = copy.deepcopy(raw)
        echo["seed"] = resolved["seed"]
        return cls(
            kind=raw["kind"],
            seed=resolved["seed"],
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


def _with_seed(raw, seed: int | None):
    """``raw`` with its seed replaced by ``seed``, where one is given."""
    return dict(raw, seed=seed) if seed is not None and isinstance(raw, dict) else raw


def _fatal(diags: list[Diagnostic], path: str, message: str) -> None:
    diags.append(Diagnostic("fatal", path, message))


def _warn(diags: list[Diagnostic], path: str, message: str) -> None:
    diags.append(Diagnostic("warning", path, message))


def _make(diags: list[Diagnostic], path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError becomes a fatal at ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        _fatal(diags, path, str(exc))
        return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value) -> float | None:
    """``value`` as a float if it is a number within float range, else None.

    A JSON integer can exceed the float range; it is not a finite number.
    """
    if not _is_number(value):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if np.isfinite(number) else None


# Readers turn one config value into its parsed form or raise ValueError
# with the diagnostic message.


def _number(value) -> float:
    number = _finite(value)
    if number is None:
        raise ValueError(f"must be a finite number, got {value!r}")
    return number


def _integer(minimum: int = _INDEX_MIN, maximum: int = _INDEX_MAX):
    def read(value) -> int:
        if not _is_int(value):
            raise ValueError(f"must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"must be at least {minimum}, got {value}")
        if value > maximum:
            raise ValueError(f"must be at most {maximum}, got {value}")
        return value
    return read


def _choice(*options: str):
    def read(value) -> str:
        if value not in options:
            raise ValueError(f"must be one of {sorted(options)}, got {value!r}")
        return value
    return read


def _list_of(item, what: str):
    def read(value) -> list:
        try:
            if isinstance(value, list) and value:
                return [item(v) for v in value]
        except ValueError:
            pass
        raise ValueError(f"must be a non-empty list of {what}, got {value!r}")
    return read


def _nullable(reader):
    return lambda value: None if value is None else reader(value)


def _scope(value) -> str:
    """A disorder scope: a value of ``DisorderScope``, which the disorder
    kind loads before it reads its block."""
    return _choice(*(scope.value for scope in DisorderScope))(value)


def _phi0(value) -> tuple[float, Fraction | None]:
    """A flux is a finite number or an exact ``[p, q]`` integer pair."""
    number = _finite(value)
    if number is not None:
        return number, None
    if isinstance(value, list) and len(value) == 2 and all(map(_is_int, value)):
        p, q = value
        if q < 1:
            raise ValueError(f"denominator must be positive, got {q}")
        frac = Fraction(p, q)
        try:
            return float(frac), frac
        except OverflowError:
            raise ValueError("the flux p/q must lie within the float range") from None
    raise ValueError(f"must be a finite number or a [p, q] integer pair, got {value!r}")


#: Default of a key that must be given.
_REQUIRED = object()

#: Block -> key -> (reader, default), in the order the keys are checked.
#: The README config-schema table documents the same keys and defaults.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "lattice": {
        "n_x": (_integer(), _REQUIRED), "l_min": (_integer(), _REQUIRED),
        "l_max": (_integer(), _REQUIRED), "spin_dim": (_integer(), 1),
        "bc_x": (_choice("open", "periodic"), "open"),
        "bc_y": (_choice("open", "periodic"), "open"),
    },
    "model": {
        "builder": (_choice(*_BUILDERS), _REQUIRED), "phi0": (_phi0, _REQUIRED),
        "lambda0": (_number, _REQUIRED), "beta0": (_number, 0.0),
    },
    "decay": {"gamma": (_number, _REQUIRED)},
    "omega": {
        "start": (_number, _REQUIRED), "stop": (_number, _REQUIRED),
        "num": (_integer(1), _REQUIRED),
        "values": (_list_of(_number, "finite numbers"), _REQUIRED),
    },
    "region": {"side": (_choice("left", "right"), "right"), "depth": (_integer(1), 4)},
    "disorder": {
        "sigma_detuning": (_number, 0.0), "sigma_coupling_mag": (_number, 0.0),
        "sigma_coupling_phase": (_number, 0.0), "sigma_loss": (_number, 0.0),
        "scope": (_scope, "per_cavity_link"),
        "envelope_width": (_nullable(_number), None),
        "trials": (_integer(2), 100),
        "input_l_values": (_list_of(_integer(), "integers"), (0,)),
    },
    "butterfly": {"q_max": (_integer(1), 12)},
    "sampling": {"k_points": (_integer(4), 64)},
    "qsh": {
        "beta0_values": (_list_of(_number, "finite numbers"), _REQUIRED),
        "energy_target": (_number, -1.6),
    },
    "optics": {
        "r_values": (_list_of(_number, "finite numbers"), _REQUIRED),
        "k_points": (_integer(2), 16), "s_c": (_number, 8.0), "s_a": (_number, 3.0),
        "k_wave": (_number, float(np.pi)), "phi_x": (_number, 0.0),
        "phi_y": (_number, 0.0), "omega0": (_nullable(_number), None),
    },
}


def _read(raw: dict, name: str, diags, select=None) -> dict | None:
    """Read block ``name`` of ``raw`` through its schema.

    Unknown keys are fatal and stop the read.  ``select(block)``, where
    given, names the keys that apply to this block, or raises
    ``ValueError(path, message)`` for a key that does not.  Each key that
    applies is read: a missing required key and a value its reader refuses
    are fatal, and an absent key takes its default (an absent block reads
    as all defaults).  Returns the parsed keys, or None after any fatal.
    """
    block = raw.get(name, {})
    if not isinstance(block, dict):
        _fatal(diags, name, "must be an object")
        return None
    schema = _SCHEMA[name]
    unknown = [key for key in block if key not in schema]
    for key in unknown:
        _fatal(diags, f"{name}.{key}", "unknown key")
    if unknown:
        return None
    try:
        keys = schema if select is None else select(block)
    except ValueError as exc:
        _fatal(diags, *exc.args)
        return None
    values, ok = {}, True
    for key in keys:
        reader, default = schema[key]
        try:
            if key in block:
                values[key] = reader(block[key])
            elif default is _REQUIRED:
                raise ValueError("required key missing")
            else:
                values[key] = default
        except ValueError as exc:
            _fatal(diags, f"{name}.{key}", str(exc))
            ok = False
    return values if ok else None


def _parse_lattice(raw: dict, diags) -> LatticeSpec | None:
    block = _read(raw, "lattice", diags)
    if block is None:
        return None
    return _make(diags, "lattice", LatticeSpec, block["n_x"], block["l_min"],
                 block["l_max"], spin_dim=block["spin_dim"],
                 bc_x=Boundary(block["bc_x"]), bc_y=Boundary(block["bc_y"]))


def _model_keys(block: dict) -> tuple[str, ...]:
    """The model keys its builder takes; an invalid builder is read alone."""
    builder = block.get("builder")
    if not isinstance(builder, str) or builder not in _BUILDERS:
        return ("builder",)
    if builder == "qsh":
        if "phi0" in block:
            raise ValueError("model.phi0", "not used by the qsh builder")
        return ("builder", "lambda0", "beta0")
    for key in ("beta0", "lambda0"):
        if key in block:
            raise ValueError(f"model.{key}", f"only the qsh builder takes {key}")
    return ("builder", "phi0")


def _parse_model(raw: dict, kind: str, diags) -> dict | None:
    model = _read(raw, "model", diags, _model_keys)
    if model is None:
        return None
    if model["builder"] == "qsh":
        # Its OAM hops thread flux +-1/4 per polarization along the cavities.
        model["phi0"], model["phi0_frac"] = 0.25, Fraction(1, 4)
    else:
        model["phi0"], model["phi0_frac"] = model["phi0"]
    if kind in ("chern", "bands"):
        if model["builder"] not in ("landau", "oam-gauge"):
            _fatal(diags, "model.builder", "bulk band analysis needs a scalar-flux "
                   f"builder, got {model['builder']!r}")
            return None
        if model["phi0_frac"] is None:
            _fatal(diags, "model.phi0", "bulk band analysis needs rational flux [p, q]")
            return None
    return model


def _parse_decay(raw: dict, diags) -> DecaySpec | None:
    block = _read(raw, "decay", diags)
    if block is None:
        return None
    if block["gamma"] <= 0:
        _fatal(diags, "decay.gamma", "loss must be positive")
        return None
    return DecaySpec(gamma=block["gamma"])


def _omega_keys(block: dict) -> tuple[str, ...]:
    """Either listed ``values`` or a ``start``/``stop``/``num`` range."""
    span = ("start", "stop", "num")
    if "values" not in block:
        return span
    if any(key in block for key in span):
        raise ValueError("omega", "give either 'values' or 'start'/'stop'/'num'")
    return ("values",)


def _parse_omega(raw: dict, diags) -> np.ndarray | None:
    block = _read(raw, "omega", diags, _omega_keys)
    if block is None:
        return None
    if "values" in block:
        return np.asarray(block["values"])
    try:
        return np.linspace(block["start"], block["stop"], block["num"])
    except (ValueError, IndexError, MemoryError):
        _fatal(diags, "omega.num", f"a grid of {block['num']} points does not fit "
               "in memory")
        return None


def _parse_site(value, path: str, spec: LatticeSpec, diags) -> SiteIndex | None:
    if (not isinstance(value, list) or len(value) not in (2, 3)
            or not all(map(_is_int, value))):
        _fatal(diags, path, f"must be [j, l] or [j, l, s] integers, got {value!r}")
        return None
    site = SiteIndex(value[0], value[1], value[2] if len(value) == 3 else 0)
    try:
        flat_index(spec, site)
    except (ValueError, IndexError) as exc:
        _fatal(diags, path, str(exc))
        return None
    return site


def _parse_region(raw: dict, spec: LatticeSpec | None, diags) -> EdgeRegion | None:
    block = _read(raw, "region", diags)
    if block is None:
        return None
    region = EdgeRegion(Side(block["side"]), block["depth"])
    if spec is not None and _make(diags, "region.depth", region.columns, spec) is None:
        return None
    return region


def _parse_disorder(raw: dict, diags) -> dict | None:
    block = _read(raw, "disorder", diags)
    if block is None:
        return None
    width = block["envelope_width"]
    if width is not None and width <= 0:
        _fatal(diags, "disorder.envelope_width", f"must be positive, got {width}")
        return None
    sigmas = {k: v for k, v in block.items() if k.startswith("sigma_")}
    envelope = None if width is None else lambda x: saturating_oam_envelope(x, width)
    block["model"] = _make(diags, "disorder", DisorderModel, **sigmas,
                           oam_envelope=envelope, scope=DisorderScope(block["scope"]))
    if block["model"] is None:
        return None
    if all(v == 0.0 for v in sigmas.values()):
        _warn(diags, "disorder", "all sigmas are zero; the model is a no-op")
    return block


def _parse_optics(raw: dict, diags) -> dict | None:
    block = _read(raw, "optics", diags)
    if block is None:
        return None
    if not all(0 < v < 1 for v in block["r_values"]):
        _fatal(diags, "optics.r_values", "reflection magnitudes must lie strictly "
               "between 0 and 1")
        return None
    params = _make(diags, "optics", OpticalParams, block["r_values"][0], block["k_wave"],
                   s_c=block["s_c"], s_a=block["s_a"], phi_x=block["phi_x"],
                   phi_y=block["phi_y"], omega0=block["omega0"])
    return None if params is None else block


def _check_seam(spec: LatticeSpec, model: dict, diags) -> None:
    """A periodic axis the gauge phase winds along needs length * phi0 in Z.

    Otherwise the plaquettes across the seam hold a flux unlike the rest.
    """
    axis = _BUILDERS[model["builder"]][1]
    if axis == "x":
        bc, length, ring = spec.bc_x, "n_x", "cavity ring"
    else:
        bc, length, ring = spec.bc_y, "n_l", "OAM ring (window not multiple of q)"
    total = getattr(spec, length) * model["phi0"]
    if bc is Boundary.PERIODIC and abs(total - round(total)) > 1e-9:
        _fatal(diags, "lattice", f"{ring} needs integer total flux, "
               f"got {length} * phi0 = {total}")


def _probe_window(spec: LatticeSpec, ls, path: str, diags) -> None:
    """The probes enter at the OAM values ``ls``; each must be in the window."""
    outside = [l for l in ls if not spec.l_min <= l <= spec.l_max]
    if outside:
        _fatal(diags, path, f"probes enter at OAM {', '.join(map(str, outside))}, "
               f"outside the window [{spec.l_min}, {spec.l_max}]")


def _resolve(raw) -> tuple[list[Diagnostic], dict]:
    """Validate a raw config dict and resolve the library objects it names."""
    diags: list[Diagnostic] = []
    resolved: dict = {}
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

    _load(*_KIND_MODULES.get(kind, ()))
    required, optional = _KIND_KEYS[kind]
    for key in raw:
        if key not in _UNIVERSAL_KEYS | required | optional:
            users = [k for k, (r, o) in _KIND_KEYS.items() if key in r | o]
            _fatal(diags, key, f"does not apply to kind '{kind}'; kinds that take "
                   f"it: {', '.join(map(repr, users))}" if users else "unknown key")
    for key in sorted(required - raw.keys()):
        _fatal(diags, key, f"required for kind '{kind}'")
    resolved["seed"] = _make(diags, "seed", _integer(0, _SEED_MAX),
                             raw.get("seed", 0))
    if "out_dir" in raw and not isinstance(raw["out_dir"], str):
        _fatal(diags, "out_dir", "must be a string path")
    if "seed" in raw and kind != "disorder":
        _warn(diags, "seed", f"seed has no effect for kind '{kind}'")

    spec = _parse_lattice(raw, diags) if "lattice" in raw else None
    model = _parse_model(raw, kind, diags) if "model" in raw else None
    decay = _parse_decay(raw, diags) if "decay" in raw else None
    omega = _parse_omega(raw, diags) if "omega" in raw else None
    resolved.update(spec=spec, model=model, decay=decay, omega_grid=omega)
    if spec is not None and model is not None:
        spin_dim, _, build = _BUILDERS[model["builder"]]
        if spec.spin_dim != spin_dim:
            _fatal(diags, "lattice.spin_dim", f"builder '{model['builder']}' needs "
                   f"spin_dim={spin_dim}, got {spec.spin_dim}")
        resolved["build"] = lambda: build(spec, model)
        if kind != "qsh":  # there the whole-cell rule on n_x covers the seam
            _check_seam(spec, model, diags)

    if kind == "spectrum" and spec is not None:
        entries = raw.get("inputs")
        if "inputs" not in raw:
            _probe_window(spec, [0], "lattice", diags)
            # Every cavity and polarization at OAM 0, listed at run time:
            # one site per cavity would make validation grow with n_x.
            resolved["inputs"] = None
        elif not isinstance(entries, list) or not entries:
            _fatal(diags, "inputs", "must be a non-empty list of sites")
        else:
            sites = [_parse_site(entry, f"inputs[{i}]", spec, diags)
                     for i, entry in enumerate(entries)]
            if all(s is not None for s in sites):
                resolved["inputs"] = sites

    if kind == "butterfly":
        if spec is not None and spec.spin_dim != 1:
            _fatal(diags, "lattice.spin_dim",
                   "the flux sweep uses the scalar cavity-phase lattice")
        if spec is not None:
            _probe_window(spec, [0], "lattice", diags)
        resolved["butterfly"] = _read(raw, "butterfly", diags)

    if kind == "edge-map":
        if omega is not None and omega.size != 1:
            _fatal(diags, "omega",
                   f"edge-map needs exactly one omega value, got {omega.size}")
        if spec is not None:
            if "input" in raw:
                site = _parse_site(raw["input"], "input", spec, diags)
            else:
                _probe_window(spec, [0], "lattice", diags)
                site = SiteIndex(0, 0, 0)
            if site is not None and site.j not in (0, spec.n_x - 1):
                _fatal(diags, "input", f"input column {site.j} is not an edge cavity")
            resolved["input"] = site

    if kind in ("displacement", "disorder"):
        resolved["region"] = _parse_region(raw, spec, diags)
    if kind == "displacement" and spec is not None:
        # The clean displacement probes enter at OAM 0.
        _probe_window(spec, [0], "lattice", diags)
    if kind == "disorder" and "disorder" in raw:
        disorder = resolved["disorder"] = _parse_disorder(raw, diags)
        if spec is not None and disorder is not None:
            _make(diags, "disorder", _check_coupling_axis, spec, disorder["model"])
            _probe_window(spec, disorder["input_l_values"], "disorder.input_l_values",
                          diags)

    if kind in ("chern", "bands") and model is not None:
        sampling = _read(raw, "sampling", diags)
        if sampling is not None:
            frac, k = model["phi0_frac"], sampling["k_points"]
            resolved["bz_grid"] = _make(diags, "model.phi0", MagneticBZGrid,
                                        frac.numerator, frac.denominator, k, k)

    if kind == "qsh":
        if "qsh" in raw:
            resolved["qsh"] = _read(raw, "qsh", diags)
        if model is not None and model["builder"] != "qsh":
            _fatal(diags, "model.builder",
                   f"kind 'qsh' needs the qsh builder, got {model['builder']!r}")
        if spec is not None and spec.n_x % 4 != 0:
            _fatal(diags, "lattice.n_x", "cavity count must be a multiple of 4 "
                   f"(four-cavity unit cell), got {spec.n_x}")

    if kind == "dispersion-check" and "optics" in raw:
        resolved["optics"] = _parse_optics(raw, diags)

    return diags, resolved


def validate_config(raw) -> list[Diagnostic]:
    """Schema and physics checks; returns diagnostics, performs no computation."""
    return _resolve(raw)[0]


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


def _grid_bytes(grid: np.ndarray, l_min: int) -> bytes:
    lines = [f"{grid.shape[0]} {grid.shape[1]} {l_min} 0"]
    fmt = " ".join(["%.17g"] * grid.shape[1])
    lines.extend(fmt % tuple(row) for row in grid.tolist())
    return ("\n".join(lines) + "\n").encode("utf-8")


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to a new sibling of ``path`` and rename it to ``path``.

    The sibling gets the mode ``open(path, "wb")`` would give a new file,
    0o666 under the process umask.
    """
    while True:
        tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
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
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _oam0_inputs(spec: LatticeSpec) -> list[SiteIndex]:
    """The default probes: every cavity and polarization at OAM 0."""
    return [SiteIndex(j, 0, s) for j in range(spec.n_x) for s in range(spec.spin_dim)]


def _run_spectrum(res: dict, threads: int):
    grid, inputs = res["omega_grid"], res["inputs"] or _oam0_inputs(res["spec"])
    values = total_transmission_spectrum(res["build"](), res["decay"], inputs, grid)
    rows = zip(grid.tolist(), values.tolist())
    return [("spectrum.csv", _csv_bytes(("omega", "transmission"), rows))], {}


def _farey_fluxes(q_max: int) -> list[Fraction]:
    fluxes = {Fraction(0, 1), Fraction(1, 1)}
    for q in range(1, q_max + 1):
        for p in range(q + 1):
            fluxes.add(Fraction(p, q))
    return sorted(fluxes)


def _run_butterfly(res: dict, threads: int):
    """H(1 - phi) = conj H(phi), so G(1 - phi) = G(phi)^T and the total
    power at 1 - phi equals that at phi for any rates: each phi <= 1/2 is
    computed once, and its row is written for 1 - phi as well."""
    spec, decay, grid = res["spec"], res["decay"], res["omega_grid"]
    fluxes = _farey_fluxes(res["butterfly"]["q_max"])
    computed = [frac for frac in fluxes if frac <= Fraction(1, 2)]
    inputs = _oam0_inputs(spec)
    spectra = dict(zip(computed, _ordered_map(
        lambda frac: total_transmission_spectrum(build_landau_hofstadter(spec, frac),
                                                 decay, inputs, grid),
        computed, threads
    )))
    mirrored = [frac for frac in fluxes if frac not in spectra]
    _LOG.debug("butterfly: %d flux(es) computed, %d mirrored from 1 - phi: %s",
               len(computed), len(mirrored), ", ".join(map(str, mirrored)))
    rows = (
        (frac.numerator, frac.denominator, omega, value)
        for frac in fluxes
        for omega, value in zip(grid.tolist(), spectra[min(frac, 1 - frac)].tolist())
    )
    header = ("phi0_num", "phi0_den", "omega", "transmission")
    results = {"flux_count": len(fluxes)}
    return [("butterfly.csv", _csv_bytes(header, rows))], results


def _run_edge_map(res: dict, threads: int):
    H = res["build"]()
    spec = res["spec"]
    omega = float(res["omega_grid"][0])
    input = res["input"]
    grid = transmission_map(H, res["decay"], omega, input)
    if grid.ndim == 2:
        files = [("edge-map.grid", _grid_bytes(grid, spec.l_min))]
    else:
        files = [(f"edge-map_s{s}.grid", _grid_bytes(grid[:, :, s], spec.l_min))
                 for s in range(grid.shape[2])]
    results = {"omega": omega, "input": [input.j, input.l, input.s],
               "total_power": float(grid.sum())}
    return files, results


def _displacement_file(res: dict, mean, std, trials: int):
    region = res["region"]
    rows = zip(res["omega_grid"].tolist(), mean.tolist(), std.tolist())
    header = ("omega", "l_e_mean", "l_e_std")
    results = {"trials": trials, "region": [region.side.value, region.depth]}
    return [("displacement.csv", _csv_bytes(header, rows))], results


def _run_displacement(res: dict, threads: int):
    values = displacement_spectrum(res["build"](), res["decay"], res["omega_grid"],
                                   res["region"])
    return _displacement_file(res, values, np.zeros_like(values), 1)


def _run_disorder(res: dict, threads: int):
    disorder = res["disorder"]
    summary = displacement_robustness(
        res["build"](), disorder["model"], res["decay"], res["omega_grid"],
        res["region"], trials=disorder["trials"], seed=res["seed"],
        input_l_values=tuple(disorder["input_l_values"]),
    )
    return _displacement_file(res, summary.mean, summary.std, disorder["trials"])


def _chern_or_none(route, data, m: int) -> int | None:
    """Band ``m``'s invariant by ``route``; None where the route refuses it."""
    try:
        return int(route(data, m))
    except ValueError:
        return None


def _run_chern(res: dict, threads: int):
    data = band_structure(res["bz_grid"])
    fukui = [_chern_or_none(fukui_hatsugai_chern, data, m) for m in range(data.q)]
    mismatch = [_chern_or_none(phase_mismatch_chern, data, m) for m in range(data.q)]
    rows = [(m + 1, f, p) for m, (f, p) in enumerate(zip(fukui, mismatch))]
    header = ("band", "chern_fukui_hatsugai", "chern_phase_mismatch")
    results = {"fukui_hatsugai": fukui, "phase_mismatch": mismatch,
               "band_1": fukui[0] if fukui[0] is not None else mismatch[0]}
    return [("chern.csv", _csv_bytes(header, rows))], results


def _run_bands(res: dict, threads: int):
    grid = res["bz_grid"]
    data = band_structure(grid)
    rows = [(kx, ky, band + 1, data.energies[band][a, b])
            for band in range(data.q)
            for a, kx in enumerate(grid.kx_values.tolist())
            for b, ky in enumerate(grid.ky_values.tolist())]
    header = ("kx", "ky", "band", "energy")
    return [("bands.csv", _csv_bytes(header, rows))], {"bands": data.q}


def _run_qsh(res: dict, threads: int):
    spec, model, block = res["spec"], res["model"], res["qsh"]
    betas = block["beta0_values"]
    target = block["energy_target"]
    results: dict = {"energy_target": target}
    reports = qsh_gap_scan(spec, model["lambda0"], betas, target)
    if len(betas) >= 3 and all(b2 > b1 for b1, b2 in zip(betas, betas[1:])):
        try:
            estimate = _locate_transition(reports)
            results["transition_beta0"] = float(estimate.beta0)
            results["transition_uncertainty"] = float(estimate.uncertainty)
        except ValueError as exc:
            results["transition_error"] = str(exc)
    rows = [(r.beta0, r.e_low, r.e_high, r.width) for r in reports]
    header = ("beta0", "gap_low", "gap_high", "gap_width")
    return [("qsh.csv", _csv_bytes(header, rows))], results


def _run_dispersion_check(res: dict, threads: int):
    opt = res["optics"]
    k_bloch = np.linspace(-np.pi, np.pi, opt["k_points"], endpoint=False)
    kx, ky = (k.ravel().tolist() for k in np.meshgrid(k_bloch, k_bloch, indexing="ij"))

    def one_r(r_mag: float):
        params = OpticalParams(
            r_mag, opt["k_wave"], s_c=opt["s_c"], s_a=opt["s_a"],
            phi_x=opt["phi_x"], phi_y=opt["phi_y"], omega0=opt["omega0"],
        )
        kappa = float(coupling_strength(params))
        # One call per kx row keeps the root scan at k_points x SCAN_SAMPLES.
        detuning = np.array([bloch_dispersion(params, row, k_bloch) for row in k_bloch])
        reference = -2.0 * kappa * np.add.outer(
            np.cos(k_bloch - TWO_PI * opt["phi_x"]),
            np.cos(k_bloch - TWO_PI * opt["phi_y"]),
        )
        deviation = np.abs(detuning - reference)
        columns = (a.ravel().tolist() for a in (detuning, reference, deviation))
        rows = list(zip([r_mag] * len(kx), kx, ky, *columns))
        return rows, kappa, float(np.max(deviation / (4.0 * kappa)))

    chunks, kappas, worsts = zip(*_ordered_map(one_r, opt["r_values"], threads))
    rows = [row for chunk in chunks for row in chunk]
    header = ("r_mag", "kx_bloch", "ky_bloch", "detuning",
              "cosine_reference", "abs_deviation")
    keys = [str(r) for r in opt["r_values"]]
    results = {"coupling_strength": dict(zip(keys, kappas)),
               "max_rel_deviation": dict(zip(keys, worsts))}
    return [("dispersion-check.csv", _csv_bytes(header, rows))], results


_RUNNERS = {
    "spectrum": _run_spectrum,
    "butterfly": _run_butterfly,
    "edge-map": _run_edge_map,
    "displacement": _run_displacement,
    "disorder": _run_disorder,
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
    _load(*_KIND_MODULES.get(config.kind, ()))
    start = time.perf_counter()
    files, results = _RUNNERS[config.kind](config.resolved, threads)
    records = tuple({"path": name, "sha256": hashlib.sha256(data).hexdigest(),
                     "bytes": len(data)} for name, data in files)
    manifest = RunManifest(
        kind=config.kind, artifact_version=__version__, config=config.echo,
        seed=config.seed, threads=threads, outputs=records, results=results,
        wall_time_seconds=round(time.perf_counter() - start, 6),
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files:
        _atomic_write(out / name, data)
    _atomic_write(out / "manifest.json", manifest.to_json_bytes())
    return manifest


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    import argparse

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

    raw = _with_seed(raw, args.seed)
    diagnostics, resolved = _resolve(raw)
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
    if args.threads < 1:
        print("config error: --threads must be at least 1", file=sys.stderr)
        return 2

    config = ExperimentConfig._from_resolved(raw, diagnostics, resolved)
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
