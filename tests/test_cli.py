"""Config validation, output formats, exit codes, and rerun determinism."""

import hashlib
import itertools
import json
import logging
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oamphoton import (
    Boundary,
    DecaySpec,
    LatticeSpec,
    Resolvent,
    SiteIndex,
    build_landau_hofstadter,
    build_oam_gauge_hofstadter,
    flat_index,
    total_transmission_spectrum,
)
from oamphoton import cli, qsh
from oamphoton.cli import (
    ConfigError,
    ExperimentConfig,
    main,
    validate_config,
)


def fatals(raw):
    return [d for d in validate_config(raw) if d.level == "fatal"]


def warnings(raw):
    return [d for d in validate_config(raw) if d.level == "warning"]


def spectrum_config(**overrides):
    cfg = {
        "kind": "spectrum",
        "lattice": {"n_x": 4, "l_min": -5, "l_max": 5},
        "model": {"builder": "landau", "phi0": 0.25},
        "decay": {"gamma": 0.2},
        "omega": {"start": -3.0, "stop": 3.0, "num": 5},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run_cli(tmp_path, cfg, *extra, expect=0, name="config.json", out="out"):
    path = write_config(tmp_path, cfg, name)
    out_dir = tmp_path / out
    rc = main([cfg["kind"], "--config", str(path), "--out", str(out_dir),
               *extra])
    assert rc == expect
    return out_dir


# ---------------------------------------------------------------------------
# Validation diagnostics
# ---------------------------------------------------------------------------


def test_valid_config_has_no_diagnostics():
    assert validate_config(spectrum_config()) == []


def test_unknown_top_level_key_is_fatal_with_path():
    found = fatals(spectrum_config(extra={}))
    assert any(d.path == "extra" and "unknown key" in d.message for d in found)


def test_unknown_nested_key_is_fatal_with_dotted_path():
    cfg = spectrum_config()
    cfg["lattice"]["bogus"] = 1
    found = fatals(cfg)
    assert any(d.path == "lattice.bogus" for d in found)


def test_multiple_fatals_reported_together():
    cfg = spectrum_config(extra={})
    cfg["decay"]["gamma"] = -1.0
    paths = {d.path for d in fatals(cfg)}
    assert {"extra", "decay.gamma"} <= paths


def test_nonpositive_loss_message():
    for gamma in (0.0, -0.5):
        cfg = spectrum_config()
        cfg["decay"]["gamma"] = gamma
        found = fatals(cfg)
        assert any(d.message == "loss must be positive" for d in found)


def test_missing_required_block_is_fatal():
    cfg = spectrum_config()
    del cfg["decay"]
    found = fatals(cfg)
    assert any(d.path == "decay" and "required for kind" in d.message
               for d in found)


def test_block_not_applicable_to_kind_is_fatal():
    cfg = spectrum_config(optics={"r_values": [0.1]})
    found = fatals(cfg)
    assert any(d.path == "optics" and "does not apply" in d.message
               for d in found)


def test_unknown_kind_is_fatal():
    found = fatals({"kind": "nonsense"})
    assert any(d.path == "kind" for d in found)


def test_periodic_oam_window_must_hold_whole_cells():
    cfg = spectrum_config()
    cfg["lattice"]["bc_y"] = "periodic"
    cfg["model"] = {"builder": "oam-gauge", "phi0": [1, 4]}
    found = fatals(cfg)
    assert any("window not multiple of q" in d.message for d in found)
    # a window of 12 sites holds three q=4 cells
    cfg["lattice"]["l_min"], cfg["lattice"]["l_max"] = -6, 5
    assert fatals(cfg) == []


def test_cavity_ring_needs_integer_total_flux():
    cfg = spectrum_config()
    cfg["lattice"]["bc_x"] = "periodic"
    cfg["model"]["phi0"] = [1, 3]
    found = fatals(cfg)
    assert any("integer total flux" in d.message for d in found)
    cfg["model"]["phi0"] = [1, 4]
    assert fatals(cfg) == []


def test_scalar_builder_rejects_qsh_parameters():
    cfg = spectrum_config()
    cfg["model"]["lambda0"] = 0.5
    found = fatals(cfg)
    assert any(d.path == "model.lambda0" for d in found)


def test_qsh_builder_rejects_flux():
    cfg = {
        "kind": "qsh",
        "lattice": {"n_x": 8, "l_min": -8, "l_max": 7, "spin_dim": 2},
        "model": {"builder": "qsh", "lambda0": 0.6, "phi0": 0.1},
        "qsh": {"beta0_values": [0.0, 0.1]},
    }
    found = fatals(cfg)
    assert any(d.path == "model.phi0" for d in found)


def test_flux_fraction_needs_positive_denominator():
    cfg = spectrum_config()
    cfg["model"]["phi0"] = [1, 0]
    found = fatals(cfg)
    assert any(d.path == "model.phi0" and "denominator" in d.message
               for d in found)


def test_builder_must_be_known():
    cfg = spectrum_config()
    cfg["model"]["builder"] = "hofstadter"
    found = fatals(cfg)
    assert any(d.path == "model.builder" for d in found)


def test_builder_spin_dimension_mismatch_is_fatal():
    cfg = spectrum_config()
    cfg["lattice"]["spin_dim"] = 2
    found = fatals(cfg)
    assert any(d.path == "lattice.spin_dim" for d in found)
    cfg["lattice"]["spin_dim"] = 1
    cfg["model"] = {"builder": "dirac", "phi0": 0.0}
    found = fatals(cfg)
    assert any(d.path == "lattice.spin_dim" for d in found)


def test_chern_requires_rational_flux():
    cfg = {"kind": "chern", "model": {"builder": "landau", "phi0": 0.25}}
    found = fatals(cfg)
    assert any(d.path == "model.phi0" and "rational" in d.message
               for d in found)
    cfg["model"]["phi0"] = [1, 4]
    assert fatals(cfg) == []


def test_chern_rejects_spinful_builders():
    cfg = {"kind": "chern", "model": {"builder": "dirac", "phi0": [1, 4]}}
    found = fatals(cfg)
    assert any(d.path == "model.builder" for d in found)


def test_edge_map_needs_single_frequency():
    cfg = {
        "kind": "edge-map",
        "lattice": {"n_x": 6, "l_min": -6, "l_max": 6},
        "model": {"builder": "landau", "phi0": [1, 6]},
        "decay": {"gamma": 0.2},
        "omega": {"start": -3.0, "stop": 3.0, "num": 5},
    }
    found = fatals(cfg)
    assert any(d.path == "omega" and "exactly one" in d.message for d in found)


def test_edge_map_input_must_sit_on_an_edge_column():
    cfg = {
        "kind": "edge-map",
        "lattice": {"n_x": 6, "l_min": -6, "l_max": 6},
        "model": {"builder": "landau", "phi0": [1, 6]},
        "decay": {"gamma": 0.2},
        "omega": {"values": [-2.2]},
        "input": [2, 0],
    }
    found = fatals(cfg)
    assert any(d.path == "input" and "edge cavity" in d.message for d in found)
    cfg["input"] = [5, 0]
    assert fatals(cfg) == []


def test_input_site_outside_lattice_is_fatal():
    cfg = {
        "kind": "edge-map",
        "lattice": {"n_x": 6, "l_min": -6, "l_max": 6},
        "model": {"builder": "landau", "phi0": [1, 6]},
        "decay": {"gamma": 0.2},
        "omega": {"values": [-2.2]},
        "input": [0, 99],
    }
    found = fatals(cfg)
    assert any(d.path == "input" for d in found)


def test_butterfly_lattice_must_be_scalar():
    cfg = {
        "kind": "butterfly",
        "lattice": {"n_x": 4, "l_min": -4, "l_max": 4, "spin_dim": 2},
        "decay": {"gamma": 0.1},
        "omega": {"start": -4.0, "stop": 4.0, "num": 3},
    }
    found = fatals(cfg)
    assert any(d.path == "lattice.spin_dim" for d in found)


def test_region_depth_validated_against_lattice():
    cfg = {
        "kind": "displacement",
        "lattice": {"n_x": 6, "l_min": -6, "l_max": 6},
        "model": {"builder": "landau", "phi0": [1, 6]},
        "decay": {"gamma": 0.2},
        "omega": {"values": [-2.2]},
    }
    # the default probe depth of 4 does not fit six columns
    found = fatals(cfg)
    assert any(d.path == "region.depth" for d in found)
    cfg["region"] = {"depth": 2}
    assert fatals(cfg) == []


def test_omega_range_and_values_are_exclusive():
    cfg = spectrum_config()
    cfg["omega"] = {"start": -1.0, "stop": 1.0, "num": 3, "values": [0.0]}
    found = fatals(cfg)
    assert any(d.path == "omega" for d in found)


def test_all_zero_disorder_warns():
    cfg = {
        "kind": "disorder",
        "lattice": {"n_x": 8, "l_min": -6, "l_max": 6},
        "model": {"builder": "landau", "phi0": [1, 6]},
        "decay": {"gamma": 0.2},
        "omega": {"values": [-2.2]},
        "disorder": {"trials": 2},
    }
    assert fatals(cfg) == []
    assert any(d.path == "disorder" and "no-op" in d.message
               for d in warnings(cfg))


def test_coupling_disorder_on_a_short_oam_ring_fails_validation(tmp_path):
    cfg = {
        "kind": "disorder",
        "lattice": {"n_x": 8, "l_min": 0, "l_max": 1, "bc_y": "periodic"},
        "model": {"builder": "landau", "phi0": [1, 2]},
        "decay": {"gamma": 0.2},
        "omega": {"values": [-1.0]},
        "disorder": {"sigma_coupling_phase": 0.1, "scope": "per_oam_link",
                     "trials": 2},
    }
    found = fatals(cfg)
    assert [d.path for d in found] == ["disorder"]
    assert "periodic OAM axis of at least 3" in found[0].message
    path = write_config(tmp_path, cfg)
    assert main(["disorder", "--config", str(path), "--out",
                 str(tmp_path / "out"), "--validate-only"]) == 2


def test_displacement_is_clean_only_and_takes_no_seed():
    cfg = {
        "kind": "displacement",
        "lattice": {"n_x": 8, "l_min": -6, "l_max": 6},
        "model": {"builder": "landau", "phi0": [1, 6]},
        "decay": {"gamma": 0.2},
        "omega": {"values": [-2.2]},
        "seed": 3,
    }
    assert fatals(cfg) == []
    assert any(d.path == "seed" and "no effect for kind 'displacement'" in d.message
               for d in warnings(cfg))
    cfg["disorder"] = {"sigma_detuning": 0.1, "trials": 2}
    found = fatals(cfg)
    assert [d.path for d in found] == ["disorder"]
    assert "kinds that take it: 'disorder'" in found[0].message


def test_seed_warning_for_deterministic_kind():
    cfg = spectrum_config(seed=3)
    assert fatals(cfg) == []
    assert any(d.path == "seed" and "no effect" in d.message
               for d in warnings(cfg))


def test_seed_flag_warns_for_deterministic_kind(tmp_path, capsys):
    run_cli(tmp_path, spectrum_config(), "--seed", "7")
    err = capsys.readouterr().err
    assert "warning: seed: seed has no effect for kind 'spectrum'" in err


def test_qsh_kind_structure_checks():
    cfg = {
        "kind": "qsh",
        "lattice": {"n_x": 6, "l_min": -8, "l_max": 7, "spin_dim": 2},
        "model": {"builder": "qsh", "lambda0": 0.6},
        "qsh": {"beta0_values": [0.0, 0.1]},
    }
    found = fatals(cfg)
    assert any(d.path == "lattice.n_x" and "multiple of 4" in d.message
               for d in found)


def test_qsh_kind_reports_each_fault_once():
    cfg = {
        "kind": "qsh",
        "lattice": {"n_x": 6, "l_min": -8, "l_max": 7, "spin_dim": 1,
                    "bc_x": "periodic"},
        "model": {"builder": "qsh", "lambda0": 0.6},
        "qsh": {"beta0_values": [0, 0.05, 0.1, 0.15]},
    }
    assert [d.path for d in fatals(cfg)] == ["lattice.spin_dim", "lattice.n_x"]


def test_qsh_kind_needs_the_qsh_builder():
    cfg = {
        "kind": "qsh",
        "lattice": {"n_x": 8, "l_min": -8, "l_max": 7},
        "model": {"builder": "landau", "phi0": 0.25},
        "qsh": {"beta0_values": [0.0, 0.1]},
    }
    found = fatals(cfg)
    assert [d.path for d in found] == ["model.builder"]
    assert "needs the qsh builder" in found[0].message


def test_optics_reflection_must_be_in_unit_interval():
    for bad in ([0.0], [1.0], [0.5, -0.1]):
        cfg = {"kind": "dispersion-check", "optics": {"r_values": bad}}
        found = fatals(cfg)
        assert any(d.path == "optics.r_values" for d in found)


def test_from_dict_raises_config_error_with_diagnostics():
    cfg = spectrum_config()
    cfg["decay"]["gamma"] = -1.0
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(cfg)
    assert any("loss must be positive" in d.message
               for d in err.value.diagnostics)


def test_from_dict_seed_override_lands_in_echo():
    config = ExperimentConfig.from_dict(spectrum_config(), seed_override=9)
    assert config.seed == 9
    assert config.echo["seed"] == 9


def test_diagnostic_str_format():
    cfg = spectrum_config()
    cfg["decay"]["gamma"] = -1.0
    text = str(fatals(cfg)[0])
    assert text == "fatal: decay.gamma: loss must be positive"


# ---------------------------------------------------------------------------
# Flux enumeration
# ---------------------------------------------------------------------------


def test_farey_fluxes_cover_all_reduced_fractions():
    fluxes = cli._farey_fluxes(12)
    assert len(fluxes) == 47
    assert fluxes[0] == Fraction(0, 1) and fluxes[-1] == Fraction(1, 1)
    assert fluxes == sorted(set(fluxes))
    assert all(0 <= f <= 1 and f.denominator <= 12 for f in fluxes)
    assert cli._farey_fluxes(3) == [
        Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
        Fraction(1),
    ]


# ---------------------------------------------------------------------------
# Output files and manifest
# ---------------------------------------------------------------------------


def test_spectrum_output_matches_library(tmp_path):
    cfg = spectrum_config()
    out = run_cli(tmp_path, cfg)
    text = (out / "spectrum.csv").read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "omega,transmission"
    assert len(lines) == 6

    spec = LatticeSpec(4, -5, 5)
    H = build_landau_hofstadter(spec, 0.25)
    inputs = [SiteIndex(j, 0, 0) for j in range(4)]
    expected = total_transmission_spectrum(
        H, DecaySpec(gamma=0.2), inputs, np.linspace(-3.0, 3.0, 5)
    )
    parsed = [float(line.split(",")[1]) for line in lines[1:]]
    # 17 significant digits round-trip doubles exactly
    assert parsed == expected.tolist()


def test_spectrum_inputs_list_matches_library(tmp_path):
    out = run_cli(tmp_path, spectrum_config(inputs=[[0, 0], [3, 2], [3, -5, 0]]))
    lines = (out / "spectrum.csv").read_text(encoding="utf-8").splitlines()
    H = build_landau_hofstadter(LatticeSpec(4, -5, 5), 0.25)
    inputs = [SiteIndex(0, 0, 0), SiteIndex(3, 2, 0), SiteIndex(3, -5, 0)]
    expected = total_transmission_spectrum(
        H, DecaySpec(gamma=0.2), inputs, np.linspace(-3.0, 3.0, 5)
    )
    assert [float(line.split(",")[1]) for line in lines[1:]] == expected.tolist()


def test_default_spectrum_inputs_are_listed_at_run_time(tmp_path):
    # Validation does not grow with the lattice: a million cavities.
    cfg = spectrum_config()
    cfg["lattice"] = {"n_x": 10**6, "l_min": -5, "l_max": 5}
    tracemalloc.start()
    try:
        assert validate_config(cfg) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    # The run takes every cavity and polarization at OAM 0.
    cfg = spectrum_config(model={"builder": "qsh", "lambda0": 0.6})
    cfg["lattice"] = {"n_x": 4, "l_min": -5, "l_max": 5, "spin_dim": 2}
    default = run_cli(tmp_path, cfg, out="default")
    listed = run_cli(tmp_path, dict(cfg, inputs=[[j, 0, s] for j in range(4) for s in (0, 1)]),
                     out="listed")
    assert (default / "spectrum.csv").read_bytes() == (listed / "spectrum.csv").read_bytes()


def test_spectrum_inputs_must_be_sites_in_the_window():
    assert [d.path for d in fatals(spectrum_config(inputs=[]))] == ["inputs"]
    found = fatals(spectrum_config(inputs=[[0, 0], [1, 9]]))
    assert [d.path for d in found] == ["inputs[1]"]


def test_manifest_contents_and_digests(tmp_path):
    cfg = spectrum_config()
    out = run_cli(tmp_path, cfg)
    raw = (out / "manifest.json").read_bytes()
    assert raw.endswith(b"\n")
    man = json.loads(raw)
    assert man["kind"] == "spectrum"
    assert man["seed"] == 0
    assert man["threads"] == 1
    assert man["total_includes_same_mode"] is True
    assert man["artifact_version"]
    assert man["config"]["lattice"] == cfg["lattice"]
    assert man["config"]["seed"] == 0
    assert man["wall_time_seconds"] >= 0.0
    for record in man["outputs"]:
        data = (out / record["path"]).read_bytes()
        assert record["bytes"] == len(data)
        assert record["sha256"] == hashlib.sha256(data).hexdigest()
    # keys are serialized sorted
    assert raw == (json.dumps(man, indent=2, sort_keys=True) + "\n").encode()


def test_manifest_echo_revalidates_and_reruns(tmp_path):
    out = run_cli(tmp_path, spectrum_config())
    man = json.loads((out / "manifest.json").read_text())
    echo = man["config"]
    assert [d for d in validate_config(echo) if d.level == "fatal"] == []
    out2 = run_cli(tmp_path, echo, name="echo.json", out="out2")
    assert (out2 / "spectrum.csv").read_bytes() == \
        (out / "spectrum.csv").read_bytes()


def test_no_temporary_files_left_behind(tmp_path):
    out = run_cli(tmp_path, spectrum_config())
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "spectrum.csv"]


_UMASK_PROBE = """
import json, os, stat, sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
from oamphoton import cli
os.umask(int(sys.argv[2], 8))
out = Path(sys.argv[3])
cli.run(cli.ExperimentConfig.from_dict(json.loads(sys.argv[4])), out)
try:
    cli._atomic_write(out / "failed.grid", None)  # bytes expected: the write fails
except TypeError:
    pass
print(json.dumps({p.name: oct(stat.S_IMODE(p.stat().st_mode)) for p in out.iterdir()}))
"""


@pytest.mark.parametrize("umask, mode", [("022", "0o644"), ("077", "0o600")])
def test_output_files_take_the_umask_and_a_failed_write_leaves_nothing(
        tmp_path, umask, mode):
    # The umask is per process, so the run happens in a fresh interpreter.
    cfg = {"kind": "edge-map", "lattice": {"n_x": 4, "l_min": -4, "l_max": 4},
           "model": {"builder": "landau", "phi0": [1, 4]}, "decay": {"gamma": 0.2},
           "omega": {"values": [-2.2]}}
    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _UMASK_PROBE, str(src), umask, str(tmp_path / "out"),
         json.dumps(cfg)], capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == {"edge-map.grid": mode, "manifest.json": mode}


def test_edge_map_grid_format(tmp_path):
    cfg = {
        "kind": "edge-map",
        "lattice": {"n_x": 6, "l_min": -8, "l_max": 8},
        "model": {"builder": "landau", "phi0": [1, 6]},
        "decay": {"gamma": 0.2},
        "omega": {"values": [-2.2]},
    }
    out = run_cli(tmp_path, cfg)
    text = (out / "edge-map.grid").read_text(encoding="utf-8")
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "6 17 -8 0"
    assert len(lines) == 1 + 6
    grid = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    assert grid.shape == (6, 17)
    assert np.all(grid >= 0.0)
    man = json.loads((out / "manifest.json").read_text())
    assert man["results"]["total_power"] == pytest.approx(grid.sum())


def test_grid_bytes_equal_the_per_value_formatter():
    values = [0.0, -0.0, 5e-324, 2.5e-310, 1e-300, 0.1, 1.0 / 3.0, 2.0, 123456.789,
              1e17, 6.02214076e23, np.nextafter(1.0, 2.0), 1e300, -1e300]
    for grid in (np.array(values).reshape(2, 7), np.array(values).reshape(14, 1)):
        want = "".join(" ".join(format(float(v), ".17g") for v in row) + "\n"
                       for row in grid)
        head = f"{grid.shape[0]} {grid.shape[1]} -3 0\n"
        assert cli._grid_bytes(grid, -3) == (head + want).encode("utf-8")
        # The rows go through tolist(); formatting NumPy scalars gives the same.
        fmt = " ".join(["%.17g"] * grid.shape[1])
        assert want == "".join(fmt % tuple(row) + "\n" for row in grid)


def test_edge_map_spinful_writes_one_grid_per_component(tmp_path):
    cfg = {
        "kind": "edge-map",
        "lattice": {"n_x": 4, "l_min": -4, "l_max": 3, "spin_dim": 2},
        "model": {"builder": "qsh", "lambda0": 0.6},
        "decay": {"gamma": 0.2},
        "omega": {"values": [-1.6]},
    }
    out = run_cli(tmp_path, cfg)
    names = sorted(p.name for p in out.iterdir())
    assert names == ["edge-map_s0.grid", "edge-map_s1.grid", "manifest.json"]


def test_displacement_csv_schema_clean_and_disordered(tmp_path):
    base = {
        "kind": "displacement",
        "lattice": {"n_x": 8, "l_min": -6, "l_max": 6},
        "model": {"builder": "landau", "phi0": [1, 6]},
        "decay": {"gamma": 0.2},
        "omega": {"values": [-2.2, -1.0]},
    }
    out = run_cli(tmp_path, base)
    lines = (out / "displacement.csv").read_text().splitlines()
    assert lines[0] == "omega,l_e_mean,l_e_std"
    stds = [float(line.split(",")[2]) for line in lines[1:]]
    assert stds == [0.0, 0.0]

    noisy = dict(base, kind="disorder", seed=5,
                 disorder={"sigma_detuning": 0.1, "trials": 4})
    out2 = run_cli(tmp_path, noisy, name="noisy.json", out="out2")
    lines = (out2 / "displacement.csv").read_text().splitlines()
    assert lines[0] == "omega,l_e_mean,l_e_std"
    stds = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(s > 0.0 for s in stds)


def test_chern_run_records_first_band(tmp_path):
    cfg = {
        "kind": "chern",
        "model": {"builder": "landau", "phi0": [1, 6]},
        "sampling": {"k_points": 24},
    }
    out = run_cli(tmp_path, cfg)
    man = json.loads((out / "manifest.json").read_text())
    assert man["results"]["band_1"] == 1
    assert man["results"]["fukui_hatsugai"][0] == 1
    assert man["results"]["phase_mismatch"][0] == 1
    assert sum(man["results"]["fukui_hatsugai"]) == 0
    lines = (out / "chern.csv").read_text().splitlines()
    assert lines[0] == "band,chern_fukui_hatsugai,chern_phase_mismatch"
    assert lines[1] == "1,1,1"
    assert len(lines) == 1 + 6
    # bands whose method fails leave the field empty, not zero
    assert any(line.endswith(",") for line in lines[1:])


def test_bands_rows_ordered_band_then_kx_then_ky(tmp_path):
    cfg = {
        "kind": "bands",
        "model": {"builder": "oam-gauge", "phi0": [1, 3]},
        "sampling": {"k_points": 6},
    }
    out = run_cli(tmp_path, cfg)
    lines = (out / "bands.csv").read_text().splitlines()
    assert lines[0] == "kx,ky,band,energy"
    assert len(lines) == 1 + 3 * 6 * 6
    rows = [line.split(",") for line in lines[1:]]
    keys = [(int(r[2]), float(r[0]), float(r[1])) for r in rows]
    assert keys == sorted(keys)
    energies = np.array([float(r[3]) for r in rows])
    assert np.all(np.isfinite(energies))


def test_qsh_run_finds_transition(tmp_path):
    cfg = {
        "kind": "qsh",
        "lattice": {"n_x": 8, "l_min": -20, "l_max": 20, "spin_dim": 2,
                    "bc_y": "periodic"},
        "model": {"builder": "qsh", "lambda0": 0.6},
        "qsh": {"beta0_values": [0.0, 0.025, 0.05, 0.075, 0.1, 0.125, 0.15]},
    }
    out = run_cli(tmp_path, cfg)
    man = json.loads((out / "manifest.json").read_text())
    assert man["results"]["transition_beta0"] == pytest.approx(0.075)
    assert man["results"]["transition_uncertainty"] == pytest.approx(0.025)
    lines = (out / "qsh.csv").read_text().splitlines()
    assert lines[0] == "beta0,gap_low,gap_high,gap_width"
    assert len(lines) == 1 + 7
    widths = {float(r.split(",")[0]): float(r.split(",")[3])
              for r in lines[1:]}
    assert widths[0.0] > 0.3
    assert widths[0.075] < 0.05
    assert widths[0.125] > 0.2


def test_qsh_run_scans_each_beta_once(tmp_path, monkeypatch):
    calls = []
    levels = qsh._torus_levels
    monkeypatch.setattr(qsh, "_torus_levels",
                        lambda *args: calls.append(args) or levels(*args))
    betas = [0.0, 0.025, 0.05, 0.075, 0.1, 0.125]
    cfg = {
        "kind": "qsh",
        "lattice": {"n_x": 8, "l_min": -20, "l_max": 20, "spin_dim": 2,
                    "bc_y": "periodic"},
        "model": {"builder": "qsh", "lambda0": 0.6},
        "qsh": {"beta0_values": betas},
    }
    out = run_cli(tmp_path, cfg)
    assert len(calls) == len(betas)
    man = json.loads((out / "manifest.json").read_text())
    assert man["results"]["transition_beta0"] == pytest.approx(0.075)
    assert len((out / "qsh.csv").read_text().splitlines()) == 1 + len(betas)


def test_qsh_run_scans_each_beta_once_when_the_detector_fails(tmp_path, monkeypatch):
    calls = []
    levels = qsh._torus_levels
    monkeypatch.setattr(qsh, "_torus_levels",
                        lambda *args: calls.append(args) or levels(*args))
    betas = [0.0, 0.05, 0.1, 0.15]
    cfg = {
        "kind": "qsh",
        "lattice": {"n_x": 8, "l_min": -50, "l_max": 50, "spin_dim": 2,
                    "bc_y": "periodic"},
        "model": {"builder": "qsh", "lambda0": 0.6},
        "qsh": {"beta0_values": betas},
    }
    out = run_cli(tmp_path, cfg)
    assert len(calls) == len(betas)
    man = json.loads((out / "manifest.json").read_text())
    assert "no local minimum" in man["results"]["transition_error"]
    assert len((out / "qsh.csv").read_text().splitlines()) == 1 + len(betas)


def test_dispersion_check_outputs(tmp_path):
    cfg = {
        "kind": "dispersion-check",
        "optics": {"r_values": [0.05, 0.1], "k_points": 8},
    }
    out = run_cli(tmp_path, cfg)
    man = json.loads((out / "manifest.json").read_text())
    deviation = man["results"]["max_rel_deviation"]
    assert deviation["0.05"] < 0.05**2
    assert deviation["0.1"] < 0.1**2
    kappa = man["results"]["coupling_strength"]
    assert kappa["0.1"] == pytest.approx(4.0 * kappa["0.05"])
    lines = (out / "dispersion-check.csv").read_text().splitlines()
    assert lines[0] == ("r_mag,kx_bloch,ky_bloch,detuning,"
                        "cosine_reference,abs_deviation")
    assert len(lines) == 1 + 2 * 8 * 8


def test_butterfly_rows_cover_all_fluxes(tmp_path):
    cfg = {
        "kind": "butterfly",
        "lattice": {"n_x": 4, "l_min": -4, "l_max": 4},
        "decay": {"gamma": 0.1},
        "omega": {"start": -4.0, "stop": 4.0, "num": 9},
        "butterfly": {"q_max": 3},
    }
    out = run_cli(tmp_path, cfg)
    lines = (out / "butterfly.csv").read_text().splitlines()
    assert lines[0] == "phi0_num,phi0_den,omega,transmission"
    assert len(lines) == 1 + 5 * 9
    seen = []
    for line in lines[1:]:
        num, den = line.split(",")[:2]
        frac = Fraction(int(num), int(den))
        if frac not in seen:
            seen.append(frac)
    assert seen == cli._farey_fluxes(3)
    man = json.loads((out / "manifest.json").read_text())
    assert man["results"]["flux_count"] == 5


def test_butterfly_writes_each_mirror_flux_from_its_partner(tmp_path, caplog):
    """Fluxes above 1/2 take the row of 1 - phi: the file matches a
    computation with neither mirror, flux by flux and point by point, and
    its bytes do not depend on the worker count."""
    cfg = {
        "kind": "butterfly",
        "lattice": {"n_x": 4, "l_min": -4, "l_max": 4},
        "decay": {"gamma": 0.1},
        "omega": {"start": -4.0, "stop": 4.0, "num": 9},
        "butterfly": {"q_max": 3},
    }
    with caplog.at_level(logging.DEBUG, logger="oamphoton"):
        one = run_cli(tmp_path, cfg, out="t1")
    three = run_cli(tmp_path, cfg, "--threads", "3", out="t3")
    data = (one / "butterfly.csv").read_bytes()
    assert data == (three / "butterfly.csv").read_bytes()
    table = np.array([[float(v) for v in line.split(",")]
                      for line in data.decode().splitlines()[1:]])
    spec = LatticeSpec(4, -4, 4)
    grid = np.linspace(-4.0, 4.0, 9)
    rows = [flat_index(spec, SiteIndex(j, 0, 0)) for j in range(4)]
    unmirrored = np.concatenate([
        Resolvent(build_landau_hofstadter(spec, float(frac)), DecaySpec.uniform(0.1))
        .transmitted_power(grid, rows) for frac in cli._farey_fluxes(3)])
    np.testing.assert_allclose(table[:, 3], unmirrored, rtol=0,
                               atol=1e-13 * unmirrored.max())
    logged = [r.getMessage() for r in caplog.records if r.name == "oamphoton"]
    assert "butterfly: 3 flux(es) computed, 2 mirrored from 1 - phi: 2/3, 1" in logged
    # One engine call per computed flux, each solving half the grid and 0.
    engines = [r for r in caplog.records if getattr(r, "solver_path", None)]
    assert [r.factorizations for r in engines] == [5, 5, 5]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_rerun_is_byte_identical_and_thread_independent(tmp_path):
    cfg = {
        "kind": "butterfly",
        "lattice": {"n_x": 4, "l_min": -4, "l_max": 4},
        "decay": {"gamma": 0.1},
        "omega": {"start": -4.0, "stop": 4.0, "num": 9},
        "butterfly": {"q_max": 3},
    }
    out1 = run_cli(tmp_path, cfg, out="o1")
    out2 = run_cli(tmp_path, cfg, out="o2")
    out3 = run_cli(tmp_path, cfg, "--threads", "3", out="o3")
    data = [(d / "butterfly.csv").read_bytes() for d in (out1, out2, out3)]
    assert data[0] == data[1] == data[2]
    manifests = []
    for d in (out1, out2, out3):
        man = json.loads((d / "manifest.json").read_text())
        man["wall_time_seconds"] = 0.0
        man["threads"] = 0
        manifests.append(json.dumps(man, sort_keys=True))
    assert manifests[0] == manifests[1] == manifests[2]


def test_disorder_on_qsh_sectors_does_not_depend_on_threads(tmp_path, caplog):
    # Model B on qsh: per-link coupling and per-mode loss errors, with
    # region ports of both polarizations, so both sectors are swept.
    cfg = {
        "kind": "disorder", "seed": 3,
        "lattice": {"n_x": 4, "l_min": -5, "l_max": 5, "spin_dim": 2},
        "model": {"builder": "qsh", "lambda0": 0.6},
        "decay": {"gamma": 0.2},
        "omega": {"values": [-1.6, -0.4]},
        "region": {"side": "left", "depth": 2},
        "disorder": {"sigma_coupling_mag": 0.05, "sigma_loss": 0.02,
                     "scope": "per_oam_link", "envelope_width": 3, "trials": 4},
    }
    with caplog.at_level(logging.DEBUG, logger="oamphoton"):
        one = run_cli(tmp_path, cfg, out="t1")
    three = run_cli(tmp_path, cfg, "--threads", "3", out="t3")
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in three.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (one / name).read_bytes() == (three / name).read_bytes(), name
    engines = [r for r in caplog.records if getattr(r, "solver_path", None)]
    assert engines and all(r.sectors_swept == r.sectors == 2 for r in engines)


def test_disorder_seed_reproducibility(tmp_path):
    cfg = {
        "kind": "disorder", "seed": 11,
        "lattice": {"n_x": 8, "l_min": -6, "l_max": 6},
        "model": {"builder": "landau", "phi0": [1, 6]},
        "decay": {"gamma": 0.2},
        "omega": {"values": [-2.2]},
        "disorder": {"sigma_detuning": 0.1, "trials": 4},
    }
    out1 = run_cli(tmp_path, cfg, out="o1")
    out2 = run_cli(tmp_path, cfg, out="o2")
    assert (out1 / "displacement.csv").read_bytes() == \
        (out2 / "displacement.csv").read_bytes()
    out3 = run_cli(tmp_path, cfg, "--seed", "12", out="o3")
    assert (out1 / "displacement.csv").read_bytes() != \
        (out3 / "displacement.csv").read_bytes()
    man = json.loads((out3 / "manifest.json").read_text())
    assert man["seed"] == 12
    assert man["config"]["seed"] == 12


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_exit_zero_on_success(tmp_path):
    run_cli(tmp_path, spectrum_config(), expect=0)


def test_exit_two_on_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["spectrum", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


def test_exit_two_on_missing_config_file(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "out")]) == 2


def test_exit_two_on_fatal_validation(tmp_path):
    cfg = spectrum_config()
    cfg["decay"]["gamma"] = -1.0
    run_cli(tmp_path, cfg, expect=2)
    assert not (tmp_path / "out").exists()


def test_exit_two_on_kind_subcommand_mismatch(tmp_path):
    path = write_config(tmp_path, spectrum_config())
    assert main(["chern", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_exit_two_when_no_output_directory(tmp_path):
    path = write_config(tmp_path, spectrum_config())
    assert main(["spectrum", "--config", str(path)]) == 2


def test_out_dir_from_config_is_used(tmp_path):
    cfg = spectrum_config(out_dir=str(tmp_path / "from_config"))
    path = write_config(tmp_path, cfg)
    assert main(["spectrum", "--config", str(path)]) == 0
    assert (tmp_path / "from_config" / "spectrum.csv").exists()


def test_validate_only_writes_nothing(tmp_path):
    path = write_config(tmp_path, spectrum_config())
    out_dir = tmp_path / "out"
    assert main(["spectrum", "--config", str(path), "--out", str(out_dir),
                 "--validate-only"]) == 0
    assert not out_dir.exists()
    bad = spectrum_config()
    bad["decay"]["gamma"] = -1.0
    bad_path = write_config(tmp_path, bad, "bad.json")
    assert main(["spectrum", "--config", str(bad_path), "--out", str(out_dir),
                 "--validate-only"]) == 2
    assert not out_dir.exists()


def test_exit_three_on_runtime_failure(tmp_path, monkeypatch):
    def exploding_runner(res, threads):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setitem(cli._RUNNERS, "spectrum", exploding_runner)
    run_cli(tmp_path, spectrum_config(), expect=3)
    assert not list((tmp_path / "out").glob("*")) \
        if (tmp_path / "out").exists() else True


def test_invalid_thread_and_seed_arguments(tmp_path):
    path = write_config(tmp_path, spectrum_config())
    out = str(tmp_path / "out")
    assert main(["spectrum", "--config", str(path), "--out", out,
                 "--threads", "0"]) == 2
    assert main(["spectrum", "--config", str(path), "--out", out,
                 "--seed", "-1"]) == 2


# ---------------------------------------------------------------------------
# Probe windows, seams and the config schema
# ---------------------------------------------------------------------------


def disorder_config(l_min, l_max, **disorder):
    return {
        "kind": "disorder",
        "lattice": {"n_x": 8, "l_min": l_min, "l_max": l_max},
        "model": {"builder": "landau", "phi0": [1, 6]},
        "decay": {"gamma": 0.2},
        "omega": {"values": [-2.2]},
        "disorder": dict({"sigma_detuning": 0.1, "trials": 2}, **disorder),
    }


def validate_only(tmp_path, cfg):
    path = write_config(tmp_path, cfg)
    return main([cfg["kind"], "--config", str(path), "--out",
                 str(tmp_path / "out"), "--validate-only"])


def test_disorder_probes_outside_the_window_fail_validation(tmp_path):
    cfg = disorder_config(-6, 6, input_l_values=[99])
    assert [d.path for d in fatals(cfg)] == ["disorder.input_l_values"]
    assert validate_only(tmp_path, cfg) == 2


def test_disorder_probes_need_not_enter_at_oam_zero(tmp_path):
    cfg = disorder_config(1, 6, input_l_values=[2])
    assert fatals(cfg) == []
    assert validate_only(tmp_path, cfg) == 0
    # without input_l_values the probes enter at OAM 0
    cfg = disorder_config(1, 6)
    assert [d.path for d in fatals(cfg)] == ["disorder.input_l_values"]


def plaquette_flux_is_uniform(H):
    """Whether every plaquette (seams included) carries the same phase."""
    spec, A = H.spec, H.toarray()

    def site(j, il):
        return flat_index(spec, SiteIndex(j % spec.n_x, spec.l_min + il % spec.n_l))

    wraps_x = spec.bc_x is Boundary.PERIODIC
    wraps_y = spec.bc_y is Boundary.PERIODIC
    loops = []
    for j in range(spec.n_x if wraps_x else spec.n_x - 1):
        for il in range(spec.n_l if wraps_y else spec.n_l - 1):
            a, b = site(j, il), site(j + 1, il)
            c, d = site(j + 1, il + 1), site(j, il + 1)
            loops.append(A[b, a] * A[c, b] * A[d, c] * A[a, d])
    phases = np.array(loops) / np.abs(loops)
    return bool(np.allclose(phases, phases[0], atol=1e-9))


def test_seam_rule_accepts_exactly_the_uniform_flux_lattices():
    fluxes = [[p, q] for q in range(1, 5) for p in range(q + 1)] + [0.25, 0.3, 0.5]
    builders = {"landau": build_landau_hofstadter,
                "oam-gauge": build_oam_gauge_hofstadter}
    checked = 0
    for name, build in builders.items():
        for n_x, n_l in itertools.product(range(3, 7), repeat=2):
            for bc_x, bc_y in itertools.product(("open", "periodic"), repeat=2):
                l_min = -(n_l // 2)
                lattice = {"n_x": n_x, "l_min": l_min, "l_max": l_min + n_l - 1,
                           "bc_x": bc_x, "bc_y": bc_y}
                spec = LatticeSpec(n_x, l_min, l_min + n_l - 1,
                                   bc_x=Boundary(bc_x), bc_y=Boundary(bc_y))
                for phi0 in fluxes:
                    cfg = spectrum_config(lattice=lattice,
                                          model={"builder": name, "phi0": phi0})
                    flux = Fraction(*phi0) if isinstance(phi0, list) else phi0
                    uniform = plaquette_flux_is_uniform(build(spec, flux))
                    assert (fatals(cfg) == []) == uniform, (name, lattice, phi0)
                    checked += 1
    assert checked == 2 * 16 * 4 * len(fluxes)


def test_dirac_cavity_ring_needs_integer_total_flux():
    cfg = spectrum_config(
        lattice={"n_x": 3, "l_min": -2, "l_max": 2, "spin_dim": 2,
                 "bc_x": "periodic"},
        model={"builder": "dirac", "phi0": [1, 4]},
    )
    assert [d.message for d in fatals(cfg)] == [
        "cavity ring needs integer total flux, got n_x * phi0 = 0.75"]
    cfg["lattice"]["n_x"] = 4
    assert fatals(cfg) == []


def test_qsh_builder_on_a_cavity_ring_needs_whole_cells():
    cfg = spectrum_config(
        lattice={"n_x": 6, "l_min": -2, "l_max": 2, "spin_dim": 2,
                 "bc_x": "periodic"},
        model={"builder": "qsh", "lambda0": 0.6},
    )
    found = fatals(cfg)
    assert [d.path for d in found] == ["lattice"]
    assert "integer total flux" in found[0].message
    for n_x, bc_x in ((8, "periodic"), (6, "open")):
        cfg["lattice"].update(n_x=n_x, bc_x=bc_x)
        assert fatals(cfg) == []


def schema_base_configs():
    """A valid config for every kind that takes a schema block."""
    return [
        spectrum_config(),
        dict(disorder_config(-6, 6, input_l_values=[0], envelope_width=10.0),
             region={"side": "right", "depth": 2}),
        {"kind": "butterfly", "lattice": {"n_x": 4, "l_min": -4, "l_max": 4},
         "decay": {"gamma": 0.1}, "omega": {"values": [0.0]},
         "butterfly": {"q_max": 3}},
        {"kind": "chern", "model": {"builder": "landau", "phi0": [1, 4]},
         "sampling": {"k_points": 8}},
        {"kind": "qsh",
         "lattice": {"n_x": 8, "l_min": -8, "l_max": 7, "spin_dim": 2},
         "model": {"builder": "qsh", "lambda0": 0.6, "beta0": 0.0},
         "qsh": {"beta0_values": [0.0, 0.1]}},
        {"kind": "dispersion-check", "optics": {"r_values": [0.3]}},
    ]


def test_every_schema_key_rejects_a_malformed_value():
    bases = schema_base_configs()
    assert all(fatals(cfg) == [] for cfg in bases)
    for block, keys in cli._SCHEMA.items():
        for key in keys:
            # A base that gives the key, else any that takes the block: keys
            # that exclude each other (omega values or range, the builder
            # parameters) apply only next to their own kind of neighbours.
            base = next((cfg for cfg in bases if key in cfg.get(block, {})),
                        next(cfg for cfg in bases if block in cfg))
            cfg = json.loads(json.dumps(base))
            cfg[block][key] = "x"
            paths = [d.path for d in fatals(cfg)]
            assert f"{block}.{key}" in paths, (block, key, paths)


def test_numbers_beyond_float_range_are_fatal(tmp_path):
    # JSON integers have no size limit; 10**400 is no finite float.
    dispersion = {"kind": "dispersion-check", "optics": {"r_values": [0.3]}}
    for base, block, key in ((spectrum_config(), "decay", "gamma"),
                             (spectrum_config(), "omega", "start"),
                             (spectrum_config(), "model", "phi0"),
                             (dispersion, "optics", "k_wave")):
        cfg = json.loads(json.dumps(base))
        cfg[block][key] = 10**400
        assert [d.path for d in fatals(cfg)] == [f"{block}.{key}"]
        assert validate_only(tmp_path, cfg) == 2
    chern = {"kind": "chern", "model": {"builder": "landau", "phi0": [10**400, 1]}}
    assert [d.path for d in fatals(chern)] == ["model.phi0"]
    assert validate_only(tmp_path, chern) == 2


def test_integers_beyond_the_index_range_are_fatal(tmp_path):
    # A count or an OAM bound past np.intp indexes nothing NumPy can hold.
    for block, key in (("omega", "num"), ("lattice", "n_x"), ("lattice", "l_max")):
        cfg = json.loads(json.dumps(spectrum_config()))
        cfg[block][key] = 10**400
        assert [d.path for d in fatals(cfg)] == [f"{block}.{key}"]
        assert validate_only(tmp_path, cfg) == 2
    # Within the index range, a grid NumPy cannot allocate is fatal too.
    for num in (2**61, 2**63 - 1):
        cfg = spectrum_config(omega={"start": -3.0, "stop": 3.0, "num": num})
        assert [d.path for d in fatals(cfg)] == ["omega.num"]


def test_seed_must_be_a_philox_key(tmp_path):
    cfg = dict(disorder_config(-6, 6), seed=2**128)
    assert [d.path for d in fatals(cfg)] == ["seed"]
    assert validate_only(tmp_path, cfg) == 2
    cfg["seed"] = 2**128 - 1
    assert fatals(cfg) == []
    run_cli(tmp_path, cfg)


def test_readme_schema_table_names_every_block_and_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("### Config schema")[1].split("Cross-checks")[0]
    rows = {line.split("|")[1].strip().strip("`"): line
            for line in table.splitlines() if line.startswith("| `")}
    for block, keys in cli._SCHEMA.items():
        assert block in rows, block
        for key in keys:
            assert f"`{key}`" in rows[block], (block, key)
