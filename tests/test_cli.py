"""Command-line interface: verbs, exit codes, artifacts, determinism."""

import contextlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rotor_gpe import (
    CSV_HEADER,
    BoundaryTruncation,
    ConfigInvalid,
    Field,
    GridSpec,
    PhysicsParams,
    galilean_momentum,
    galilean_position,
    ground_state,
    propagate_fast,
    record,
    vortex_state,
)
from rotor_gpe.config import build_initial_field, default_config_dict, load_config, parse_config
from rotor_gpe.grid import _sum_sq
from rotor_gpe.solver import evolve
from rotor_gpe.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY,
    _check_intertwining,
    _verify_battery,
    entrypoint,
)
from rotor_gpe.snapshots import SIDECAR_KEYS, write_snapshot


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def run_config(tmp_path, **overrides):
    raw = {
        "grid": {"n": 16, "extent": 5.0},
        "physics": {"omega": 1.0, "beta": 1.0},
        "evolve": {"scheme": "strang", "dt": 2e-3, "t_end": 0.05},
        "output": {"dir": str(tmp_path / "out"), "diagnostics_every": 10, "snapshot_every": 10},
        "seed": 0,
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_writes_csv_snapshots_and_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, run_config(tmp_path))
    with pytest.warns(BoundaryTruncation):  # the desk fixture's box is tight
        assert entrypoint(["run", cfg]) == EXIT_OK
    out_dir = tmp_path / "out"
    csv_text = (out_dir / "diagnostics.csv").read_text()
    assert csv_text.startswith(CSV_HEADER + "\n")
    assert len(csv_text.strip().splitlines()) >= 3  # header + initial + cadence
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert "outputs" in manifest and manifest["outputs"]
    assert (out_dir / "snapshot_final.bin").exists()
    assert (out_dir / "snapshot_final.json").exists()
    assert (out_dir / "snapshot_000000.bin").exists()
    captured = capsys.readouterr().out
    assert "diagnostics records" in captured


@pytest.mark.filterwarnings("ignore::rotor_gpe.errors.BoundaryTruncation")
def test_a_run_manifest_flags_a_phase_far_above_one_per_step(tmp_path):
    # beta = 1e300 still conserves mass and exits 0, but each step turns
    # the phase by about 1e296 radians, which the manifest shows.
    raw = run_config(
        tmp_path,
        grid={"n": 16, "extent": 5.0},
        physics={"omega": 1.0, "beta": 1e300},
        initial={"type": "ground"},
        evolve={"scheme": "strang", "dt": 1e-3, "t_end": 0.01},
    )
    assert entrypoint(["run", write_config(tmp_path, raw)]) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["max_phase_per_step"] > 1e290
    assert 0.0 < manifest["guard_margin"] < 1.0

    raw["physics"]["beta"] = 1.0
    raw["output"]["dir"] = str(tmp_path / "calm")
    assert entrypoint(["run", write_config(tmp_path, raw, "calm.json")]) == EXIT_OK
    manifest = json.loads((tmp_path / "calm" / "manifest.json").read_text())
    assert 0.0 < manifest["max_phase_per_step"] < 1e-3
    assert manifest["guard_margin"] == pytest.approx(1e-3, rel=0.1)


def test_run_writes_each_snapshot_as_the_evolution_collects_it(tmp_path):
    path = write_config(tmp_path, run_config(tmp_path))
    cfg = load_config(path)
    collected = []
    with pytest.warns(BoundaryTruncation):
        assert entrypoint(["run", path]) == EXIT_OK
        evolve(
            build_initial_field(cfg), cfg.solver, cfg.params, snapshot_every=cfg.snapshot_every,
            on_snapshot=lambda t, f: collected.append((t, f)),
        )
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    names = [name for name in manifest["outputs"] if name.startswith("snapshot_0")]
    assert names == [f"snapshot_{i:06d}.{ext}" for i in range(len(collected)) for ext in ("bin", "json")]
    for i, (t, field) in enumerate(collected):
        stem = tmp_path / "out" / f"snapshot_{i:06d}"
        assert stem.with_suffix(".bin").read_bytes() == field.data.astype("<c16").tobytes()
        assert json.loads(stem.with_suffix(".json").read_text())["t"] == t


def test_run_is_byte_for_byte_deterministic(tmp_path):
    cfg_a = write_config(tmp_path, run_config(tmp_path, output={"dir": str(tmp_path / "a"), "diagnostics_every": 10}), "a.json")
    cfg_b = write_config(tmp_path, run_config(tmp_path, output={"dir": str(tmp_path / "b"), "diagnostics_every": 10}), "b.json")
    with pytest.warns(BoundaryTruncation):
        assert entrypoint(["run", cfg_a]) == EXIT_OK
        assert entrypoint(["run", cfg_b]) == EXIT_OK
    a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert a == b
    fa = (tmp_path / "a" / "snapshot_final.bin").read_bytes()
    fb = (tmp_path / "b" / "snapshot_final.bin").read_bytes()
    assert fa == fb


def test_run_picard_scheme(tmp_path, capsys):
    raw = run_config(tmp_path)
    raw["evolve"] = {
        "scheme": "picard",
        "dt": 1e-3,
        "t_end": 0.2,
        "picard": {"quad_nodes": 9},
    }
    cfg = write_config(tmp_path, raw)
    assert entrypoint(["run", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "picard:" in out
    assert "iterations" in out
    assert (tmp_path / "out" / "diagnostics.csv").exists()


def test_a_picard_run_takes_the_kernel_window_rule_before_it_builds_a_field(
    tmp_path, capsys, monkeypatch
):
    # One window rule, propagator._check_window's: t_end = pi/(4 omega)
    # runs, and a t_end past the rule's slack exits 2 under evolve.t_end
    # before the initial field is built.
    import rotor_gpe.cli as cli

    window = PhysicsParams(omega=1.0, beta=1.0).window
    raw = run_config(tmp_path, evolve={"scheme": "picard", "t_end": window, "picard": {"quad_nodes": 9}})
    assert entrypoint(["run", write_config(tmp_path, raw)]) == EXIT_OK
    capsys.readouterr()

    def unbuilt(cfg):
        raise AssertionError("the initial field was built")

    monkeypatch.setattr(cli, "build_initial_field", unbuilt)
    raw["evolve"]["t_end"] = window * (1.0 + 1e-11)
    raw["output"]["dir"] = str(tmp_path / "past")
    assert entrypoint(["run", write_config(tmp_path, raw, "past.json")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: evolve.t_end: the picard scheme is single-window; "), err
    assert err.count("\n") == 1
    assert not (tmp_path / "past").exists()


def test_a_strang_run_past_two_to_the_fifty_two_steps_exits_config(tmp_path, capsys):
    # t_end = 1e300 at dt = 2e-3 would run until killed: the time labels
    # stop telling steps apart long before, so parsing refuses it.
    raw = run_config(tmp_path)
    raw["evolve"]["t_end"] = 1e300
    assert entrypoint(["run", write_config(tmp_path, raw)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: evolve.t_end: must stay below 2**52 steps"), err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_picard_run_that_misses_its_tolerance_is_named_in_summary_and_manifest(
    tmp_path, capsys
):
    # Two iterations cannot reach 1e-30: the run keeps its last iterate
    # and exits 0, and both the summary line and the manifest say so.
    raw = run_config(tmp_path)
    raw["evolve"] = {
        "scheme": "picard",
        "dt": 1e-3,
        "t_end": 0.2,
        "picard": {"quad_nodes": 9, "max_iter": 2, "tol": 1e-30},
    }
    assert entrypoint(["run", write_config(tmp_path, raw)]) == EXIT_OK
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.startswith("picard: 2 iterations") and "not converged" in summary
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["iterations"] == 2
    assert manifest["converged"] is False
    assert manifest["final_distance"] > 1e-30
    assert "guard_margin" not in manifest

    raw["evolve"]["picard"] = {"quad_nodes": 9}
    assert entrypoint(["run", write_config(tmp_path, raw)]) == EXIT_OK
    assert "not converged" not in capsys.readouterr().out
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["converged"] is True
    assert manifest["final_distance"] < 1e-10


def test_a_picard_run_takes_its_balance_reference_from_its_first_record(tmp_path):
    # Row 0's e0 is the energy of the initial field, and every row's
    # residual is its pc_lhs less twice that e0, exactly.
    raw = run_config(tmp_path)
    raw["evolve"] = {"scheme": "picard", "t_end": 0.2, "picard": {"quad_nodes": 9}}
    path = write_config(tmp_path, raw)
    assert entrypoint(["run", path]) == EXIT_OK
    header, *lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
    cfg = load_config(path)
    assert len(rows) == 9
    assert rows[0]["e0"] == record(build_initial_field(cfg), 0.0, cfg.params, None).e0
    for row in rows:
        assert row["pc_residual"] == row["pc_lhs"] - 2.0 * rows[0]["e0"]


def test_run_missing_omega_exits_config(tmp_path, capsys):
    raw = run_config(tmp_path)
    del raw["physics"]["omega"]
    cfg = write_config(tmp_path, raw)
    assert entrypoint(["run", cfg]) == EXIT_CONFIG
    assert "physics.omega" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "verify", "dispersive-scan"])
def test_a_grid_beyond_physical_memory_exits_config(tmp_path, capsys, command):
    # Rejected while parsing: nothing of the grid's size is allocated.  An
    # integer beyond the float range is compared and reported exactly.
    # A count of 5 * 10**4299 nodes holds 10**4300 + 12 fields, more digits
    # than int() prints, so the message gives the count to 3 digits.
    picard = {"scheme": "picard", "t_end": 0.05, "picard": {"quad_nodes": 10**400}}
    digits = {**picard, "picard": {"quad_nodes": 5 * 10**4299}}
    for path, overrides in [
        ("grid.n", {"grid": {"n": 100000, "extent": 5.0}}),
        ("grid.n", {"grid": {"n": 10**400, "extent": 5.0}}),
        ("evolve.picard.quad_nodes", {"evolve": picard}),
        ("evolve.picard.quad_nodes", {"evolve": digits}),
    ]:
        raw = run_config(tmp_path, **overrides)
        assert entrypoint([command, write_config(tmp_path, raw)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {path}: ")


@pytest.mark.parametrize("key", ["dt", "t_end"])
def test_a_length_within_the_time_slack_exits_config(tmp_path, capsys, key):
    # The stepping loop compares times with a 1e-13 slack: a dt of 1e-14
    # took no step and exited 0, and a t_end of 1e-14 was named without
    # its "evolve." prefix.
    raw = run_config(tmp_path)
    raw["evolve"][key] = 1e-14
    assert entrypoint(["run", write_config(tmp_path, raw)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: evolve.{key}: ")


def test_the_working_set_bound_is_twelve_fields_of_the_grid(tmp_path, monkeypatch):
    import rotor_gpe.config as config_module

    monkeypatch.setattr(config_module, "_physical_memory", lambda: 12 * 16 * 48**3)
    raw = run_config(tmp_path)
    raw["grid"]["n"] = 48
    assert config_module.parse_config(raw).grid.n == 48
    raw["grid"]["n"] = 50
    with pytest.raises(ConfigInvalid, match=r"^grid\.n: "):
        config_module.parse_config(raw)


def test_picard_nodes_add_two_fields_each_to_the_working_set(tmp_path, monkeypatch):
    import rotor_gpe.config as config_module

    monkeypatch.setattr(config_module, "_physical_memory", lambda: (12 + 2 * 33) * 16 * 16**3)
    raw = run_config(tmp_path)
    raw["evolve"] = {"scheme": "picard", "picard": {"quad_nodes": 33}}
    assert config_module.parse_config(raw).solver.picard.quad_nodes == 33
    raw["evolve"]["picard"]["quad_nodes"] = 34
    with pytest.raises(ConfigInvalid, match=r"^evolve\.picard\.quad_nodes: "):
        config_module.parse_config(raw)
    # The nodes count only for the scheme that holds them.
    raw["evolve"]["scheme"] = "strang"
    assert config_module.parse_config(raw).solver.picard.quad_nodes == 34


@pytest.mark.parametrize("section, key", [("evolve", "m"), ("compare", "substeps")])
def test_a_substep_count_is_an_unknown_key_and_exits_config_at_once(tmp_path, section, key):
    # The substep count is the propagator's decision, not a config key.
    # Were it read, 2**70 substeps would loop in the matrix build until
    # killed, so the command runs in a child process that a timeout can end.
    import rotor_gpe

    raw = run_config(tmp_path)
    raw.setdefault(section, {})[key] = 2**70
    cfg = write_config(tmp_path, raw)
    command = "run" if section == "evolve" else "propagator-compare"
    src = str(Path(rotor_gpe.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys, time; sys.path.insert(0, {src!r});"
            " from rotor_gpe.cli import entrypoint; start = time.perf_counter();"
            f" code = entrypoint([{command!r}, {cfg!r}]);"
            " print(time.perf_counter() - start); sys.exit(code)",
        ],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == EXIT_CONFIG
    assert float(proc.stdout.strip().splitlines()[-1]) < 2.0
    assert proc.stderr.startswith(f"config error: {section}.{key}: unknown key")


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("evolve", "t_end", float("nan")),
        ("evolve", "dt", float("inf")),
        ("evolve", "dt", float("nan")),
        ("grid", "extent", 10**400),
    ],
    ids=["t_end-nan", "dt-inf", "dt-nan", "extent-int-beyond-float"],
)
def test_run_with_a_non_finite_number_exits_config(tmp_path, capsys, section, key, value):
    raw = run_config(tmp_path)
    raw[section][key] = value
    cfg = write_config(tmp_path, raw)
    assert entrypoint(["run", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {section}.{key}:")
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize(
    "path, overrides",
    [
        ("grid.n", {"grid": {"n": 8, "extent": 5.0}}),
        ("grid.extent", {"grid": {"n": 16, "extent": 2.0}}),
        ("initial.params.kick", {"initial": {"type": "coherent", "params": {"kick": [9.0, 0.0, 0.0]}}}),
    ],
    ids=["core-cells", "envelope-decay", "kick-nyquist"],
)
def test_an_unresolved_initial_state_exits_config_under_its_path(tmp_path, capsys, path, overrides):
    cfg = write_config(tmp_path, run_config(tmp_path, **overrides))
    assert entrypoint(["run", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


def test_run_unwritable_output_exits_io(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    raw = run_config(tmp_path, output={"dir": str(blocker / "nested")})
    cfg = write_config(tmp_path, raw)
    with pytest.warns(BoundaryTruncation):
        assert entrypoint(["run", cfg]) == EXIT_IO


def test_missing_config_file_exits_config(capsys):
    assert entrypoint(["run", "/nonexistent/config.json"]) == EXIT_CONFIG
    assert "config" in capsys.readouterr().err


def snapshot_start_config(tmp_path):
    """A run config starting from a fresh ground-state snapshot ``init``."""
    params = PhysicsParams(omega=1.0, beta=1.0)
    stem = tmp_path / "init"
    write_snapshot(stem, ground_state(GridSpec(16, 5.0), params), 0.0, params)
    raw = run_config(tmp_path)
    raw["initial"] = {"type": "file", "params": {"path": str(stem)}}
    return write_config(tmp_path, raw), stem


def test_run_from_snapshot_with_nan_payload_exits_io(tmp_path, capsys):
    cfg, stem = snapshot_start_config(tmp_path)
    payload = np.fromfile(stem.with_suffix(".bin"), dtype="<c16")
    payload[7] = complex(np.nan, 0.0)
    payload.tofile(stem.with_suffix(".bin"))
    assert entrypoint(["run", cfg]) == EXIT_IO
    assert "NaN" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["strang", "picard"])
@pytest.mark.parametrize("scale", [1e100, 1e160])
def test_a_run_from_a_field_too_large_to_square_exits_config(tmp_path, capsys, scale, scheme):
    # Scaled by 1e100, ||u||_4^4 overflows: a strang run exited 0 with an
    # e0 drift of nan.  Scaled by 1e160, |u|^2 overflows: it ended in a
    # traceback after a cascade of RuntimeWarnings, as a picard run did
    # at either scale.
    params = PhysicsParams(omega=1.0, beta=1.0)
    stem = tmp_path / "init"
    u = ground_state(GridSpec(16, 5.0), params)
    write_snapshot(stem, Field(u.grid, scale * u.data), 0.0, params)
    raw = run_config(tmp_path, evolve={"scheme": scheme, "dt": 1e-3, "t_end": 5e-3})
    raw["initial"] = {"type": "file", "params": {"path": str(stem)}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning would end in a traceback
        assert entrypoint(["run", write_config(tmp_path, raw)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: initial: ") and err.count("\n") == 1
    assert "too large to square" in err


def test_a_picard_run_whose_iteration_overflows_exits_verify(tmp_path, capsys):
    # At beta = 1e300 the first sweep overflows and its workspace distance
    # is NaN, which the rising-distance count took for a fall: all sweeps
    # ran, warning hundreds of times, and the run ended in Field's
    # ValueError traceback.  A distance that is not finite ends it at once.
    raw = run_config(tmp_path, evolve={"scheme": "picard", "dt": 0.01, "t_end": 0.1})
    raw["physics"]["beta"] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning would end in a traceback
        assert entrypoint(["run", write_config(tmp_path, raw)]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert err.startswith("verification failure: workspace distance is nan at iteration 1")
    assert err.count("\n") == 1


def test_run_from_a_sidecar_that_is_not_an_object_exits_io(tmp_path, capsys):
    cfg, stem = snapshot_start_config(tmp_path)
    stem.with_suffix(".json").write_text(json.dumps(list(SIDECAR_KEYS)))
    assert entrypoint(["run", cfg]) == EXIT_IO
    assert "expected a JSON object, got list" in capsys.readouterr().err


def test_run_from_snapshot_with_odd_grid_exits_io(tmp_path, capsys):
    cfg, stem = snapshot_start_config(tmp_path)
    sidecar = stem.with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    meta["n"] = 15
    sidecar.write_text(json.dumps(meta))
    np.zeros(15**3, dtype="<c16").tofile(stem.with_suffix(".bin"))
    assert entrypoint(["run", cfg]) == EXIT_IO
    assert "grid.n" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("omega", 1.5), ("beta", 0.5)])
def test_run_from_snapshot_with_other_physics_exits_config(tmp_path, capsys, key, value):
    cfg, stem = snapshot_start_config(tmp_path)
    sidecar = stem.with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    meta[key] = value
    sidecar.write_text(json.dumps(meta))
    assert entrypoint(["run", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"initial.params.path: snapshot {key} = {value}" in err
    assert f"physics.{key}" in err


@pytest.mark.parametrize(
    "target",
    ["snapshot_000000.bin", "snapshot_000000.json", "diagnostics.csv", "manifest.json"],
)
def test_run_with_a_write_failing_partway_leaves_no_file_under_the_final_name(
    tmp_path, capsys, monkeypatch, target
):
    import rotor_gpe.snapshots as snapshots

    real_write = snapshots._write_all

    def write_half_then_fail(fh, data):
        if Path(fh.name).name.startswith(f".{target}."):
            fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")
        real_write(fh, data)

    monkeypatch.setattr(snapshots, "_write_all", write_half_then_fail)
    cfg = write_config(tmp_path, run_config(tmp_path))
    with pytest.warns(BoundaryTruncation):
        assert entrypoint(["run", cfg]) == EXIT_IO
    assert "I/O error" in capsys.readouterr().err
    out_dir = tmp_path / "out"
    assert not (out_dir / target).exists()
    assert not list(out_dir.glob(".*.tmp"))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_default_battery_passes(capsys):
    assert entrypoint(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all 12 checks passed" in out
    assert "intertwining-momentum" in out
    assert "duality-pairing" in out


def test_a_desk_verify_round_builds_each_oracle_time_once_and_keeps_one():
    # The battery runs its oracle rows one kernel time at a time (0.55,
    # pi/4 and 0.7), so the one-time factor cache builds three factor
    # sets and never holds more than one (1.8 MB at n = 24); the battery
    # clears it after its last oracle row.
    from rotor_gpe.propagator import _oracle_factors

    _oracle_factors.cache_clear()
    _verify_battery(parse_config(default_config_dict()))
    info = _oracle_factors.cache_info()
    assert info.misses <= 3
    assert info.currsize <= 1


def test_a_desk_verify_round_drops_each_field_after_its_last_row():
    # The random draws, the eigenphase and conservation fields and the
    # oracle's factor cache go once the last row that reads them has run:
    # measured 5.25 MB traced with the factor cache cleared first and the
    # other caches warm (7.59 MB when all of them were held to the end).
    from rotor_gpe.propagator import _oracle_factors

    cfg = parse_config(default_config_dict())
    _verify_battery(cfg)  # the plans and tables outside the measurement
    _oracle_factors.cache_clear()
    tracemalloc.start()
    try:
        _verify_battery(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 5.25e6


def test_the_streamed_intertwining_check_reads_the_dressed_fields_defects():
    # One component at a time, through a reused output/scratch pair, gives
    # bit for bit what building both families whole and flowing each does.
    grid, params, t = GridSpec(16, 5.0), PhysicsParams(omega=1.0, beta=1.0), 0.6
    want = [0.0, 0.0]
    for u0 in (ground_state(grid, params), vortex_state(grid, params, charge=1)):
        ut = propagate_fast(u0, t, params)
        for k, dressed in enumerate((galilean_momentum, galilean_position)):
            for g0, gt in zip(dressed(u0, 0.0, params), dressed(ut, t, params)):
                moved = propagate_fast(g0, t, params)
                want[k] = max(want[k], float(np.sqrt(_sum_sq(gt.data - moved.data))))
    assert _check_intertwining(grid, params, t) == tuple(want)


def test_the_intertwining_check_holds_at_most_eight_fields():
    # One state, its flow, the built and moved component and two partials
    # make six fields, seven while the vortex is built; the six dressed
    # components of both families at once held 19.
    grid, params = GridSpec(32, 7.0), PhysicsParams(omega=1.0, beta=1.0)
    _check_intertwining(grid, params, 0.6)  # the grid's tables and the flow matrix
    tracemalloc.start()
    try:
        _check_intertwining(grid, params, 0.6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * grid.n**3


def test_verify_loads_neither_numpy_random_nor_secrets(tmp_path):
    # The battery draws from the standard library's Mersenne Twister:
    # numpy.random would load secrets, hashlib and OpenSSL (6.1 MB of a
    # fresh process) to draw 7 fields and 120 times.
    import rotor_gpe

    cfg = write_config(tmp_path, {**default_config_dict(), "output": {"dir": str(tmp_path / "out")}})
    src = str(Path(rotor_gpe.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; sys.path.insert(0, {src!r}); from rotor_gpe.cli import entrypoint;"
            f" code = entrypoint(['verify', {cfg!r}]);"
            " print(sorted(m for m in ('numpy.random', 'secrets') if m in sys.modules));"
            " sys.exit(code)",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "all 12 checks passed" in proc.stdout
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_verify_battery_sums_its_norms_without_a_blas_dot(monkeypatch):
    # np.linalg.norm of a complex array is two threaded BLAS dots, which
    # can stall a cold process; the battery's L2 norms sum by einsum.
    from rotor_gpe.cli import _verify_battery
    from rotor_gpe.config import default_config_dict, parse_config

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.norm called")

    monkeypatch.setattr(np.linalg, "norm", refuse)
    rows = _verify_battery(parse_config(default_config_dict()))
    assert len(rows) == 12 and all(r.passed for r in rows)


def test_the_richardson_referee_meets_a_4096_step_strang_run():
    # The referee of `verify`'s nonlinear row and of the picard study:
    # (4 u_256 - u_128) / 3 at n = 16 from the ground state to t = pi/8.
    # A 4096-step Strang run is itself 1.6e-10 from the limit.
    from rotor_gpe.cli import _strang_referee
    from rotor_gpe.solver import SolverConfig

    params = PhysicsParams(omega=1.0, beta=1.0)
    u0 = ground_state(GridSpec(n=16, extent=5.0), params)
    t = np.pi / 8.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryTruncation)
        ref = _strang_referee(u0, t, params).data
        fine = evolve(
            u0, SolverConfig(scheme="strang", dt=t / 4096, t_end=t), params
        ).final.field.data
    assert np.linalg.norm(ref - fine) / np.linalg.norm(fine) < 1e-9


def test_the_matrix_identity_row_reads_rounding_at_every_seed():
    # Each identity's defect is relative to its own scale (csc^2 reaches
    # 650 at the earliest time drawn), so the seed's random times do not
    # set the row.
    from rotor_gpe.cli import _check_matrix_identities

    params = PhysicsParams(omega=1.0, beta=1.0)
    for seed in range(11):
        assert _check_matrix_identities(params, np.random.default_rng(seed)) <= 1e-15


def test_verify_skips_nonlinear_check_without_interaction(tmp_path, capsys):
    raw = {"grid": {"n": 24, "extent": 6.0}, "physics": {"omega": 1.0, "beta": 0.0}}
    cfg = write_config(tmp_path, raw)
    assert entrypoint(["verify", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "skipped (beta = 0" in out
    assert "all 11 checks passed" in out


def test_verify_tampered_tolerance_lists_every_failure(tmp_path, capsys, monkeypatch):
    # The tolerances are fixed, so the measurements are tampered with: six
    # rows read 1.0, far above their tolerances, and the other six pass.
    import rotor_gpe.cli as cli

    monkeypatch.setattr(cli, "_check_matrix_identities", lambda params, rng: 1.0)
    monkeypatch.setattr(cli, "_check_intertwining", lambda grid, params, t: (1.0, 1.0))
    drifts = dict.fromkeys(("mass", "e0", "lz_expect"), 1.0)
    monkeypatch.setattr(cli, "drift_report", lambda records: drifts)
    raw = {"grid": {"n": 24, "extent": 6.0}, "physics": {"omega": 1.0, "beta": 1.0}}
    cfg = write_config(tmp_path, raw)
    assert entrypoint(["verify", cfg]) == EXIT_VERIFY
    out = capsys.readouterr().out
    failed = {line.split()[0] for line in out.splitlines() if line.endswith("  FAIL")}
    assert failed == {
        "matrix-identity",
        "intertwining-momentum",
        "intertwining-position",
        "conservation-mass",
        "conservation-energy",
        "conservation-lz",
    }
    assert out.count("FAIL") == 6
    assert out.count("  PASS") == 6
    assert "6 of 12 checks failed" in out


def test_a_verify_section_is_an_unknown_key(tmp_path, capsys):
    # verify's tolerances are the battery's; no config key changes them.
    raw = {
        "grid": {"n": 24, "extent": 6.0},
        "physics": {"omega": 1.0, "beta": 1.0},
        "verify": {"tolerance": 0.0},
    }
    assert entrypoint(["verify", write_config(tmp_path, raw)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: config.verify: unknown key")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

#: The documented exit code of every error class (README, "Command line").
DOCUMENTED_EXIT_CODES = {
    "RotorGpeError": EXIT_CONFIG,
    "ConfigInvalid": EXIT_CONFIG,
    "WindowViolation": EXIT_CONFIG,
    "GridTooLarge": EXIT_CONFIG,
    "InvalidExponent": EXIT_CONFIG,
    "QFactorizationSingular": EXIT_CONFIG,
    "ResolutionTooLow": EXIT_CONFIG,
    "BlowupDetected": EXIT_VERIFY,
    "NoContraction": EXIT_VERIFY,
    "SnapshotFormatError": EXIT_IO,
    "OSError": EXIT_IO,
}
PREFIXES = {
    EXIT_CONFIG: "config error: ",
    EXIT_VERIFY: "verification failure: ",
    EXIT_IO: "I/O error: ",
}


def _error_classes():
    import rotor_gpe.errors as errors

    classes = [getattr(errors, name) for name in errors.__all__]
    return [c for c in classes if issubclass(c, errors.RotorGpeError)] + [OSError]


@pytest.mark.parametrize("error", _error_classes(), ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_documented_code(tmp_path, capsys, monkeypatch, error):
    import rotor_gpe.cli as cli

    def raising(cfg):
        raise error("the message")

    monkeypatch.setattr(cli, "cmd_run", raising)
    code = DOCUMENTED_EXIT_CODES[error.__name__]
    assert entrypoint(["run", write_config(tmp_path, run_config(tmp_path))]) == code
    assert capsys.readouterr().err == f"{PREFIXES[code]}the message\n"


def test_the_readme_lists_every_error_class_with_its_exit_code():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n### ", 1)[0]
    listed = re.findall(r"^- `(\w+)`[^:\n]*: (\d)$", section, re.MULTILINE)
    assert {name: int(code) for name, code in listed} == DOCUMENTED_EXIT_CODES


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------


def test_convergence_strang_measures_second_order(tmp_path, capsys):
    raw = run_config(tmp_path)
    raw["evolve"] = {"scheme": "strang", "dt": 1e-3, "t_end": 0.5}
    cfg = write_config(tmp_path, raw)
    with pytest.warns(BoundaryTruncation):
        assert entrypoint(["convergence", cfg, "--scheme", "strang", "--levels", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fitted order:" in out
    csv_path = tmp_path / "out" / "convergence_strang.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "level,dt_or_m,error,observed_order"
    assert len(lines) == 4


def test_convergence_strang_needs_interaction(tmp_path, capsys):
    raw = run_config(tmp_path, physics={"omega": 1.0, "beta": 0.0})
    cfg = write_config(tmp_path, raw)
    assert entrypoint(["convergence", cfg, "--scheme", "strang"]) == EXIT_CONFIG
    assert "physics.beta" in capsys.readouterr().err


def test_convergence_linear_substep_study(tmp_path, capsys):
    cfg = write_config(tmp_path, run_config(tmp_path))
    assert entrypoint(["convergence", cfg, "--scheme", "linear", "--levels", "3"]) == EXIT_OK
    assert (tmp_path / "out" / "convergence_linear.csv").exists()


@pytest.mark.parametrize("levels", [2, 3, 4, 5, 6])
def test_convergence_linear_substep_study_holds_its_order_over_one_window(tmp_path, capsys, levels):
    # The ladder starts at m = 2: one substep across the whole window is
    # pre-asymptotic (with it, levels 2 and 3 fitted 2.193 and 2.1195).
    # Measured fits: 2.099, 2.062, 2.043, 2.033 and 2.026.
    raw = run_config(tmp_path, physics={"omega": 1.0, "beta": 0.0})
    del raw["evolve"]["t_end"]
    cfg = write_config(tmp_path, raw)
    assert entrypoint(["convergence", cfg, "--scheme", "linear", "--levels", str(levels)]) == EXIT_OK
    rows = (tmp_path / "out" / "convergence_linear.csv").read_text().strip().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == [2.0**(k + 1) for k in range(levels)]
    fitted = float(capsys.readouterr().out.rsplit("fitted order:", 1)[1].split()[0])
    assert 1.9 <= fitted <= 2.1


def test_convergence_picard_node_study(tmp_path, capsys):
    # Chebyshev-Lobatto nodes 3, 5, ..., 13 over pi/8 from the ground
    # state: the error falls geometrically (measured 2.0e-4 to 2.0e-11)
    # and stays above the referee's own floor, about 4e-13 at 17 nodes.
    # A collocation ladder has no order: each level's error ratio is
    # written, and no fitted order is printed.
    raw = run_config(tmp_path)
    del raw["evolve"]["t_end"]
    cfg = write_config(tmp_path, raw)
    with pytest.warns(BoundaryTruncation):  # the referee's Strang runs on the desk fixture
        assert entrypoint(["convergence", cfg, "--scheme", "picard", "--levels", "6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "monotone decrease: yes" in out
    assert "order" not in out
    header, *lines = (tmp_path / "out" / "convergence_picard.csv").read_text().strip().splitlines()
    assert header == "level,dt_or_m,error,error_ratio"
    rows = [r.split(",") for r in lines]
    assert [float(r[1]) for r in rows] == [3.0, 5.0, 7.0, 9.0, 11.0, 13.0]
    errors = [float(r[2]) for r in rows]
    assert errors[-1] > 1e-12
    assert rows[0][3] == ""
    assert [float(r[3]) for r in rows[1:]] == [a / b for a, b in zip(errors, errors[1:])]


def test_convergence_levels_bounds(tmp_path, capsys):
    cfg = write_config(tmp_path, run_config(tmp_path))
    assert entrypoint(["convergence", cfg, "--scheme", "strang", "--levels", "9"]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# dispersive-scan
# ---------------------------------------------------------------------------


def test_dispersive_scan_default_battery(tmp_path, capsys):
    raw = {
        "grid": {"n": 64, "extent": 8.0},
        "physics": {"omega": 1.0, "beta": 0.0},
        "output": {"dir": str(tmp_path / "scan")},
    }
    cfg = write_config(tmp_path, raw)
    assert entrypoint(["dispersive-scan", cfg]) == EXIT_OK
    lines = (tmp_path / "scan" / "dispersive_scan.csv").read_text().strip().splitlines()
    assert lines[0] == "t,s,ratio,bound"
    assert len(lines) >= 11
    out = capsys.readouterr().out
    assert "max ratio/bound:" in out
    manifest = json.loads(
        (tmp_path / "scan" / "manifest_dispersive_scan.json").read_text()
    )
    assert manifest["command"] == "dispersive-scan"


def test_dispersive_scan_empty_pairs_writes_header_only(tmp_path, capsys):
    raw = {
        "grid": {"n": 32, "extent": 6.0},
        "physics": {"omega": 1.0, "beta": 0.0},
        "scan": {"pairs": []},
        "output": {"dir": str(tmp_path / "scan")},
    }
    cfg = write_config(tmp_path, raw)
    assert entrypoint(["dispersive-scan", cfg]) == EXIT_OK
    assert (tmp_path / "scan" / "dispersive_scan.csv").read_text() == "t,s,ratio,bound\n"


def test_dispersive_scan_too_few_pairs_is_config_error(tmp_path, capsys):
    raw = {
        "grid": {"n": 32, "extent": 6.0},
        "physics": {"omega": 1.0},
        "scan": {"pairs": [[0.3, 0.1], [0.4, 0.1]]},
        "output": {"dir": str(tmp_path / "scan")},
    }
    cfg = write_config(tmp_path, raw)
    assert entrypoint(["dispersive-scan", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize("t", [10.0, 0.0, -0.1])
@pytest.mark.parametrize(
    "command, section, pairs, path",
    [
        ("dispersive-scan", "scan", lambda t: [[0.3, 0.1], [0.4, 0.1], [t, 0.1]], "scan.pairs[2][0]"),
        ("dispersive-scan", "scan", lambda t: [[0.3, t], [0.4, 0.1], [0.5, 0.1]], "scan.pairs[0][1]"),
        ("propagator-compare", "compare", lambda t: [["ground", t]], "compare.pairs[0][1]"),
    ],
    ids=["scan-t", "scan-s", "compare-t"],
)
def test_a_pair_time_outside_the_window_exits_config_under_its_path(
    tmp_path, capsys, command, section, pairs, path, t
):
    # Every pair time is a kernel time, so it must lie in (0, pi/(4 omega)].
    raw = run_config(tmp_path, physics={"omega": 1.0, "beta": 0.0}, **{section: {"pairs": pairs(t)}})
    assert entrypoint([command, write_config(tmp_path, raw)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: kernel time t = {t!r} outside"), err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# propagator-compare
# ---------------------------------------------------------------------------


def test_propagator_compare_cross_checks_backends(tmp_path, capsys):
    # At n = 16, extent 5 both backends sit above the 1e-6 agreement bound
    # against the closed form (fast 1.3e-5, dense kernel 4.3e-6), so the
    # comparison needs the finer 24 x 6 grid.
    raw = {
        "grid": {"n": 24, "extent": 6.0},
        "physics": {"omega": 1.0, "beta": 0.0},
        "compare": {"pairs": [["ground", 0.6]]},
        "output": {"dir": str(tmp_path / "cmp")},
    }
    cfg = write_config(tmp_path, raw)
    assert entrypoint(["propagator-compare", cfg]) == EXIT_OK
    lines = (tmp_path / "cmp" / "propagator_compare.csv").read_text().strip().splitlines()
    assert lines[0] == "t,ratio,bound"
    assert len(lines) == 2
    assert "within" in capsys.readouterr().out
    manifest = json.loads(
        (tmp_path / "cmp" / "manifest_propagator_compare.json").read_text()
    )
    assert manifest["command"] == "propagator-compare"


def test_a_compare_time_the_dense_kernel_aliases_exits_config_under_its_path(tmp_path, capsys):
    # At n = 24, extent 6 the oracle's quadrature aliases at t = 0.3
    # (omega*cot(omega t)*extent*h_q = 4.849 > pi), so the referee would
    # be wrong, not the fast backend: the pair is rejected before any run.
    raw = {
        "grid": {"n": 24, "extent": 6.0},
        "physics": {"omega": 1.0, "beta": 1.0},
        "compare": {"pairs": [["vortex_plus", 0.3], ["ground", 0.6]]},
        "output": {"dir": str(tmp_path / "cmp")},
    }
    assert entrypoint(["propagator-compare", write_config(tmp_path, raw)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: compare.pairs[0][1]: "), err
    assert "4.849 > pi" in err
    assert not (tmp_path / "cmp").exists()

    raw["compare"]["pairs"] = [["ground", 0.6]]
    assert entrypoint(["propagator-compare", write_config(tmp_path, raw)]) == EXIT_OK


def test_default_compare_pairs_the_dense_kernel_aliases_exit_config_before_any_file(
    tmp_path, capsys
):
    # Without compare.pairs the command compares the ground state and the
    # vortex at 0.6/omega.  At n = 24, extent 8 the oracle aliases there
    # (3.898 > pi) and read 1.4e-2 and 2.9e-2, blamed on the fast backend
    # (exit 3); the default pairs are checked like given ones instead.
    raw = {
        "grid": {"n": 24, "extent": 8.0},
        "physics": {"omega": 1.0, "beta": 1.0},
        "output": {"dir": str(tmp_path / "cmp")},
    }
    assert entrypoint(["propagator-compare", write_config(tmp_path, raw)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: compare.pairs"), err
    assert "3.898 > pi" in err
    assert not (tmp_path / "cmp").exists()
    # The same grid still runs what never compares.
    raw["evolve"] = {"t_end": 0.01}
    assert entrypoint(["run", write_config(tmp_path, raw)]) == EXIT_OK


def test_propagator_compare_empty_pairs(tmp_path):
    raw = {
        "grid": {"n": 16, "extent": 5.0},
        "physics": {"omega": 1.0},
        "compare": {"pairs": []},
        "output": {"dir": str(tmp_path / "cmp")},
    }
    cfg = write_config(tmp_path, raw)
    assert entrypoint(["propagator-compare", cfg]) == EXIT_OK
    assert (tmp_path / "cmp" / "propagator_compare.csv").read_text() == "t,ratio,bound\n"


def test_propagator_compare_rejects_uncheckable_grids(tmp_path, capsys):
    raw = {
        "grid": {"n": 32, "extent": 6.0},
        "physics": {"omega": 1.0},
        "output": {"dir": str(tmp_path / "cmp")},
    }
    cfg = write_config(tmp_path, raw)
    assert entrypoint(["propagator-compare", cfg]) == EXIT_CONFIG
    assert "grid.n" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one linear flow
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args, overrides, split, warns",
    [
        (["run"], {}, False, True),
        (["verify"], None, False, False),
        (
            ["propagator-compare"],
            {
                "grid": {"n": 24, "extent": 6.0},
                "physics": {"omega": 1.0, "beta": 0.0},
                "compare": {"pairs": [["ground", 0.6]]},
            },
            False,
            False,
        ),
        (["convergence", "--scheme", "strang", "--levels", "2"], {}, False, True),
        (
            ["convergence", "--scheme", "picard", "--levels", "2"],
            {"physics": {"omega": 1.0, "beta": 0.5}},
            False,
            True,
        ),
        (["convergence", "--scheme", "linear", "--levels", "2"], {}, True, False),
    ],
    ids=["run", "verify", "propagator-compare", "strang", "picard", "linear"],
)
def test_only_the_linear_study_names_a_substep_count(tmp_path, monkeypatch, args, overrides, split, warns):
    # Every harmonic matrix is built by propagator._harmonic_matrix; its
    # substep count is None for the exact flow and an integer for the split.
    # The nonlinear runs on the desk fixture warn that its box is tight.
    import rotor_gpe.propagator as propagator

    counts = []
    build = propagator._harmonic_matrix

    def recording(grid, params, t, substeps):
        counts.append(substeps)
        return build(grid, params, t, substeps)

    monkeypatch.setattr(propagator, "_harmonic_matrix", recording)
    argv = list(args)
    if overrides is not None:
        argv.insert(1, write_config(tmp_path, run_config(tmp_path, **overrides)))
    with pytest.warns(BoundaryTruncation) if warns else contextlib.nullcontext():
        assert entrypoint(argv) == EXIT_OK
    assert counts
    if split:
        assert all(isinstance(m, int) for m in counts)
    else:
        assert all(m is None for m in counts)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args, raw_overrides, manifest, code",
    [
        (
            ["convergence", "--scheme", "linear", "--levels", "2"],
            {},
            "manifest_convergence_linear.csv.json",
            EXIT_OK,
        ),
        (
            ["dispersive-scan"],
            {"scan": {"pairs": [[0.2, 0.1], [0.3, 0.1], [0.4, 0.1]]}},
            "manifest_dispersive_scan.json",
            EXIT_OK,
        ),
        # At n = 16 the fast backend's own grid floor (1.3e-5 from the
        # closed form) is above the agreement bound; the manifest is
        # written all the same.
        (
            ["propagator-compare"],
            {"compare": {"pairs": [["ground", 0.6]]}},
            "manifest_propagator_compare.json",
            EXIT_VERIFY,
        ),
    ],
    ids=["convergence", "dispersive-scan", "propagator-compare"],
)
def test_subcommand_manifests_record_their_wall_time(
    tmp_path, args, raw_overrides, manifest, code
):
    raw = run_config(tmp_path, physics={"omega": 1.0, "beta": 0.0}, **raw_overrides)
    cfg = write_config(tmp_path, raw)
    start = time.perf_counter()
    assert entrypoint([args[0], cfg, *args[1:]]) == code
    elapsed = time.perf_counter() - start
    wall = json.loads((tmp_path / "out" / manifest).read_text())["wall_time_seconds"]
    assert 0.0 < wall <= elapsed


# ---------------------------------------------------------------------------
# parser-level behavior
# ---------------------------------------------------------------------------


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        entrypoint(["frobnicate"])
    assert exc.value.code == 2


def test_importing_the_package_loads_no_scipy():
    # numpy is the only runtime dependency; scipy costs a cold start ~0.5 s.
    import rotor_gpe

    src = str(Path(rotor_gpe.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; sys.path.insert(0, {src!r}); import rotor_gpe, sys;"
            " print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_package_exports_the_union_of_the_module_lists():
    import ast
    import importlib
    import pkgutil

    import rotor_gpe

    # Every module but the entry points, which import the package itself.
    modules = [
        importlib.import_module(f"rotor_gpe.{info.name}")
        for info in pkgutil.iter_modules(rotor_gpe.__path__)
        if info.name not in ("cli", "__main__")
    ]
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    union = [name for module in modules for name in module.__all__]
    assert len(union) == len(set(union))
    assert sorted(rotor_gpe.__all__) == sorted(["__version__", *union])
    imported = {
        alias.name
        for path in Path(__file__).parent.glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "rotor_gpe"
        for alias in node.names
    }
    assert imported <= set(union)


def test_module_invocation_reports_version():
    # The subprocess does not see pytest's ``pythonpath``, so it is handed
    # the repository's ``src`` first: the test runs from a bare checkout.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "rotor_gpe", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "rotor-gpe" in proc.stdout
