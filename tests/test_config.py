"""JSON run-configuration parsing: defaults, validation, path-named errors."""

import copy
import json
import math
import re
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotor_gpe import (
    ConfigInvalid,
    RotorGpeError,
    GridSpec,
    build_initial_field,
    ground_state,
    load_config,
    parse_config,
    write_snapshot,
)
from rotor_gpe.cli import EXIT_CONFIG, entrypoint
from rotor_gpe.config import default_config_dict
from rotor_gpe.solver import PicardConfig


def minimal() -> dict:
    return {"grid": {"n": 16, "extent": 5.0}, "physics": {"omega": 1.0}}


def full() -> dict:
    """A config that sets every section, and every key of each."""
    return {
        "grid": {"n": 16, "extent": 5.0},
        "physics": {"omega": 1.0, "beta": 0.5},
        "initial": {"type": "coherent", "params": {"center": [1.0, 0.0, 0.0], "kick": [0.0, 0.3, 0.0]}},
        "evolve": {
            "scheme": "picard",
            "dt": 2e-3,
            "t_end": 0.5,
            "blowup_factor": 1e3,
            "picard": {"tol": 1e-10, "max_iter": 25, "quad_nodes": 17},
        },
        "output": {"dir": "runs/demo", "snapshot_every": 100, "diagnostics_every": 25},
        "seed": 7,
        "scan": {"pairs": [[0.4, 0.2], [0.5, 0.1]]},
        "compare": {"pairs": [["ground", 0.6]]},
    }


#: The values that replace one node of a config in :func:`single_faults`.
#: ``5 * 10**4299`` has 4300 digits, the most ``json.loads`` admits.
FAULT_VALUES = (
    None, True, "s", -1, 0, 1.5, math.nan, 10**400, 5 * 10**4299, [], {}, [1, 2], [1, 2, 3]
)
DELETE, ADD_KEY = object(), object()


def single_faults(base: dict):
    """Yield ``(path, fault, config)`` for every single fault of ``base``.

    At every key path (list indices included) each of ``FAULT_VALUES``
    replaces the node, or the node is deleted; every object, the top
    level included, also gains the key ``unknown_key``.
    """

    def walk(node, path):
        yield path, node
        if isinstance(node, (dict, list)):
            for key in node if isinstance(node, dict) else range(len(node)):
                yield from walk(node[key], path + (key,))

    for path, node in walk(base, ()):
        faults = [*FAULT_VALUES, DELETE] if path else []
        if isinstance(node, dict):
            faults.append(ADD_KEY)
        for fault in faults:
            raw = copy.deepcopy(base)
            parent = raw
            for key in path[:-1]:
                parent = parent[key]
            if fault is ADD_KEY:
                (parent[path[-1]] if path else raw)["unknown_key"] = 0
            elif fault is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(fault)
            yield path, fault, raw


# ---------------------------------------------------------------------------
# happy paths and defaults
# ---------------------------------------------------------------------------


def test_minimal_config_fills_defaults():
    cfg = parse_config(minimal())
    assert cfg.grid == GridSpec(16, 5.0)
    assert cfg.params.omega == 1.0
    assert cfg.params.beta == 0.0
    assert cfg.initial_type == "ground"
    assert cfg.solver.scheme == "strang"
    assert cfg.solver.dt == pytest.approx(1e-3)
    assert cfg.solver.t_end == pytest.approx(cfg.params.window)
    assert cfg.seed == 0
    assert cfg.snapshot_every == 0


def readme_example() -> dict:
    """The README's schema example, its comments and ellipses dropped."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration schema", 1)[1]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r"//.*", "", block).replace(", ...", ""))


def test_the_readme_example_config_parses():
    cfg = parse_config(readme_example())
    assert cfg.solver.diagnostics_every == 25


def test_the_readme_example_picard_block_is_the_default():
    assert readme_example()["evolve"]["picard"] == asdict(PicardConfig())


def test_default_config_dict_parses():
    cfg = parse_config(default_config_dict())
    assert cfg.grid.n == 24
    assert cfg.params.beta == 1.0


def test_full_config_round_trip():
    raw = {
        "grid": {"n": 24, "extent": 6.0},
        "physics": {"omega": 1.0, "beta": 0.5},
        "initial": {"type": "coherent", "params": {"center": [1.0, 0.0, 0.0], "kick": [0.0, 0.3, 0.0]}},
        "evolve": {"scheme": "strang", "dt": 2e-3, "t_end": 0.5},
        "output": {"dir": "runs/demo", "snapshot_every": 100, "diagnostics_every": 25},
        "seed": 7,
    }
    cfg = parse_config(raw)
    assert cfg.initial_type == "coherent"
    assert cfg.initial_params["center"] == (1.0, 0.0, 0.0)
    assert cfg.solver.t_end == 0.5
    assert cfg.solver.diagnostics_every == 25
    assert str(cfg.output_dir).endswith("runs/demo")
    assert cfg.snapshot_every == 100
    assert cfg.seed == 7
    assert cfg.echo == raw


def test_picard_scheme_block():
    raw = minimal()
    raw["evolve"] = {
        "scheme": "picard",
        "dt": 1e-3,
        "t_end": 0.3,
        "picard": {"quad_nodes": 17, "tol": 1e-9, "max_iter": 20},
    }
    cfg = parse_config(raw)
    assert cfg.solver.scheme == "picard"
    assert cfg.solver.m is None
    assert cfg.solver.picard.quad_nodes == 17
    assert cfg.solver.picard.tol == 1e-9


# ---------------------------------------------------------------------------
# required sections and path-named errors
# ---------------------------------------------------------------------------


def test_missing_sections_name_their_paths():
    with pytest.raises(ConfigInvalid, match="grid"):
        parse_config({"physics": {"omega": 1.0}})
    with pytest.raises(ConfigInvalid, match="physics"):
        parse_config({"grid": {"n": 16, "extent": 5.0}})
    with pytest.raises(ConfigInvalid, match="physics.omega"):
        parse_config({"grid": {"n": 16, "extent": 5.0}, "physics": {"beta": 1.0}})


def test_unknown_keys_are_rejected_with_allowed_list():
    raw = minimal()
    raw["grid"]["spacing"] = 0.1
    with pytest.raises(ConfigInvalid, match=r"grid\.spacing: unknown key"):
        parse_config(raw)
    raw = minimal()
    raw["extra"] = {}
    with pytest.raises(ConfigInvalid, match="extra"):
        parse_config(raw)
    raw = minimal()
    raw["evolve"] = {"dt": 1e-3, "step_count": 5}
    with pytest.raises(ConfigInvalid, match=r"evolve\.step_count"):
        parse_config(raw)
    # The diagnostics cadence has one key, under output.
    raw["evolve"] = {"dt": 1e-3, "diagnostics_every": 5}
    with pytest.raises(ConfigInvalid, match=r"evolve\.diagnostics_every: unknown key"):
        parse_config(raw)


def test_a_picard_rho_key_exits_config_as_an_unknown_key(tmp_path, monkeypatch, capsys):
    # The Strichartz pair is fixed at rho = 4, so a config that still
    # sets evolve.picard.rho is rejected like any other unknown key, and
    # writes nothing.
    monkeypatch.chdir(tmp_path)
    raw = minimal()
    raw["evolve"] = {"scheme": "picard", "picard": {"rho": 4.0}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert entrypoint(["run", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: evolve.picard.rho: unknown key (allowed: tol, max_iter, quad_nodes)"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_type_errors_name_their_paths():
    raw = minimal()
    raw["grid"]["n"] = True
    with pytest.raises(ConfigInvalid, match="grid.n"):
        parse_config(raw)
    raw = minimal()
    raw["physics"]["omega"] = "fast"
    with pytest.raises(ConfigInvalid, match="physics.omega"):
        parse_config(raw)
    raw = minimal()
    raw["evolve"] = {"dt": -1.0}
    with pytest.raises(ConfigInvalid, match="evolve"):
        parse_config(raw)
    raw = minimal()
    raw["seed"] = -1
    with pytest.raises(ConfigInvalid, match="seed"):
        parse_config(raw)


def test_initial_coherent_vector_validation():
    raw = minimal()
    raw["initial"] = {"type": "coherent", "params": {"center": [1.0, 0.0]}}
    with pytest.raises(ConfigInvalid, match="center"):
        parse_config(raw)
    raw["initial"] = {"type": "warp"}
    with pytest.raises(ConfigInvalid, match="initial.type"):
        parse_config(raw)
    raw["initial"] = {"type": "file"}
    with pytest.raises(ConfigInvalid, match="path"):
        parse_config(raw)


def test_verify_scan_compare_sections():
    raw = minimal()
    raw["scan"] = {"pairs": [[0.3, 0.1], [0.4, 0.1], [0.5, 0.1]]}
    cfg = parse_config(raw)
    assert cfg.scan_pairs == ((0.3, 0.1), (0.4, 0.1), (0.5, 0.1))
    raw["scan"] = {"pairs": [[0.3]]}
    with pytest.raises(ConfigInvalid, match="scan.pairs"):
        parse_config(raw)
    raw = minimal()
    raw["compare"] = {"pairs": [["ground", 0.6]]}
    cfg = parse_config(raw)
    assert cfg.compare_pairs == (("ground", 0.6),)
    raw["compare"] = {"pairs": [["soliton", 0.6]]}
    with pytest.raises(ConfigInvalid, match="compare.pairs"):
        parse_config(raw)


PATH_MESSAGE = re.compile(r"^[a-z_]+(\.[a-z_]+|\[\d+\])*: ")


@pytest.mark.parametrize("base", [full, minimal])
def test_every_single_fault_parses_or_names_its_path(base):
    # Covers integers beyond the float range in grid.n and
    # evolve.picard.quad_nodes, which once overflowed the working-set guard,
    # and a node count whose field count has more digits than int() prints.
    assert parse_config(base())
    for path, fault, raw in single_faults(base()):
        try:
            parse_config(raw)
        except ConfigInvalid as exc:
            assert PATH_MESSAGE.match(str(exc)), (path, fault, str(exc))
        except Exception as exc:  # anything else would end the CLI in a traceback
            pytest.fail(f"{path} <- {fault!r}: {type(exc).__name__}: {exc}")


@pytest.mark.parametrize("base", [full, minimal])
def test_every_rejected_single_fault_exits_config_through_the_command_line(
    tmp_path, monkeypatch, capsys, base
):
    # The command line adds nothing between a path-named ConfigInvalid and
    # its stderr line, and a rejected config writes no file.
    monkeypatch.chdir(tmp_path)  # the full config's output.dir is relative
    path = tmp_path / "config.json"
    start = time.perf_counter()
    rejected = 0
    for where, fault, raw in single_faults(base()):
        try:
            parse_config(raw)
            continue
        except ConfigInvalid:
            rejected += 1
        path.write_text(json.dumps(raw))
        assert entrypoint(["run", str(path)]) == EXIT_CONFIG, (where, fault)
        err = capsys.readouterr().err
        assert err.startswith("config error: "), (where, fault, err)
        assert PATH_MESSAGE.match(err[len("config error: "):]), (where, fault, err)
    assert rejected > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    assert time.perf_counter() - start < 30.0


#: Valid configs that a property example mutates once: every section set
#: (the coherent state, picard), the defaults (the ground state), a vortex.
BASES = {
    "full": full,
    "minimal": minimal,
    "vortex": lambda: {**minimal(), "initial": {"type": "vortex_minus"}},
}
#: One mutation: a wrong type, a non-finite number, a huge integer of
#: either sign, a missing or an unknown key, or any other number.  Small
#: integers stop at 40, so a grid the guard admits builds in milliseconds.
MUTATIONS = st.one_of(
    st.sampled_from([None, True, "s", [], {}, [1, 2, 3], math.nan, math.inf, -math.inf, DELETE, ADD_KEY]),
    st.integers(2**53, 10**400).flatmap(lambda k: st.sampled_from([k, -k])),
    st.integers(-4, 40),
    st.floats(),
)


def mutated(base: dict, path: tuple, fault) -> dict:
    """``base`` with the node at ``path`` replaced by ``fault`` or deleted.

    ``ADD_KEY`` gives the node, or the nearest object above it, an unknown key.
    """
    raw = copy.deepcopy(base)
    parent, owner = raw, raw
    for key in path[:-1]:
        parent = parent[key]
        owner = parent if isinstance(parent, dict) else owner
    node = parent[path[-1]]
    if fault is ADD_KEY:
        (node if isinstance(node, dict) else owner)["unknown_key"] = 0
    elif fault is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = fault
    return raw


def node_paths(node, path=()):
    """Every key path of a decoded JSON value, the root ``()`` first."""
    yield path
    if isinstance(node, (dict, list)):
        for key in node if isinstance(node, dict) else range(len(node)):
            yield from node_paths(node[key], path + (key,))


@settings(derandomize=True, database=None, max_examples=1000, deadline=2000)
@given(data=st.data())
def test_a_mutated_config_parses_and_builds_or_exits_config(data):
    # One mutation of one key of a valid config: parse_config, and for a
    # state the initial field, either return or raise an error that exits
    # 2; no other exception and no numpy warning (Tier-1 makes it one).
    base = BASES[data.draw(st.sampled_from(sorted(BASES)), label="base")]()
    path = data.draw(st.sampled_from(list(node_paths(base))[1:]), label="path")
    fault = data.draw(MUTATIONS, label="fault")
    raw = mutated(base, path, fault)
    try:
        cfg = parse_config(raw)
        if cfg.initial_type != "file":
            field = build_initial_field(cfg)
            assert field.data.shape == cfg.grid.shape
    except RotorGpeError as exc:
        assert exc.exit_code == EXIT_CONFIG, (path, fault, exc)


def test_a_compare_pair_on_a_box_past_the_float_range_aliases_without_a_warning():
    # The alias budget omega*cot*extent*h overflowed with numpy's
    # RuntimeWarning here (the property above, at 20,000 examples); past
    # the float range it is inf, which aliases.
    raw = full()
    raw["grid"]["extent"] = 5.414634237358505e203
    with pytest.raises(ConfigInvalid, match=r"^compare\.pairs\[0\]\[1\]: .* = inf > pi\)"):
        parse_config(raw)


# ---------------------------------------------------------------------------
# file loading and initial-field construction
# ---------------------------------------------------------------------------


def test_load_config_maps_io_and_json_errors(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    for content in [b"{", b'{"seed": \xff}', b'{"seed": ' + b"1" * 5000 + b"}"]:
        bad.write_bytes(content)  # past int()'s 4300-digit limit in the last
        with pytest.raises(ConfigInvalid, match="is not valid JSON"):
            load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal()))
    assert load_config(good).grid.n == 16


def test_build_initial_field_from_named_state_and_file(tmp_path):
    cfg = parse_config(minimal())
    u = build_initial_field(cfg)
    assert np.array_equal(u.data, ground_state(cfg.grid, cfg.params).data)

    # Round-trip through a snapshot file.
    stem = tmp_path / "init"
    write_snapshot(stem, u, 0.0, cfg.params)
    raw = minimal()
    raw["initial"] = {"type": "file", "params": {"path": str(stem)}}
    cfg2 = parse_config(raw)
    v = build_initial_field(cfg2)
    assert np.array_equal(v.data, u.data)

    # Grid mismatch between config and snapshot is an error.
    raw["grid"] = {"n": 24, "extent": 6.0}
    cfg3 = parse_config(raw)
    with pytest.raises(ConfigInvalid, match="initial.params.path"):
        build_initial_field(cfg3)


def test_initial_types_are_the_named_states_plus_file():
    # Broadband noise is a library-level tool, not a run configuration:
    # the config surface admits only the reproducible named states and
    # snapshot files.
    raw = minimal()
    raw["initial"] = {"type": "random"}
    with pytest.raises(ConfigInvalid, match="initial.type"):
        parse_config(raw)
