"""JSON run configuration: schema, defaults, validation, initial data.

A run configuration is a single JSON object with the sections below;
every failure is a :class:`ConfigInvalid` whose message starts with the
dotted path of the offending field, and unknown keys are rejected so
typos cannot silently change a run.

Required sections::

    grid:     {"n": even int >= 4, "extent": positive float}
    physics:  {"omega": float >= 1, "beta": float >= 0}   # omega required

Optional sections (defaults in parentheses)::

    initial:  {"type": "ground" | "vortex_plus" | "vortex_minus"
                        | "coherent" | "file",
               "params": {...}}                     (ground)
              coherent params: center, kick (3-vectors)
              file params:     path (snapshot stem or file)
    evolve:   {"scheme": "strang" | "picard", "dt", "t_end",
               "blowup_factor",
               "picard": {"rho", "tol", "max_iter", "quad_nodes"}}
              (strang, dt = 1e-3, t_end = one window)
    output:   {"dir", "snapshot_every", "diagnostics_every"}
              ("runs/out", 0, 0; 0 disables a cadence; diagnostics
              are recorded at the start, window seams and end anyway)
    seed:     integer >= 0 for randomized verification data (0)
    verify:   {"tolerance": float >= 0} — when present, replaces every
              tolerance of the `verify` subcommand (0 fails everything)
    scan:     {"pairs": [[t, s], ...]} for `dispersive-scan`
    compare:  {"pairs": [[state, t], ...]} for `propagator-compare`

A grid whose working set, ``WORKING_SET_FIELDS`` complex fields of
``16 n^3`` bytes each, exceeds the machine's physical memory is rejected
as ``grid.n`` before anything is allocated.  The ``picard`` scheme adds
``PICARD_NODE_FIELDS`` fields per quadrature node; a node count that
pushes the total past physical memory is rejected as
``evolve.picard.quad_nodes``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import ConfigInvalid
from .grid import Field, GridSpec, PhysicsParams
from .snapshots import read_snapshot
from .solver import PicardConfig, SolverConfig
from .states import STATE_KINDS, make_state

__all__ = [
    "RunConfig",
    "load_config",
    "parse_config",
    "default_config_dict",
    "build_initial_field",
]

_INITIAL_TYPES = STATE_KINDS + ("file",)

#: Working set of a subcommand, in complex fields of ``16 n^3`` bytes: the
#: peak RSS above the imported package of a ``run`` recording every step
#: and snapshotting every second one read 8.4 fields at n = 48 and 7.5
#: at n = 64 (``dispersive-scan`` 9.7 and 9.1).  The constant is a guard,
#: so it keeps its margin over those.
WORKING_SET_FIELDS = 12

#: Fields per quadrature node that ``solver.picard_solve`` holds at its
#: peak: the free evolution and the current iterate, which each sweep
#: overwrites node by node.  Its ``tracemalloc`` peak at n = 16 read
#: 77.0 fields with 33 nodes and 44.8 with 17: 2.01 per node on top of
#: about 10.6, rounded up.
PICARD_NODE_FIELDS = 3


def _require_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _reject_unknown(section: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = [k for k in section if k not in allowed]
    if unknown:
        raise ConfigInvalid(
            f"{path}.{unknown[0]}: unknown key (allowed: {', '.join(allowed)})"
        )


def _physical_memory() -> int | None:
    """Bytes of physical memory, or ``None`` where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_working_set(n: int, fields: int, path: str) -> None:
    need = fields * 16 * n**3
    have = _physical_memory()
    if have is not None and need > have:
        raise ConfigInvalid(
            f"{path}: a run on a grid of n = {n} needs about {need / 2**30:.3g} GiB"
            f" ({fields} fields of 16 n^3 bytes), more than the"
            f" {have / 2**30:.3g} GiB of physical memory"
        )


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        number = math.inf
    if not math.isfinite(number):  # JSON also admits NaN and Infinity
        raise ConfigInvalid(f"{path}: expected a finite number, got {number!r}")
    return number


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"{path}: expected an integer, got {value!r}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigInvalid(f"{path}: expected a string, got {value!r}")
    return value


def _as_vec3(value: Any, path: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigInvalid(f"{path}: expected a list of 3 numbers, got {value!r}")
    return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description (see module docstring for schema)."""

    grid: GridSpec
    params: PhysicsParams
    initial_type: str
    initial_params: dict
    solver: SolverConfig
    output_dir: Path
    snapshot_every: int
    seed: int
    verify_tolerance: float | None
    scan_pairs: tuple[tuple[float, float], ...] | None
    compare_pairs: tuple[tuple[str, float], ...] | None
    echo: dict


def default_config_dict() -> dict:
    """The built-in configuration used when `verify` is given no file."""
    return {
        "grid": {"n": 24, "extent": 6.0},
        "physics": {"omega": 1.0, "beta": 1.0},
        "initial": {"type": "ground"},
        "evolve": {"scheme": "strang", "dt": 1e-3},
        "output": {"dir": "runs/out"},
        "seed": 0,
    }


def _parse_initial(section: Any) -> tuple[str, dict]:
    section = _require_mapping(section, "initial")
    _reject_unknown(section, ("type", "params"), "initial")
    if "type" not in section:
        raise ConfigInvalid("initial.type: required")
    kind = _as_str(section["type"], "initial.type")
    if kind not in _INITIAL_TYPES:
        raise ConfigInvalid(
            f"initial.type: expected one of {', '.join(_INITIAL_TYPES)}, got {kind!r}"
        )
    params = _require_mapping(section.get("params", {}), "initial.params")
    if kind == "coherent":
        _reject_unknown(params, ("center", "kick"), "initial.params")
        out = {}
        if "center" in params:
            out["center"] = _as_vec3(params["center"], "initial.params.center")
        if "kick" in params:
            out["kick"] = _as_vec3(params["kick"], "initial.params.kick")
        return kind, out
    if kind == "file":
        _reject_unknown(params, ("path",), "initial.params")
        if "path" not in params:
            raise ConfigInvalid("initial.params.path: required for initial.type 'file'")
        return kind, {"path": _as_str(params["path"], "initial.params.path")}
    _reject_unknown(params, (), "initial.params")
    return kind, {}


def _parse_picard(section: Any) -> PicardConfig:
    section = _require_mapping(section, "evolve.picard")
    _reject_unknown(section, ("rho", "tol", "max_iter", "quad_nodes"), "evolve.picard")
    kwargs: dict[str, Any] = {}
    if "rho" in section:
        kwargs["rho"] = _as_float(section["rho"], "evolve.picard.rho")
    if "tol" in section:
        kwargs["tol"] = _as_float(section["tol"], "evolve.picard.tol")
    if "max_iter" in section:
        kwargs["max_iter"] = _as_int(section["max_iter"], "evolve.picard.max_iter")
    if "quad_nodes" in section:
        kwargs["quad_nodes"] = _as_int(
            section["quad_nodes"], "evolve.picard.quad_nodes"
        )
    try:
        return PicardConfig(**kwargs)
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"evolve.{exc}")


def _parse_evolve(section: Any, window: float, diagnostics_every: int) -> SolverConfig:
    section = _require_mapping(section, "evolve")
    allowed = ("scheme", "dt", "t_end", "blowup_factor", "picard")
    _reject_unknown(section, allowed, "evolve")
    kwargs: dict[str, Any] = {"diagnostics_every": diagnostics_every}
    if "scheme" in section:
        kwargs["scheme"] = _as_str(section["scheme"], "evolve.scheme")
    if "dt" in section:
        kwargs["dt"] = _as_float(section["dt"], "evolve.dt")
    kwargs["t_end"] = (
        _as_float(section["t_end"], "evolve.t_end") if "t_end" in section else window
    )
    if "blowup_factor" in section:
        kwargs["blowup_factor"] = _as_float(
            section["blowup_factor"], "evolve.blowup_factor"
        )
    if "picard" in section:
        kwargs["picard"] = _parse_picard(section["picard"])
    try:
        return SolverConfig(**kwargs)
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"evolve.{exc}")


def _parse_output(section: Any) -> tuple[Path, int, int]:
    section = _require_mapping(section, "output")
    _reject_unknown(section, ("dir", "snapshot_every", "diagnostics_every"), "output")
    out_dir = Path(_as_str(section.get("dir", "runs/out"), "output.dir"))
    snap = _as_int(section.get("snapshot_every", 0), "output.snapshot_every")
    if snap < 0:
        raise ConfigInvalid(f"output.snapshot_every: must be >= 0, got {snap}")
    diag = _as_int(section.get("diagnostics_every", 0), "output.diagnostics_every")
    if diag < 0:
        raise ConfigInvalid(f"output.diagnostics_every: must be >= 0, got {diag}")
    return out_dir, snap, diag


def _parse_scan(section: Any) -> tuple[tuple[float, float], ...]:
    section = _require_mapping(section, "scan")
    _reject_unknown(section, ("pairs",), "scan")
    raw = section.get("pairs", [])
    if not isinstance(raw, list):
        raise ConfigInvalid(f"scan.pairs: expected a list, got {raw!r}")
    pairs = []
    for i, item in enumerate(raw):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigInvalid(f"scan.pairs[{i}]: expected [t, s], got {item!r}")
        pairs.append(
            (
                _as_float(item[0], f"scan.pairs[{i}][0]"),
                _as_float(item[1], f"scan.pairs[{i}][1]"),
            )
        )
    return tuple(pairs)


def _parse_compare(section: Any) -> tuple[tuple[str, float], ...]:
    section = _require_mapping(section, "compare")
    _reject_unknown(section, ("pairs",), "compare")
    raw = section.get("pairs", [])
    if not isinstance(raw, list):
        raise ConfigInvalid(f"compare.pairs: expected a list, got {raw!r}")
    pairs = []
    for i, item in enumerate(raw):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigInvalid(f"compare.pairs[{i}]: expected [state, t], got {item!r}")
        kind = _as_str(item[0], f"compare.pairs[{i}][0]")
        if kind not in STATE_KINDS:
            raise ConfigInvalid(
                f"compare.pairs[{i}][0]: expected one of {', '.join(STATE_KINDS)},"
                f" got {kind!r}"
            )
        pairs.append((kind, _as_float(item[1], f"compare.pairs[{i}][1]")))
    return tuple(pairs)


def parse_config(data: Any) -> RunConfig:
    """Validate a decoded JSON object into a :class:`RunConfig`."""
    data = _require_mapping(data, "config")
    allowed = (
        "grid",
        "physics",
        "initial",
        "evolve",
        "output",
        "seed",
        "verify",
        "scan",
        "compare",
    )
    _reject_unknown(data, allowed, "config")

    if "grid" not in data:
        raise ConfigInvalid("grid: section required")
    grid_section = _require_mapping(data["grid"], "grid")
    _reject_unknown(grid_section, ("n", "extent"), "grid")
    if "n" not in grid_section:
        raise ConfigInvalid("grid.n: required")
    if "extent" not in grid_section:
        raise ConfigInvalid("grid.extent: required")
    grid = GridSpec(
        n=_as_int(grid_section["n"], "grid.n"),
        extent=_as_float(grid_section["extent"], "grid.extent"),
    )
    _check_working_set(grid.n, WORKING_SET_FIELDS, "grid.n")

    if "physics" not in data:
        raise ConfigInvalid("physics: section required")
    phys_section = _require_mapping(data["physics"], "physics")
    _reject_unknown(phys_section, ("omega", "beta"), "physics")
    if "omega" not in phys_section:
        raise ConfigInvalid("physics.omega: required")
    params = PhysicsParams(
        omega=_as_float(phys_section["omega"], "physics.omega"),
        beta=_as_float(phys_section.get("beta", 0.0), "physics.beta"),
    )

    initial_type, initial_params = _parse_initial(data.get("initial", {"type": "ground"}))
    output_dir, snapshot_every, diagnostics_every = _parse_output(data.get("output", {}))
    solver = _parse_evolve(data.get("evolve", {}), params.window, diagnostics_every)
    if solver.scheme == "picard":
        _check_working_set(
            grid.n,
            WORKING_SET_FIELDS + PICARD_NODE_FIELDS * solver.picard.quad_nodes,
            "evolve.picard.quad_nodes",
        )

    seed = _as_int(data.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigInvalid(f"seed: must be >= 0, got {seed}")

    verify_tolerance = None
    if "verify" in data:
        verify_section = _require_mapping(data["verify"], "verify")
        _reject_unknown(verify_section, ("tolerance",), "verify")
        if "tolerance" in verify_section:
            verify_tolerance = _as_float(
                verify_section["tolerance"], "verify.tolerance"
            )
            if verify_tolerance < 0:
                raise ConfigInvalid(
                    f"verify.tolerance: must be >= 0, got {verify_tolerance}"
                )

    scan_pairs = _parse_scan(data["scan"]) if "scan" in data else None
    compare_pairs = _parse_compare(data["compare"]) if "compare" in data else None

    return RunConfig(
        grid=grid,
        params=params,
        initial_type=initial_type,
        initial_params=initial_params,
        solver=solver,
        output_dir=output_dir,
        snapshot_every=snapshot_every,
        seed=seed,
        verify_tolerance=verify_tolerance,
        scan_pairs=scan_pairs,
        compare_pairs=compare_pairs,
        echo=data,
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalid(f"config: cannot read {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config: {path} is not valid JSON: {exc}")
    return parse_config(data)


def build_initial_field(cfg: RunConfig) -> Field:
    """Construct the initial field a config describes (state or snapshot).

    A snapshot must match the config's grid and physics: a sidecar whose
    ``n``, ``extent``, ``omega`` or ``beta`` differs raises
    :class:`ConfigInvalid` under ``initial.params.path``.
    """
    if cfg.initial_type == "file":
        field, sidecar = read_snapshot(cfg.initial_params["path"])
        if field.grid.n != cfg.grid.n or field.grid.extent != cfg.grid.extent:
            raise ConfigInvalid(
                f"initial.params.path: snapshot grid (n = {field.grid.n},"
                f" extent = {field.grid.extent}) differs from config grid"
                f" (n = {cfg.grid.n}, extent = {cfg.grid.extent})"
            )
        for key in ("omega", "beta"):
            if sidecar[key] != getattr(cfg.params, key):
                raise ConfigInvalid(
                    f"initial.params.path: snapshot {key} = {sidecar[key]!r}"
                    f" differs from config physics.{key} = {getattr(cfg.params, key)!r}"
                )
        return field
    return make_state(cfg.grid, cfg.params, cfg.initial_type, **cfg.initial_params)
