"""JSON run configuration: schema, defaults, validation, initial data.

A run configuration is a single JSON object.  The tables in this module
are its schema: each section is one dict ``{key: (convert, default)}``
that :func:`_section` reads, so a key is named once, beside its converter
and default, and a table's key order is the ``allowed:`` list of its
unknown-key message.  A default is a JSON value (converted like a given
one), a :class:`_Required` (the key must be given; its text ends the
message), or ``_LEAVE_OUT`` (an absent key takes the default of the
class the section builds).  Ranges are checked by those classes:
``GridSpec``, ``PhysicsParams``, ``SolverConfig`` and ``PicardConfig``;
the pair times of ``scan`` and ``compare`` by the kernel window, and a
``compare`` time also by the oracle's alias budget.
README's "Configuration schema" shows every key with its range and default.

Every failure is a :class:`ConfigInvalid` whose message starts with the
dotted path of the offending field, and unknown keys are rejected so
typos cannot silently change a run.

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
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

from .errors import ConfigInvalid, WindowViolation
from .grid import Field, GridSpec, PhysicsParams
from .propagator import DEFAULT_OVERSAMPLE, _alias_budget, _check_window
from .snapshots import read_snapshot
from .solver import PicardConfig, SolverConfig
from .states import STATE_KINDS, make_state

__all__ = [
    "RunConfig",
    "load_config",
    "parse_config",
    "default_config_dict",
    "default_compare_pairs",
    "build_initial_field",
]

#: Working set of a subcommand, in complex fields of ``16 n^3`` bytes: the
#: peak RSS above the imported package of a ``run`` recording every step
#: and snapshotting every second one read 8.4 fields at n = 48 and 7.5
#: at n = 64 (``dispersive-scan`` 9.7 and 9.1).  The constant is a guard,
#: so it keeps its margin over those.
WORKING_SET_FIELDS = 12

#: Fields per quadrature node that ``solver.picard_solve`` holds at its
#: peak: the iterate and the collocated nonlinearity ``G`` of a sweep.
#: Its ``tracemalloc`` peak at n = 16 read 72.2 fields with 33 nodes and
#: 40.2 with 17: 2.00 per node on top of about 6.2, which
#: ``WORKING_SET_FIELDS`` covers.
PICARD_NODE_FIELDS = 2


class _Required(str):
    """A table default that makes its key required; its text ends the message."""


_REQUIRED = _Required("required")
_SECTION = _Required("section required")
_LEAVE_OUT = object()


def _require_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _section(obj: Any, path: str, spec: dict) -> dict:
    """``{key: convert(value, key_path)}`` of the JSON object at ``path``, by ``spec``.

    Top-level keys carry no ``config.`` in their path.
    """
    obj = _require_mapping(obj, path)
    unknown = [k for k in obj if k not in spec]
    if unknown:
        raise ConfigInvalid(
            f"{path}.{unknown[0]}: unknown key (allowed: {', '.join(spec)})"
        )
    prefix = "" if path == "config" else f"{path}."
    out = {}
    for key, (convert, default) in spec.items():
        if key in obj:
            out[key] = convert(obj[key], prefix + key)
        elif isinstance(default, _Required):
            raise ConfigInvalid(f"{prefix}{key}: {default}")
        elif default is not _LEAVE_OUT:
            out[key] = convert(default, prefix + key)
    return out


def _physical_memory() -> int | None:
    """Bytes of physical memory, or ``None`` where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _digits3(number: int, unit: int = 1) -> str:
    """``number / unit`` to 3 digits, also for integers beyond the float range."""
    try:
        return f"{number / unit:.3g}"
    except OverflowError:  # read off the integer's logarithm instead
        exponent = math.log10(number) - math.log10(unit)
        return f"{10 ** (exponent % 1):.3g}e+{math.floor(exponent)}"


def _check_working_set(n: int, fields: int, path: str) -> None:
    need = fields * 16 * n**3
    have = _physical_memory()
    if have is not None and need > have:
        raise ConfigInvalid(
            f"{path}: a run on a grid of n = {n} needs about {_digits3(need, 2**30)} GiB"
            f" ({_digits3(fields)} fields of 16 n^3 bytes), more than the"
            f" {_digits3(have, 2**30)} GiB of physical memory"
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


def _as_count(value: Any, path: str) -> int:
    number = _as_int(value, path)
    if number < 0:
        raise ConfigInvalid(f"{path}: must be >= 0, got {number}")
    return number


def _one_of(choices: tuple[str, ...]) -> Callable:
    """A converter to one of the strings ``choices``."""

    def convert(value: Any, path: str) -> str:
        kind = _as_str(value, path)
        if kind not in choices:
            raise ConfigInvalid(
                f"{path}: expected one of {', '.join(choices)}, got {kind!r}"
            )
        return kind

    return convert


def _pair_list(shape: str, first: Callable, second: Callable) -> Callable:
    """A converter of a list of pairs ``shape``, entries by ``first``, ``second``."""

    def convert(value: Any, path: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigInvalid(f"{path}: expected a list, got {value!r}")
        pairs = []
        for i, item in enumerate(value):
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ConfigInvalid(f"{path}[{i}]: expected {shape}, got {item!r}")
            pairs.append(
                (first(item[0], f"{path}[{i}][0]"), second(item[1], f"{path}[{i}][1]"))
            )
        return tuple(pairs)

    return convert


def _in_evolve(cls: type, kwargs: dict):
    """``cls(**kwargs)`` for a solver class, whose messages start below ``evolve``."""
    try:
        return cls(**kwargs)
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"evolve.{exc}")


_GRID = {"n": (_as_int, _REQUIRED), "extent": (_as_float, _REQUIRED)}
_PHYSICS = {"omega": (_as_float, _REQUIRED), "beta": (_as_float, 0.0)}
_INITIAL = {
    "type": (_one_of(STATE_KINDS + ("file",)), _REQUIRED),
    "params": (_require_mapping, {}),
}
_INITIAL_PARAMS = {  # by initial.type; the named states but coherent take none
    "coherent": {"center": (_as_vec3, _LEAVE_OUT), "kick": (_as_vec3, _LEAVE_OUT)},
    "file": {"path": (_as_str, _Required("required for initial.type 'file'"))},
}
_PICARD = {
    "tol": (_as_float, _LEAVE_OUT),
    "max_iter": (_as_int, _LEAVE_OUT),
    "quad_nodes": (_as_int, _LEAVE_OUT),
}
_EVOLVE = {
    "scheme": (_as_str, _LEAVE_OUT),
    "dt": (_as_float, _LEAVE_OUT),
    "t_end": (_as_float, _LEAVE_OUT),  # one window, which physics sets
    "blowup_factor": (_as_float, _LEAVE_OUT),
    "picard": (
        lambda v, p: _in_evolve(PicardConfig, _section(v, p, _PICARD)), _LEAVE_OUT
    ),
}
_OUTPUT = {
    "dir": (lambda v, p: Path(_as_str(v, p)), "runs/out"),
    "snapshot_every": (_as_count, 0),
    "diagnostics_every": (_as_count, 0),
}
_SCAN = {"pairs": (_pair_list("[t, s]", _as_float, _as_float), [])}
_COMPARE = {"pairs": (_pair_list("[state, t]", _one_of(STATE_KINDS), _as_float), [])}


def _as_grid(value: Any, path: str) -> GridSpec:
    grid = GridSpec(**_section(value, path, _GRID))
    _check_working_set(grid.n, WORKING_SET_FIELDS, "grid.n")
    return grid


def _as_initial(value: Any, path: str) -> tuple[str, dict]:
    section = _section(value, path, _INITIAL)
    kind = section["type"]
    spec = _INITIAL_PARAMS.get(kind, {})
    return kind, _section(section["params"], f"{path}.params", spec)


_CONFIG = {
    "grid": (_as_grid, _SECTION),
    "physics": (lambda v, p: PhysicsParams(**_section(v, p, _PHYSICS)), _SECTION),
    "initial": (_as_initial, {"type": "ground"}),
    "evolve": (partial(_section, spec=_EVOLVE), {}),
    "output": (partial(_section, spec=_OUTPUT), {}),
    "seed": (_as_count, 0),
    "scan": (partial(_section, spec=_SCAN), _LEAVE_OUT),
    "compare": (partial(_section, spec=_COMPARE), _LEAVE_OUT),
}


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


def parse_config(data: Any) -> RunConfig:
    """Validate a decoded JSON object into a :class:`RunConfig`."""
    top = _section(data, "config", _CONFIG)
    grid, params, output = top["grid"], top["physics"], top["output"]
    kwargs = {"t_end": params.window, **top["evolve"]}
    kwargs["diagnostics_every"] = output["diagnostics_every"]
    solver = _in_evolve(SolverConfig, kwargs)
    if solver.scheme == "picard":
        _check_working_set(
            grid.n,
            WORKING_SET_FIELDS + PICARD_NODE_FIELDS * solver.picard.quad_nodes,
            "evolve.picard.quad_nodes",
        )
    for section, columns in (("scan", (0, 1)), ("compare", (1,))):
        for i, pair in enumerate(top.get(section, {}).get("pairs", ())):
            for j in columns:  # a kernel time, named by its path
                try:
                    _check_window(pair[j], params)
                except WindowViolation as exc:
                    raise ConfigInvalid(f"{section}.pairs[{i}][{j}]: {exc}")
            if section == "compare":
                _check_compare_time(grid, params, pair[1], f"compare.pairs[{i}][1]")
    initial_type, initial_params = top["initial"]
    return RunConfig(
        grid=grid,
        params=params,
        initial_type=initial_type,
        initial_params=initial_params,
        solver=solver,
        output_dir=output["dir"],
        snapshot_every=output["snapshot_every"],
        seed=top["seed"],
        scan_pairs=top["scan"]["pairs"] if "scan" in top else None,
        compare_pairs=top["compare"]["pairs"] if "compare" in top else None,
        echo=data,
    )


def _check_compare_time(grid: GridSpec, params: PhysicsParams, t: float, path: str) -> None:
    """Reject a ``propagator-compare`` time at which the referee itself aliases."""
    budget = _alias_budget(grid, params, t, DEFAULT_OVERSAMPLE)
    if budget is not None:
        raise ConfigInvalid(
            f"{path}: the dense kernel quadrature aliases at t = {t}"
            f" (omega*cot(omega t)*extent*h_q = {budget:.3f} > pi); take a later time"
        )


def default_compare_pairs(grid: GridSpec, params: PhysicsParams) -> list[tuple[str, float]]:
    """``propagator-compare``'s pairs for a config without ``compare.pairs``.

    The ground state and the vortex at ``0.6 / omega``, checked like
    given pairs, under ``compare.pairs``.  They are checked here, when the
    command resolves them, not in :func:`parse_config`: a config that
    never compares would otherwise be rejected for them.
    """
    t = 0.6 / params.omega
    _check_compare_time(grid, params, t, "compare.pairs (absent, so the default pairs)")
    return [("ground", t), ("vortex_plus", t)]


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigInvalid(f"config: cannot read {path}: {exc}")
    except ValueError as exc:  # not UTF-8, not JSON, or past int()'s digit limit
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
