"""Command-line orchestration: runs, verification batteries, studies.

Subcommands
-----------

``run <config.json>``
    Evolve the configured initial field and write a diagnostics CSV,
    snapshot pairs, and a run manifest into the output directory.
``verify [config.json]``
    Execute the cross-module invariant battery (unitarity, eigenphases,
    duality, kernel matrix identities, intertwining, conservation, and
    the nonlinear scheme referee) and print a measured-vs-tolerated
    table.  Without a config a built-in desk-scale one is used.
``convergence <config.json> --scheme strang|picard|linear --levels K``
    Self-convergence study of the chosen scheme; emits
    ``level,dt_or_m,error,observed_order`` CSV and prints the fitted
    order, or for ``picard`` (a collocation ladder, with no order)
    ``level,dt_or_m,error,error_ratio`` and whether the error falls.
``dispersive-scan <config.json>``
    Measure the decay of the forward-after-dual composition over a
    ``(t, s)`` battery; emits ``t,s,ratio,bound`` CSV and prints the
    fitted exponents for both candidate regressors.
``propagator-compare <config.json>``
    Fast-vs-dense-kernel referee on named states; emits
    ``t,ratio,bound`` CSV.

Exit codes: 0 success; 2 config error; 3 verification failure;
4 I/O error.  An error exits with its class's ``exit_code``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import __version__
from .config import (
    RunConfig,
    build_initial_field,
    default_compare_pairs,
    default_config_dict,
    load_config,
    parse_config,
)
from .diagnostics import _csv_text, drift_report, record, write_csv
from .errors import BoundaryTruncation, ConfigInvalid, RotorGpeError, WindowViolation
from .galilean import _dressed_component
from .grid import Field, GridSpec, PhysicsParams, _partial, _sum_sq, lp_norm, pairing
from .propagator import (
    _check_window,
    _oracle_factors,
    default_scan_pairs,
    dispersive_scan,
    harmonic_flow,
    kernel_matrices,
    propagate_dual,
    propagate_fast,
    propagate_oracle,
    rotate_pattern,
    splitting_plan,
)
from .solver import SolverConfig, evolve, picard_solve
from .snapshots import atomic_write, write_snapshot
from .states import (
    SeededDraws,
    exact_linear_evolution,
    ground_state,
    make_state,
    random_smooth_field,
)

__all__ = ["entrypoint"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_IO = 4
#: The stderr prefix of an error's message, by its exit code.
_PREFIX = {EXIT_CONFIG: "config error", EXIT_VERIFY: "verification failure", EXIT_IO: "I/O error"}

#: Fast-vs-oracle discrepancy allowed on the fast backend's default flow.
COMPARE_BOUND = 1e-6


def _rel_l2(a: Field, b: Field) -> float:
    diff = float(np.sqrt(_sum_sq(a.data - b.data)))
    scale = float(np.sqrt(_sum_sq(b.data)))
    return diff / scale if scale > 0 else diff


def _strang_referee(u0: Field, t: float, params: PhysicsParams) -> Field:
    """Reference solution at ``t``: the Richardson pair of two Strang runs.

    ``(4 u_256 - u_128) / 3``, where ``u_k`` is :func:`evolve` in ``k``
    steps of ``t / k`` on the exact harmonic flow.  Strang splitting is a
    symmetric composition, so its error is a series in ``dt^2`` and the
    pair cancels the leading term.  At n = 16, from the ground state to
    ``t = pi/8``, the pair is 1.6e-10 (relative L2) from 4096 plain
    steps, which is that run's own error; it costs 384 steps.  The
    weights hold only for a fine run of twice the coarse run's steps.
    """
    coarse, fine = (
        evolve(u0, SolverConfig(scheme="strang", dt=t / k, t_end=t), params)
        .final.field.data
        for k in (128, 256)
    )
    return Field(u0.grid, (4.0 * fine - coarse) / 3.0)


def _write_outputs(
    cfg: RunConfig,
    command: str,
    start: float,
    files: dict[str, str | None],
    manifest: str = "manifest.json",
    extra: dict | None = None,
) -> float:
    """Write ``files`` into ``output.dir``, then the manifest; return the wall time.

    ``files`` maps each output name, in manifest order, to its text, or to
    ``None`` for a file the command has written itself.  Every file is
    written atomically.  The manifest records the wall time since
    ``start`` and the process's peak resident memory so far (``ru_maxrss``,
    KiB on Linux, in MB); ``extra`` holds further entries, such as a run's
    loop health.
    """
    for name, text in files.items():
        if text is not None:
            atomic_write(cfg.output_dir / name, text.encode("utf-8"))
    wall = time.perf_counter() - start
    entries = {
        "command": command,
        "config": cfg.echo,
        "version": __version__,
        "wall_time_seconds": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": list(files),
        **(extra or {}),
    }
    text = json.dumps(entries, indent=2, sort_keys=True) + "\n"
    atomic_write(cfg.output_dir / manifest, text.encode("utf-8"))
    return wall


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------


def cmd_run(cfg: RunConfig) -> int:
    start = time.perf_counter()
    outputs: list[str] = []

    if cfg.solver.scheme == "picard":
        try:
            _check_window(cfg.solver.t_end, cfg.params)
        except WindowViolation as exc:
            raise ConfigInvalid(f"evolve.t_end: the picard scheme is single-window; {exc}")
        result = picard_solve(build_initial_field(cfg), cfg.solver.t_end, cfg.solver, cfg.params)
        records = []  # the first record's e0 is the balance reference, as in evolve
        for t, f in zip(result.times, result.fields):
            records.append(record(f, t, cfg.params, records[0].e0 if records else None))
        final_field, final_t = result.fields[-1], result.times[-1]
        health = {
            "iterations": result.iterations,
            "final_distance": result.distances[-1],
            "converged": result.converged,
        }
        print(
            f"picard: {result.iterations} iterations, final workspace"
            f" distance {result.distances[-1]:.3e}"
            + ("" if result.converged else f", not converged (tol {cfg.solver.picard.tol:.1e})")
        )
    else:
        numbers = itertools.count()

        def write_next_snapshot(t: float, snap: Field) -> None:
            stem = f"snapshot_{next(numbers):06d}"
            write_snapshot(cfg.output_dir / stem, snap, t, cfg.params)
            outputs.extend([f"{stem}.bin", f"{stem}.json"])

        result = evolve(  # handed the initial field, which nothing here keeps
            build_initial_field(cfg),
            cfg.solver,
            cfg.params,
            snapshot_every=cfg.snapshot_every,
            on_snapshot=write_next_snapshot,
        )
        records = list(result.records)
        final_field, final_t = result.final.field, result.final.t_global
        health = {
            "max_phase_per_step": result.max_phase_per_step,
            "guard_margin": result.guard_margin,
        }

    write_csv(records, cfg.output_dir / "diagnostics.csv")
    write_snapshot(cfg.output_dir / "snapshot_final", final_field, final_t, cfg.params)
    outputs += ["diagnostics.csv", "snapshot_final.bin", "snapshot_final.json"]
    wall = _write_outputs(cfg, "run", start, dict.fromkeys(outputs), extra=health)
    drift = drift_report(records)
    print(f"run: {len(records)} diagnostics records to t = {final_t:.6f}")
    print("drift: mass {mass:.3e}  e0 {e0:.3e}  lz {lz_expect:.3e}".format(**drift))
    print(f"outputs in {cfg.output_dir} ({wall:.2f} s)")
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


@dataclass
class CheckRow:
    name: str
    measured: float
    tolerance: float
    skipped: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.skipped) or self.measured <= self.tolerance


def _check_matrix_identities(
    params: PhysicsParams, rng: SeededDraws | np.random.Generator
) -> float:
    """Closed-form identities of the kernel matrices at random times.

    ``rng`` is anything with a numpy-style ``uniform(low, high)``.

    Each defect is relative to the identity's own scale (``csc^2`` reaches
    650 at the earliest time drawn), so the row reads rounding whatever
    times are drawn.
    """
    w = params.omega
    window = params.window
    worst = 0.0
    for _ in range(60):
        t = float(rng.uniform(0.05, 1.0)) * window
        s = float(rng.uniform(0.05, 1.0)) * window
        km = kernel_matrices(t, params, s)
        theta = w * t
        half = np.tan(theta / 2.0)
        csc = 1.0 / np.sin(theta)
        ratio = np.sin(w * s) / np.sin(w * t)
        mag = (w / (2.0 * np.pi * np.sin(theta))) ** 1.5
        a_perp = km.a_matrix[:2, :2]
        b_perp = km.b_matrix[:2, :2]
        for defect, scale in (
            (km.tilde_scale - half, half),
            (np.max(np.abs(a_perp.T @ a_perp - csc**2 * np.eye(2))), csc**2),
            (km.a_matrix[2, 2] - csc, csc),
            (np.max(np.abs(b_perp @ b_perp.T - ratio**2 * np.eye(2))), ratio**2),
            (km.b_matrix[2, 2] - ratio, ratio),
            (abs(km.prefactor) - mag, mag),
        ):
            worst = max(worst, float(abs(defect) / scale))
    return worst


def _check_intertwining(grid: GridSpec, params: PhysicsParams, t: float) -> tuple[float, float]:
    """Worst commutation defect of the two dressed vector operators.

    Propagating then dressing must equal dressing with the t = 0
    operators then propagating.  One dressed component at a time is
    built into ``built``, flowed into ``moved`` and compared there, so
    the check holds about seven fields, not all six components of both
    families (about twelve more).
    """
    mat, angle = splitting_plan(grid, params, t), params.omega * t
    built, moved, lead, other, ut = (np.empty(grid.shape, dtype=np.complex128) for _ in range(5))

    def flow(data: np.ndarray, out: np.ndarray) -> Field:
        harmonic_flow(mat, data, out=out, scratch=built)  # propagate_fast, in place
        return Field(grid, rotate_pattern(grid, out, angle, out=out))

    def component(f: Field, at: float, axis: int, position: bool) -> np.ndarray:
        derivs = [None, None, None]
        derivs[axis] = _partial(grid, f.data, axis, out=lead)
        if axis < 2:
            derivs[1 - axis] = _partial(grid, f.data, 1 - axis, out=other)
        return _dressed_component(f, at, params, axis, derivs, position, built, lead)

    worst = [0.0, 0.0]  # J, H
    for kind in ("ground", "vortex_plus"):
        u0 = make_state(grid, params, kind)
        flowed = flow(u0.data, ut)
        for k, position in enumerate((False, True)):
            for axis in range(3):
                flow(component(u0, 0.0, axis, position), moved)
                np.subtract(component(flowed, t, axis, position), moved, out=moved)
                worst[k] = max(worst[k], float(np.sqrt(_sum_sq(moved))))
        del u0  # the next state is built without this one
    return worst[0], worst[1]


def _verify_battery(cfg: RunConfig) -> list[CheckRow]:
    params = cfg.params
    w = params.omega
    rng = SeededDraws(cfg.seed)  # numpy.random would load secrets and OpenSSL
    rows: list[CheckRow] = []

    rows.append(
        CheckRow("matrix-identity", _check_matrix_identities(params, rng), 1e-12)
    )

    # Every random input is drawn first, in the battery's order; the oracle
    # rows then run one kernel time at a time, so each time's factors are
    # built once and the one-time factor cache never rebuilds them.  Each
    # field, and the cache, is dropped after the last row that reads it.
    ogrid = GridSpec(n=24, extent=6.0 / np.sqrt(w))  # the dense quadrature is alias-safe here
    oracle_inputs = [random_smooth_field(ogrid, rng, width=ogrid.extent / 6.0) for _ in range(2)]
    fast_inputs = [random_smooth_field(cfg.grid, rng, width=cfg.grid.extent / 6.0) for _ in range(3)]
    phi, psi = (random_smooth_field(ogrid, rng, width=ogrid.extent / 6.0) for _ in range(2))

    # The oracle dual is the literal transpose of the dense kernel
    # quadrature to rounding, so the bilinear pairing identity must hold
    # to rounding there (the fast backend's dual pairs only to the
    # spectral tail of its shear rotation).
    t_dual = 0.55 / w
    lhs = pairing(propagate_oracle(phi, t_dual, params), psi)
    rhs = pairing(phi, propagate_dual(psi, t_dual, params, backend="oracle"))
    duality = abs(lhs - rhs) / (lp_norm(phi, 2) * lp_norm(psi, 2))
    del phi, psi

    worst = 0.0
    for theta in (0.55, np.pi / 4):  # 0.55 / w is t_dual: its factors are cached
        for phi_k in oracle_inputs:
            out = propagate_oracle(phi_k, theta / w, params)
            worst = max(worst, abs(lp_norm(out, 2) / lp_norm(phi_k, 2) - 1.0))
    rows.append(CheckRow("unitarity-oracle", worst, 1e-6))
    del oracle_inputs, phi_k, out

    worst = 0.0
    for phi_k in fast_inputs:
        n0 = lp_norm(phi_k, 2)
        for theta in (0.2, 0.45, 0.65, np.pi / 4):
            out = propagate_fast(phi_k, theta / w, params)
            worst = max(worst, abs(lp_norm(out, 2) / n0 - 1.0))
    rows.append(CheckRow("unitarity-fast", worst, 1e-10))
    del fast_inputs, phi_k, out

    t_eig = 0.7 / w
    for name, kind in (("eigenphase-ground", "ground"), ("eigenphase-vortex", "vortex_plus")):
        u0 = make_state(ogrid, params, kind)
        out = propagate_oracle(u0, t_eig, params)
        ref = exact_linear_evolution(ogrid, params, kind, t_eig)
        rows.append(CheckRow(name, _rel_l2(out, ref), 1e-5))
    rows.append(CheckRow("duality-pairing", duality, 1e-8))
    del u0, out, ref
    _oracle_factors.cache_clear()  # the last oracle row has run

    # The commutation defect needs a roomier box than the kernel checks:
    # the dressed operators carry coordinate weights, which amplify the
    # wrap-around of whatever mass sits near the periodic seam.
    igrid = GridSpec(n=32, extent=7.0 / np.sqrt(w))
    worst_j, worst_h = _check_intertwining(igrid, params, 0.6 / w)
    rows.append(CheckRow("intertwining-momentum", worst_j, 1e-5))
    rows.append(CheckRow("intertwining-position", worst_h, 1e-5))

    cons_cfg = SolverConfig(
        scheme="strang",
        dt=min(cfg.solver.dt, 2e-3 / w),
        t_end=min(cfg.solver.t_end, 0.2 / w),
        diagnostics_every=25,
        blowup_factor=cfg.solver.blowup_factor,
    )
    drift = drift_report(evolve(build_initial_field(cfg), cons_cfg, params).records)
    rows.append(CheckRow("conservation-mass", drift["mass"], 1e-10))
    rows.append(CheckRow("conservation-energy", drift["e0"], 1e-6))
    rows.append(CheckRow("conservation-lz", drift["lz_expect"], 1e-6))

    if params.beta == 0.0:
        rows.append(
            CheckRow(
                "nonlinear-referee",
                float("nan"),
                1e-4,
                skipped="skipped (beta = 0; nonlinear-only check)",
            )
        )
    else:
        rgrid = GridSpec(n=16, extent=5.0 / np.sqrt(w))
        ru0 = ground_state(rgrid, params)
        t_ref = np.pi / (8.0 * w)
        pic = picard_solve(ru0, t_ref, cfg.solver, params)
        with warnings.catch_warnings():
            # The desk-scale box keeps ~1e-7 of the ground state's mass
            # within two cells of the boundary, which perturbs the
            # referee distance at the 1e-11 level -- three decades
            # below the tolerance.  Everything else still warns.
            warnings.simplefilter("ignore", BoundaryTruncation)
            ref = _strang_referee(ru0, t_ref, params)
        rows.append(
            CheckRow("nonlinear-referee", _rel_l2(pic.fields[-1], ref), 1e-4)
        )
    return rows


def cmd_verify(cfg: RunConfig) -> int:
    start = time.perf_counter()
    rows = _verify_battery(cfg)
    name_w = max(len(r.name) for r in rows) + 2
    print(f"{'check':<{name_w}}{'measured':>12}  {'tolerance':>10}  status")
    failures = 0
    for r in rows:
        if r.skipped:
            print(f"{r.name:<{name_w}}{'--':>12}  {r.tolerance:>10.1e}  {r.skipped}")
            continue
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failures += 1
        print(f"{r.name:<{name_w}}{r.measured:>12.3e}  {r.tolerance:>10.1e}  {status}")
    ran = sum(1 for r in rows if not r.skipped)
    wall = time.perf_counter() - start
    if failures:
        print(f"{failures} of {ran} checks failed ({wall:.1f} s)")
        return EXIT_VERIFY
    print(f"all {ran} checks passed ({wall:.1f} s)")
    return EXIT_OK


# --------------------------------------------------------------------------
# convergence
# --------------------------------------------------------------------------


def _level_ratios(errors: list[float]) -> list[float]:
    """``error[k-1] / error[k]`` for each level after the first (NaN unless both are positive)."""
    return [prev / cur if cur > 0 and prev > 0 else float("nan") for prev, cur in zip(errors, errors[1:])]


def cmd_convergence(cfg: RunConfig, scheme: str, levels: int) -> int:
    start = time.perf_counter()
    if not 2 <= levels <= 6:
        raise ConfigInvalid(f"levels: must be between 2 and 6, got {levels}")
    params = cfg.params
    u0 = build_initial_field(cfg)
    window = params.window
    t_end = cfg.solver.t_end

    if scheme == "strang":
        if params.beta == 0.0:
            raise ConfigInvalid(
                "physics.beta: the strang study measures the splitting error"
                " of the nonlinearity; it needs beta > 0"
            )
        dts = [t_end / (25.0 * 2**k) for k in range(levels)]
        ref_cfg = SolverConfig(scheme="strang", dt=dts[-1] / 4.0, t_end=t_end)
        ref = evolve(u0, ref_cfg, params).final.field
        errors = []
        for dt in dts:
            out = evolve(u0, SolverConfig(scheme="strang", dt=dt, t_end=t_end), params).final.field
            errors.append(_rel_l2(out, ref))
        labels = dts
    elif scheme == "linear":
        t_lin = min(t_end, window)
        ms = [2 ** (k + 1) for k in range(levels)]  # m = 1 is pre-asymptotic
        ref = propagate_fast(u0, t_lin, params, substeps=ms[-1] * 4)
        errors = [
            _rel_l2(propagate_fast(u0, t_lin, params, substeps=m), ref) for m in ms
        ]
        labels = [float(m) for m in ms]
    else:  # picard
        if params.beta == 0.0:
            raise ConfigInvalid(
                "physics.beta: the picard study iterates the cubic Duhamel"
                " term; it needs beta > 0"
            )
        t_pic = min(t_end, np.pi / (8.0 * params.omega))
        ref = _strang_referee(u0, t_pic, params)
        nodes = [2 * k + 3 for k in range(levels)]  # all above the referee's floor
        errors = []
        for n_nodes in nodes:
            pcfg = replace(cfg.solver.picard, quad_nodes=n_nodes)
            scfg = replace(cfg.solver, picard=pcfg)
            pic = picard_solve(u0, t_pic, scfg, params)
            errors.append(_rel_l2(pic.fields[-1], ref))
        labels = [float(n) for n in nodes]

    # A collocation ladder has no order of accuracy: the picard study
    # writes each level's error ratio and asks only for a strict decrease.
    ratios = _level_ratios(errors)
    if scheme == "picard":
        column, cells = "error_ratio", ratios
    else:
        orders = [float(np.log2(r)) for r in ratios]
        column, cells = "observed_order", orders
    rows = zip(range(levels), labels, errors, [None, *cells])  # the first level has no ratio
    csv_text = _csv_text(f"level,dt_or_m,error,{column}", rows)
    name = f"convergence_{scheme}.csv"
    _write_outputs(cfg, f"convergence --scheme {scheme} --levels {levels}", start,
                   {name: csv_text}, f"manifest_{name}.json")
    print(csv_text, end="")

    if scheme == "picard":
        monotone = all(b < a for a, b in zip(errors, errors[1:]))
        print(f"monotone decrease: {'yes' if monotone else 'NO'}")
        return EXIT_OK if monotone else EXIT_VERIFY
    fitted = float(np.mean(orders))
    print(f"fitted order: {fitted:.4f}")
    lo, hi = 1.9, 2.1  # both studies measure a Strang split: second order
    if not (lo <= fitted <= hi):
        print(f"fitted order outside [{lo}, {hi}]")
        return EXIT_VERIFY
    return EXIT_OK


# --------------------------------------------------------------------------
# dispersive-scan / propagator-compare
# --------------------------------------------------------------------------


def _narrow_probe(grid: GridSpec) -> Field:
    """Near-delta Gaussian probe (two cells wide) for kernel-decay scans."""
    sigma = 2.0 * grid.h
    data = np.exp(-grid.r2 / (2.0 * sigma**2)).astype(np.complex128)
    return Field(grid, data)


def cmd_dispersive_scan(cfg: RunConfig) -> int:
    start = time.perf_counter()
    params = cfg.params
    pairs = (
        list(cfg.scan_pairs) if cfg.scan_pairs is not None else default_scan_pairs(params)
    )
    if 0 < len(pairs) < 3:
        raise ConfigInvalid(
            f"scan.pairs: the scan fits a power law and needs >= 3 pairs, got {len(pairs)}"
        )
    rows, summary, excess = [], ["empty pair list: nothing to fit"], 0.0
    if pairs:
        scan = dispersive_scan(_narrow_probe(cfg.grid), params, pairs=pairs)
        rows = [(r.t, r.s, r.ratio, r.bound) for r in scan.rows]
        excess = scan.max_bound_excess()
        summary = [
            f"fitted exponent vs (t+s): {scan.slope_sum:.4f}"
            f" (rms residual {scan.residual_sum:.3f})",
            f"fitted exponent vs (t-s): {scan.slope_diff:.4f}"
            f" (rms residual {scan.residual_diff:.3f})",
            f"max ratio/bound: {excess:.4f}",
        ]
    csv_text = _csv_text("t,s,ratio,bound", rows)
    _write_outputs(cfg, "dispersive-scan", start, {"dispersive_scan.csv": csv_text},
                   "manifest_dispersive_scan.json")
    print(csv_text + "\n".join(summary))
    if excess > 1.1:
        print("measured ratios exceed the kernel bound by more than 10%")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_propagator_compare(cfg: RunConfig) -> int:
    start = time.perf_counter()
    params = cfg.params
    pairs = (
        list(cfg.compare_pairs)
        if cfg.compare_pairs is not None
        else default_compare_pairs(cfg.grid, params)
    )
    rows, worst = [], 0.0
    for kind, t in pairs:
        u0 = make_state(cfg.grid, params, kind)
        dense = propagate_oracle(u0, t, params)
        ratio = _rel_l2(propagate_fast(u0, t, params), dense)
        worst = max(worst, ratio)
        rows.append((t, ratio, COMPARE_BOUND))
        print(f"{kind:>12}  t = {t:.4f}  discrepancy = {ratio:.3e}")
    _write_outputs(cfg, "propagator-compare", start,
                   {"propagator_compare.csv": _csv_text("t,ratio,bound", rows)},
                   "manifest_propagator_compare.json")
    if worst > COMPARE_BOUND:
        print(f"worst discrepancy {worst:.3e} exceeds {COMPARE_BOUND:.1e}")
        return EXIT_VERIFY
    print(f"worst discrepancy {worst:.3e} within {COMPARE_BOUND:.1e}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser / entrypoint
# --------------------------------------------------------------------------

_CONFIG_ARG = {"config": {"help": "path to a JSON run configuration"}}

#: The subcommands: name -> (help, handler(cfg, args), arguments).  A
#: handler is looked up when it runs, so ``cmd_*`` may be replaced.
_COMMANDS = {
    "run": ("evolve a configured initial field", lambda cfg, a: cmd_run(cfg), _CONFIG_ARG),
    "verify": (
        "run the cross-module invariant battery",
        lambda cfg, a: cmd_verify(cfg),
        {"config": {"nargs": "?", "help": "optional JSON config (defaults to a desk-scale one)"}},
    ),
    "convergence": (
        "self-convergence study",
        lambda cfg, a: cmd_convergence(cfg, a.scheme, a.levels),
        {
            **_CONFIG_ARG,
            "--scheme": {"required": True, "choices": ("strang", "picard", "linear")},
            "--levels": {"type": int, "default": 3,
                         "help": "number of refinement levels (2-6, default 3)"},
        },
    ),
    "dispersive-scan": ("kernel decay scan", lambda cfg, a: cmd_dispersive_scan(cfg), _CONFIG_ARG),
    "propagator-compare": (
        "fast-vs-kernel referee", lambda cfg, a: cmd_propagator_compare(cfg), _CONFIG_ARG
    ),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotor-gpe",
        description=(
            "Simulation and verification laboratory for the cubic"
            " Gross-Pitaevskii equation in a critically rotating harmonic trap."
        ),
        epilog=(
            "Exit codes: 0 success, 2 config error, 3 verification failure,"
            " 4 I/O error."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for argument, options in arguments.items():
            command.add_argument(argument, **options)
    return parser


def entrypoint(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; an error ends in its class's exit code and one stderr line."""
    args = _parser().parse_args(argv)
    try:  # only verify may omit its config
        cfg = (
            load_config(args.config)
            if args.config is not None
            else parse_config(default_config_dict())
        )
        return _COMMANDS[args.command][1](cfg, args)
    except (RotorGpeError, OSError) as exc:
        code = getattr(exc, "exit_code", EXIT_IO)
        print(f"{_PREFIX[code]}: {exc}", file=sys.stderr)
        return code
