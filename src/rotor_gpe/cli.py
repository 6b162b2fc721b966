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
    order.
``dispersive-scan <config.json>``
    Measure the decay of the forward-after-dual composition over a
    ``(t, s)`` battery; emits ``t,s,ratio,bound`` CSV and prints the
    fitted exponents for both candidate regressors.
``propagator-compare <config.json>``
    Fast-vs-dense-kernel referee on named states; emits
    ``t,s,ratio,bound`` CSV (``s`` is the substep count used).

Exit codes: 0 success; 2 config error; 3 verification failure;
4 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .config import RunConfig, build_initial_field, default_config_dict, load_config, parse_config
from .diagnostics import drift_report, energy_e0, record, write_csv
from .errors import (
    BlowupDetected,
    BoundaryTruncation,
    ConfigInvalid,
    GridTooLarge,
    InvalidExponent,
    NoContraction,
    QFactorizationSingular,
    ResolutionTooLow,
    RotorGpeError,
    SnapshotFormatError,
    WindowViolation,
)
from .galilean import galilean_momentum, galilean_position
from .grid import Field, GridSpec, PhysicsParams, _sum_sq, lp_norm, pairing
from .propagator import (
    ORACLE_SIZE_CAP,
    default_scan_pairs,
    dispersive_scan,
    kernel_matrices,
    propagate_dual,
    propagate_fast,
    propagate_oracle,
)
from .solver import SolverConfig, evolve, picard_solve
from .snapshots import atomic_write, write_snapshot
from .states import (
    exact_linear_evolution,
    ground_state,
    make_state,
    random_smooth_field,
    vortex_state,
)

__all__ = ["entrypoint", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_IO = 4

#: Fast-vs-oracle discrepancy allowed at ``COMPARE_SUBSTEPS``.
COMPARE_BOUND = 1e-6
#: Substep count at which the fast backend's splitting error is below the bound.
COMPARE_SUBSTEPS = 512


def _rel_l2(a: Field, b: Field) -> float:
    diff = float(np.sqrt(_sum_sq(a.data - b.data)))
    scale = float(np.sqrt(_sum_sq(b.data)))
    return diff / scale if scale > 0 else diff


def _strang_referee(u0: Field, t: float, params: PhysicsParams) -> Field:
    """Reference solution at ``t``: the Richardson pair of two Strang runs.

    ``(4 u_256 - u_128) / 3``, where ``u_k`` is :func:`evolve` in ``k``
    steps of ``t / k`` with one harmonic substep (``m = 1``).  Strang
    splitting is a symmetric composition, so its error is a series in
    ``dt^2`` and the pair cancels the leading term.  At n = 16, from the
    ground state to ``t = pi/8``, the pair is 1.4e-10 (relative L2) from
    8192 plain steps, which is that run's own error, and 4.6e-13 from the
    pair of 256 and 512 steps; it costs 384 steps.  The weights hold only
    for a fine run of twice the coarse run's steps.
    """
    coarse, fine = (
        evolve(u0, SolverConfig(scheme="strang", dt=t / k, t_end=t, m=1), params)
        .final.field.data
        for k in (128, 256)
    )
    return Field(u0.grid, (4.0 * fine - coarse) / 3.0)


def _fmt(value: float) -> str:
    """Round-trip-exact decimal for CSV cells."""
    return f"{value:.17g}"


def _write_text(path: Path, text: str) -> None:
    atomic_write(path, text.encode("utf-8"))


def _write_manifest(
    cfg: RunConfig,
    command: str,
    outputs: list[str],
    start: float,
    name: str,
    extra: dict | None = None,
) -> float:
    """Write the manifest with the wall time since ``start``; return that time.

    ``extra`` holds further entries, such as a run's loop health.
    """
    wall = time.perf_counter() - start
    manifest = {
        "command": command,
        "config": cfg.echo,
        "version": __version__,
        "wall_time_seconds": wall,
        "outputs": outputs,
        **(extra or {}),
    }
    path = cfg.output_dir / name
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return wall


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------


def cmd_run(cfg: RunConfig) -> int:
    start = time.perf_counter()
    u0 = build_initial_field(cfg)
    outputs: list[str] = []

    if cfg.solver.scheme == "picard":
        window = cfg.params.window
        if cfg.solver.t_end > window + 1e-13:
            raise ConfigInvalid(
                "evolve.t_end: the picard scheme is single-window; need"
                f" t_end <= {window:.6f}, got {cfg.solver.t_end}"
            )
        result = picard_solve(u0, cfg.solver.t_end, cfg.solver, cfg.params)
        e0_ref = energy_e0(u0, cfg.params)
        records = [
            record(f, t, cfg.params, e0_ref)
            for t, f in zip(result.times, result.fields)
        ]
        final_field, final_t = result.fields[-1], result.times[-1]
        health = {"max_phase_per_step": None, "guard_margin": None}
        print(
            f"picard: {result.iterations} iterations, final workspace"
            f" distance {result.distances[-1]:.3e}"
        )
    else:
        numbers = itertools.count()

        def write_next_snapshot(t: float, snap: Field) -> None:
            stem = f"snapshot_{next(numbers):06d}"
            write_snapshot(cfg.output_dir / stem, snap, t, cfg.params)
            outputs.extend([f"{stem}.bin", f"{stem}.json"])

        result = evolve(
            u0,
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
    outputs.append("diagnostics.csv")

    write_snapshot(cfg.output_dir / "snapshot_final", final_field, final_t, cfg.params)
    outputs.extend(["snapshot_final.bin", "snapshot_final.json"])

    wall = _write_manifest(cfg, "run", outputs, start, "manifest.json", health)
    drift = drift_report(records)
    print(f"run: {len(records)} diagnostics records to t = {final_t:.6f}")
    print(
        "drift: mass {mass:.3e}  e0 {e0:.3e}  lz {lz_expect:.3e}"
        "  pc {pc_lhs:.3e}".format(**drift)
    )
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


def _oracle_grid(params: PhysicsParams) -> GridSpec:
    """Desk-scale grid on which the dense kernel quadrature is alias-safe."""
    return GridSpec(n=24, extent=6.0 / np.sqrt(params.omega))


def _check_matrix_identities(params: PhysicsParams, rng: np.random.Generator) -> float:
    """Closed-form identities of the kernel matrices at random times."""
    w = params.omega
    window = params.window
    worst = 0.0
    for _ in range(60):
        t = float(rng.uniform(0.05, 1.0)) * window
        s = float(rng.uniform(0.05, 1.0)) * window
        km = kernel_matrices(t, params, s)
        theta = w * t
        csc = 1.0 / np.sin(theta)
        worst = max(worst, abs(km.tilde_scale - np.tan(theta / 2.0)))
        worst = max(worst, abs(km.breve_scale + km.tilde_scale))
        a_perp = km.a_matrix[:2, :2]
        worst = max(
            worst, float(np.max(np.abs(a_perp.T @ a_perp - csc**2 * np.eye(2))))
        )
        worst = max(worst, abs(km.a_matrix[2, 2] - csc))
        ratio = np.sin(w * s) / np.sin(w * t)
        b_perp = km.b_matrix[:2, :2]
        worst = max(
            worst, float(np.max(np.abs(b_perp @ b_perp.T - ratio**2 * np.eye(2))))
        )
        worst = max(worst, abs(km.b_matrix[2, 2] - ratio))
        mag = (w / (2.0 * np.pi * np.sin(theta))) ** 1.5
        worst = max(worst, abs(abs(km.prefactor) - mag) / mag)
    return worst


def _check_intertwining(
    grid: GridSpec, params: PhysicsParams, t: float, substeps: int
) -> tuple[float, float]:
    """Worst commutation defect of the two dressed vector operators.

    Propagating then dressing must equal dressing with the t = 0
    operators then propagating; one shared flow per state serves both
    operator families.
    """
    worst_j = worst_h = 0.0
    for u0 in (ground_state(grid, params), vortex_state(grid, params, charge=1)):
        ut = propagate_fast(u0, t, params, substeps=substeps)
        for dressed, bucket in ((galilean_momentum, "j"), (galilean_position, "h")):
            ops0 = dressed(u0, 0.0, params)
            opst = dressed(ut, t, params)
            for g0, gt in zip(ops0, opst):
                moved = propagate_fast(g0, t, params, substeps=substeps)
                defect = float(np.sqrt(_sum_sq(gt.data - moved.data)))
                if bucket == "j":
                    worst_j = max(worst_j, defect)
                else:
                    worst_h = max(worst_h, defect)
    return worst_j, worst_h


def _verify_battery(cfg: RunConfig) -> list[CheckRow]:
    params = cfg.params
    w = params.omega
    window = params.window
    rng = np.random.default_rng(cfg.seed)
    rows: list[CheckRow] = []

    rows.append(
        CheckRow("matrix-identity", _check_matrix_identities(params, rng), 1e-12)
    )

    ogrid = _oracle_grid(params)
    worst = 0.0
    for _ in range(2):
        phi = random_smooth_field(ogrid, rng, width=ogrid.extent / 6.0)
        n0 = lp_norm(phi, 2)
        for theta in (0.55, np.pi / 4):
            out = propagate_oracle(phi, theta / w, params)
            worst = max(worst, abs(lp_norm(out, 2) / n0 - 1.0))
    rows.append(CheckRow("unitarity-oracle", worst, 1e-6))

    worst = 0.0
    for _ in range(3):
        phi = random_smooth_field(cfg.grid, rng, width=cfg.grid.extent / 6.0)
        n0 = lp_norm(phi, 2)
        for theta in (0.2, 0.45, 0.65, np.pi / 4):
            out = propagate_fast(phi, theta / w, params)
            worst = max(worst, abs(lp_norm(out, 2) / n0 - 1.0))
    rows.append(CheckRow("unitarity-fast", worst, 1e-10))

    t_eig = 0.7 / w
    for name, kind in (("eigenphase-ground", "ground"), ("eigenphase-vortex", "vortex_plus")):
        u0 = make_state(ogrid, params, kind)
        out = propagate_oracle(u0, t_eig, params)
        ref = exact_linear_evolution(ogrid, params, kind, t_eig)
        rows.append(CheckRow(name, _rel_l2(out, ref), 1e-5))

    # The oracle dual is the literal transpose of the dense kernel
    # quadrature to rounding, so the bilinear pairing identity must hold
    # to rounding there (the fast backend's dual is only as good as its
    # splitting).
    phi = random_smooth_field(ogrid, rng, width=ogrid.extent / 6.0)
    psi = random_smooth_field(ogrid, rng, width=ogrid.extent / 6.0)
    t_dual = 0.55 / w
    lhs = pairing(propagate_oracle(phi, t_dual, params), psi)
    rhs = pairing(phi, propagate_dual(psi, t_dual, params, backend="oracle"))
    scale = lp_norm(phi, 2) * lp_norm(psi, 2)
    rows.append(CheckRow("duality-pairing", abs(lhs - rhs) / scale, 1e-8))

    # The commutation defect needs a roomier box than the kernel checks:
    # the dressed operators carry coordinate weights, which amplify the
    # wrap-around of whatever mass sits near the periodic seam.
    igrid = GridSpec(n=32, extent=7.0 / np.sqrt(w))
    worst_j, worst_h = _check_intertwining(igrid, params, 0.6 / w, substeps=256)
    rows.append(CheckRow("intertwining-momentum", worst_j, 1e-5))
    rows.append(CheckRow("intertwining-position", worst_h, 1e-5))

    u0 = build_initial_field(cfg)
    cons_cfg = SolverConfig(
        scheme="strang",
        dt=min(cfg.solver.dt, 2e-3 / w),
        t_end=min(cfg.solver.t_end, 0.2 / w),
        picard=cfg.solver.picard,
        diagnostics_every=25,
        blowup_factor=cfg.solver.blowup_factor,
    )
    result = evolve(u0, cons_cfg, params)
    drift = drift_report(result.records)
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
    if cfg.verify_tolerance is not None:
        rows = [
            CheckRow(r.name, r.measured, cfg.verify_tolerance, r.skipped) for r in rows
        ]

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


def _observed_orders(errors: list[float]) -> list[float]:
    orders = []
    for prev, cur in zip(errors, errors[1:]):
        orders.append(float(np.log2(prev / cur)) if cur > 0 and prev > 0 else float("nan"))
    return orders


def _convergence_rows(
    labels: list[float], errors: list[float]
) -> tuple[str, float]:
    orders = _observed_orders(errors)
    lines = ["level,dt_or_m,error,observed_order"]
    for k, (label, err) in enumerate(zip(labels, errors)):
        cell = "" if k == 0 else _fmt(orders[k - 1])
        lines.append(f"{k},{_fmt(label)},{_fmt(err)},{cell}")
    fitted = float(np.mean(orders)) if orders else float("nan")
    return "\n".join(lines) + "\n", fitted


def cmd_convergence(cfg: RunConfig, scheme: str, levels: int) -> int:
    start = time.perf_counter()
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
        ref_cfg = SolverConfig(scheme="strang", dt=dts[-1] / 4.0, t_end=t_end, m=1)
        ref = evolve(u0, ref_cfg, params).final.field
        errors = []
        for dt in dts:
            out = evolve(
                u0, SolverConfig(scheme="strang", dt=dt, t_end=t_end, m=1), params
            ).final.field
            errors.append(_rel_l2(out, ref))
        labels = dts
        enforce = (1.9, 2.1)
    elif scheme == "linear":
        t_lin = min(t_end, window)
        ms = [2**k for k in range(levels)]
        ref = propagate_fast(u0, t_lin, params, substeps=ms[-1] * 4)
        errors = [
            _rel_l2(propagate_fast(u0, t_lin, params, substeps=m), ref) for m in ms
        ]
        labels = [float(m) for m in ms]
        enforce = (1.9, 2.1)
    else:  # picard
        if params.beta == 0.0:
            raise ConfigInvalid(
                "physics.beta: the picard study iterates the cubic Duhamel"
                " term; it needs beta > 0"
            )
        t_pic = min(t_end, np.pi / (8.0 * params.omega))
        ref = _strang_referee(u0, t_pic, params)
        nodes = [8 * 2**k + 1 for k in range(levels)]
        errors = []
        for n_nodes in nodes:
            pcfg = replace(cfg.solver.picard, quad_nodes=n_nodes)
            scfg = replace(cfg.solver, picard=pcfg)
            pic = picard_solve(u0, t_pic, scfg, params)
            errors.append(_rel_l2(pic.fields[-1], ref))
        labels = [float(n) for n in nodes]
        enforce = None

    csv_text, fitted = _convergence_rows(labels, errors)
    path = cfg.output_dir / f"convergence_{scheme}.csv"
    _write_text(path, csv_text)
    _write_manifest(cfg, f"convergence --scheme {scheme} --levels {levels}",
                    [path.name], start, f"manifest_convergence_{scheme}.csv.json")
    print(csv_text, end="")
    print(f"fitted order: {fitted:.4f}")

    if scheme == "picard":
        monotone = all(b < a for a, b in zip(errors, errors[1:]))
        print(f"monotone decrease: {'yes' if monotone else 'NO'}")
        return EXIT_OK if monotone else EXIT_VERIFY
    lo, hi = enforce
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
    header = "t,s,ratio,bound\n"
    path = cfg.output_dir / "dispersive_scan.csv"
    if cfg.scan_pairs is not None and len(cfg.scan_pairs) == 0:
        _write_text(path, header)
        _write_manifest(cfg, "dispersive-scan", [path.name], start,
                        "manifest_dispersive_scan.json")
        print("empty pair list; wrote empty scan CSV")
        return EXIT_OK
    pairs = (
        list(cfg.scan_pairs) if cfg.scan_pairs is not None else default_scan_pairs(params)
    )
    if len(pairs) < 3:
        raise ConfigInvalid(
            f"scan.pairs: the scan fits a power law and needs >= 3 pairs, got {len(pairs)}"
        )
    probe = _narrow_probe(cfg.grid)
    scan = dispersive_scan(probe, params, pairs=pairs, backend="fast")
    lines = [header.strip()]
    for row in scan.rows:
        lines.append(f"{_fmt(row.t)},{_fmt(row.s)},{_fmt(row.ratio)},{_fmt(row.bound)}")
    _write_text(path, "\n".join(lines) + "\n")
    _write_manifest(cfg, "dispersive-scan", [path.name], start,
                    "manifest_dispersive_scan.json")
    print("\n".join(lines))
    print(
        f"fitted exponent vs (t+s): {scan.slope_sum:.4f}"
        f" (rms residual {scan.residual_sum:.3f})"
    )
    print(
        f"fitted exponent vs (t-s): {scan.slope_diff:.4f}"
        f" (rms residual {scan.residual_diff:.3f})"
    )
    excess = scan.max_bound_excess()
    print(f"max ratio/bound: {excess:.4f}")
    if excess > 1.1:
        print("measured ratios exceed the kernel bound by more than 10%")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_propagator_compare(cfg: RunConfig) -> int:
    start = time.perf_counter()
    params = cfg.params
    header = "t,s,ratio,bound\n"
    path = cfg.output_dir / "propagator_compare.csv"
    if cfg.compare_pairs is not None and len(cfg.compare_pairs) == 0:
        _write_text(path, header)
        _write_manifest(cfg, "propagator-compare", [path.name], start,
                        "manifest_propagator_compare.json")
        print("empty pair list; wrote empty comparison CSV")
        return EXIT_OK
    if cfg.grid.n > ORACLE_SIZE_CAP:
        raise ConfigInvalid(
            f"grid.n: the dense kernel referee is capped at n = {ORACLE_SIZE_CAP},"
            f" got {cfg.grid.n}"
        )
    w = params.omega
    pairs = (
        list(cfg.compare_pairs)
        if cfg.compare_pairs is not None
        else [("ground", 0.6 / w), ("vortex_plus", 0.6 / w)]
    )
    lines = [header.strip()]
    worst = 0.0
    for kind, t in pairs:
        u0 = make_state(cfg.grid, params, kind)
        dense = propagate_oracle(u0, t, params)
        fast = propagate_fast(u0, t, params, substeps=COMPARE_SUBSTEPS)
        ratio = _rel_l2(fast, dense)
        worst = max(worst, ratio)
        lines.append(
            f"{_fmt(t)},{_fmt(float(COMPARE_SUBSTEPS))},{_fmt(ratio)},{_fmt(COMPARE_BOUND)}"
        )
        print(f"{kind:>12}  t = {t:.4f}  m = {COMPARE_SUBSTEPS}  discrepancy = {ratio:.3e}")
    _write_text(path, "\n".join(lines) + "\n")
    _write_manifest(cfg, "propagator-compare", [path.name], start,
                    "manifest_propagator_compare.json")
    if worst > COMPARE_BOUND:
        print(f"worst discrepancy {worst:.3e} exceeds {COMPARE_BOUND:.1e}")
        return EXIT_VERIFY
    print(f"worst discrepancy {worst:.3e} within {COMPARE_BOUND:.1e}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser / entrypoint
# --------------------------------------------------------------------------


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

    p_run = sub.add_parser("run", help="evolve a configured initial field")
    p_run.add_argument("config", help="path to a JSON run configuration")

    p_ver = sub.add_parser("verify", help="run the cross-module invariant battery")
    p_ver.add_argument("config", nargs="?", default=None,
                       help="optional JSON config (defaults to a desk-scale one)")

    p_conv = sub.add_parser("convergence", help="self-convergence study")
    p_conv.add_argument("config", help="path to a JSON run configuration")
    p_conv.add_argument("--scheme", required=True, choices=("strang", "picard", "linear"))
    p_conv.add_argument("--levels", type=int, default=3,
                        help="number of refinement levels (2-6, default 3)")

    p_scan = sub.add_parser("dispersive-scan", help="kernel decay scan")
    p_scan.add_argument("config", help="path to a JSON run configuration")

    p_cmp = sub.add_parser("propagator-compare", help="fast-vs-kernel referee")
    p_cmp.add_argument("config", help="path to a JSON run configuration")

    return parser


def entrypoint(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            cfg = (
                load_config(args.config)
                if args.config is not None
                else parse_config(default_config_dict())
            )
            return cmd_verify(cfg)
        cfg = load_config(args.config)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "convergence":
            if not 2 <= args.levels <= 6:
                raise ConfigInvalid(
                    f"levels: must be between 2 and 6, got {args.levels}"
                )
            return cmd_convergence(cfg, args.scheme, args.levels)
        if args.command == "dispersive-scan":
            return cmd_dispersive_scan(cfg)
        if args.command == "propagator-compare":
            return cmd_propagator_compare(cfg)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (
        ConfigInvalid,
        ResolutionTooLow,
        GridTooLarge,
        WindowViolation,
        InvalidExponent,
        QFactorizationSingular,
    ) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SnapshotFormatError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (BlowupDetected, NoContraction) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except RotorGpeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    raise SystemExit(entrypoint())
