"""Conserved quantities and drift reporting for trap-rotation flows.

Four quantities are tracked along a trajectory:

* mass ``||u||_2^2``,
* the non-rotating energy
  ``E0(u) = 1/2 ||grad u||^2 + (omega^2/2) || |x| u ||^2 + (beta/2) ||u||_4^4``,
* the angular-momentum expectation ``<u, Lz u>``,
* the pseudo-conformal balance
  ``||J(t)u||^2 + ||H(t)u||^2 + beta ||u||_4^4  =  2 E0(u(0))``.  Its
  form with the reflected half-angle twist in the axial slot (scale
  ``2 cos(omega t) - 1``) adds ``4 c (1 - c) [omega^2 ||x3 u||^2 +
  ||d3 u||^2]``; by ``(2c-1)^2 + 4c(1-c) = 1`` the axial terms cancel to
  this one, and the moment identities below make its left side
  ``2 E0(u(t))`` on the grid.

The balance law is evaluated in window-local time: the dressed operators
``J(t)``, ``H(t)`` carry trigonometric coefficients that are only exercised
on ``[0, pi/(4 omega)]``, and the global-in-time extension restarts the
clock (and re-captures ``E0``) at every window seam.  ``record`` therefore
accepts an optional ``t_local`` distinct from the global timestamp written
to the CSV.

All quadratures use the plain ``h^3``-weighted grid sums of
:mod:`rotor_gpe.grid`, and every quantity is read off one moments pass
(``grid._moments``): the ``x1`` and ``x2`` spectral partials (one real
matrix product each, no transform), one Gram product for the ``x3``
terms and a few fused reductions, with no dressed field built.  With ``theta = omega t_local``, ``c = cos(theta)``,
``s = sin(theta)`` and the moments

* ``X = || |x| u ||^2``,
* ``G = sum_j ||d_j u||^2``,
* ``V = Im sum_j <x_j u, d_j u>``,

the squared norms of the dressed operators of :mod:`rotor_gpe.galilean` are

* ``||J(t)u||^2 = omega^2 s^2 X + c^2 G + 2 omega s c V``,
* ``||H(t)u||^2 = omega^2 c^2 X + s^2 G - 2 omega s c V``.

These hold exactly on the grid, not only in the continuum: the
transverse mix of the dressed operators is one orthogonal 2x2 rotation
applied pointwise to ``(x1 u, x2 u)`` and to ``(d1 u, d2 u)``, so the
norms and cross products it enters do not depend on ``theta``.  The
axial components obey the same formulas with ``X3 = ||x3 u||^2``,
``G3 = ||d3 u||^2`` and ``V3 = Im <x3 u, d3 u>``.

Each of these moments, and with them every column but ``linf``, is
invariant under a rotation of the field about x3, up to the grid's
resolution of the field; ``linf`` is a grid-sampled maximum, which a
rotation samples at other points.  So a solver may record the field in
any frame turned about x3 (``solver.evolve`` records the co-rotating
one).

Every CSV of the package, the diagnostics CSV and the command line's
study tables, is written by :func:`_csv_text`; the diagnostics rows are
read off the records in :data:`CSV_HEADER`'s column order, so the
header and its rows cannot disagree.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import Field, PhysicsParams, _moments, _Moments
from .snapshots import atomic_write

__all__ = [
    "CSV_HEADER",
    "DiagnosticsRecord",
    "record",
    "drift_report",
    "format_csv_rows",
    "write_csv",
]

#: Column order of the diagnostics CSV written by the command-line driver.
CSV_HEADER = "t,mass,e0,e0_kin,e0_pot,e0_int,lz,pc_lhs,pc_residual,sigma,j2,h2,linf"
#: The record field of each column whose name is not the field's own.
_FIELDS = {"lz": "lz_expect", "sigma": "sigma_norm", "j2": "j_norm_sq", "h2": "h_norm_sq"}


@dataclass(frozen=True)
class DiagnosticsRecord:
    """All tracked quantities of one field at one instant.

    ``t`` is the global timestamp (the CSV time column); the dressed
    operators and the balance law were evaluated at the window-local
    time that the producer passed alongside.  ``lz_imag_defect`` is the
    magnitude of the imaginary part of the angular-momentum quadrature,
    a purely numerical defect kept out of the CSV schema.
    """

    t: float
    mass: float
    e0: float
    e0_kin: float
    e0_pot: float
    e0_int: float
    lz_expect: float
    lz_imag_defect: float
    pc_lhs: float
    pc_residual: float
    sigma_norm: float
    j_norm_sq: float
    h_norm_sq: float
    linf: float


def _energy(m: _Moments, params: PhysicsParams) -> tuple[float, float, float]:
    kin = 0.5 * sum(m.grad_sq)
    pot = 0.5 * params.omega**2 * sum(m.x_sq)
    inter = 0.5 * params.beta * m.l4_4
    return kin, pot, inter


def _dressed_sq(
    omega: float, c: float, s: float, x_sq: float, grad_sq: float, virial: float
) -> tuple[float, float]:
    """``(||J u||^2, ||H u||^2)`` from the moments ``X``, ``G``, ``V``."""
    cross = 2.0 * omega * s * c * virial
    j_sq = omega**2 * s**2 * x_sq + c**2 * grad_sq + cross
    h_sq = omega**2 * c**2 * x_sq + s**2 * grad_sq - cross
    return j_sq, h_sq


def record(
    u: Field,
    t: float,
    params: PhysicsParams,
    e0_initial: float | None,
    *,
    t_local: float | None = None,
) -> DiagnosticsRecord:
    """Assemble every tracked quantity of ``u`` into one record.

    ``t`` is the global timestamp; ``t_local`` (defaulting to ``t``) is
    the window-local time used for the dressed operators and the balance
    law, and ``e0_initial=None`` takes the record's own ``e0`` as the
    reference of that law.  Every column comes from one moments pass: two
    spectral partials, one Gram product (see ``grid._moments``) and a
    few fused reductions.  ``||J(t)u||^2`` and ``||H(t)u||^2`` follow from the
    moment identities of the module docstring, which hold exactly on the
    grid; no dressed field is built.
    """
    return record_from_moments(
        _moments(u.grid, u.data), t, params, e0_initial, t_local=t_local
    )


def record_from_moments(
    m: _Moments,
    t: float,
    params: PhysicsParams,
    e0_initial: float | None,
    *,
    t_local: float | None = None,
) -> DiagnosticsRecord:
    """:func:`record` from a field's moments, already taken.

    For callers that hold the field in a workspace array (``evolve``) or
    record one field twice (the two records of a window seam).
    ``e0_initial=None`` marks a record that opens a window: its own
    ``e0`` is the reference of the balance law.
    """
    if t_local is None:
        t_local = t
    w = params.omega
    kin, pot, inter = _energy(m, params)
    e0 = kin + pot + inter
    if e0_initial is None:
        e0_initial = e0
    x_sq = sum(m.x_sq)
    grad_sq = sum(m.grad_sq)

    theta = w * t_local
    cos_t, sin_t = float(np.cos(theta)), float(np.sin(theta))
    j2, h2 = _dressed_sq(w, cos_t, sin_t, x_sq, grad_sq, sum(m.virial))
    pc_lhs = j2 + h2 + params.beta * m.l4_4
    sigma = float(np.sqrt(m.mass + grad_sq) + np.sqrt(x_sq))

    return DiagnosticsRecord(
        t=float(t),
        mass=m.mass,
        e0=e0,
        e0_kin=kin,
        e0_pot=pot,
        e0_int=inter,
        lz_expect=m.lz.real,
        lz_imag_defect=abs(m.lz.imag),
        pc_lhs=pc_lhs,
        pc_residual=pc_lhs - 2.0 * e0_initial,
        sigma_norm=sigma,
        j_norm_sq=j2,
        h_norm_sq=h2,
        linf=m.linf,
    )


#: Quantities that the flow conserves exactly; drift_report covers these.
#: ``pc_lhs`` is left out: it is ``2 e0`` on the grid, so its drift
#: would repeat the ``e0`` drift.
_CONSERVED = ("mass", "e0", "lz_expect")


def drift_report(records: Sequence[DiagnosticsRecord]) -> dict[str, float]:
    """Relative drifts ``max_t |q(t) - q(0)| / max(|q(0)|, 1)``.

    Covers the conserved quantities (keys ``mass``, ``e0`` and
    ``lz_expect``).  A single record, or none, reports zero drift.
    """
    out: dict[str, float] = {}
    for name in _CONSERVED:
        if len(records) < 2:
            out[name] = 0.0
            continue
        q0 = getattr(records[0], name)
        worst = max(abs(getattr(r, name) - q0) for r in records[1:])
        out[name] = worst / max(abs(q0), 1.0)
    return out


def _csv_text(header: str, rows: Iterable[Iterable[float | None]]) -> str:
    """The package's one CSV format: ``header``, then a line per row, newline-terminated.

    Every cell is written at 17 significant digits, which reads back to
    the same double; ``None`` is an empty cell.
    """
    lines = [header]
    lines.extend(",".join("" if v is None else f"{v:.17g}" for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def format_csv_rows(records: Iterable[DiagnosticsRecord]) -> str:
    """Header plus one row per record (:func:`_csv_text`), in the header's column order."""
    fields = [_FIELDS.get(column, column) for column in CSV_HEADER.split(",")]
    return _csv_text(CSV_HEADER, ([getattr(r, f) for f in fields] for r in records))


def write_csv(records: Iterable[DiagnosticsRecord], path: str | Path) -> None:
    """Write the diagnostics CSV to ``path``, atomically."""
    atomic_write(path, format_csv_rows(records).encode("utf-8"))
