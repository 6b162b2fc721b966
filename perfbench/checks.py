"""Independent references for the benchmark's correctness checks.

Everything here is computed with numpy from the documented contracts
(grid layout, snapshot format, CSV header, the verify table) and from
closed forms; nothing imports ``rotor_gpe``.  Each check yields one
:class:`Check`, which the benchmark counts as one operation attempted.

Closed forms used:

* Coherent state ``u0 = (omega/pi)^(3/4) exp(i p0.x) exp(-omega|x-x0|^2/2)``:
  mass 1, ``e0_kin = 3 omega/4 + |p0|^2/2``,
  ``e0_pot = 3 omega/4 + omega^2 |x0|^2/2``,
  ``e0_int = (beta/2) (omega/(2 pi))^(3/2)``, ``lz = (x0 x p0)_3``.
* Kohn orbit.  The generator is ``H = H_nr - omega Lz`` where ``H_nr``
  (Laplacian, isotropic trap, cubic term) commutes with
  ``Lz = -i d_phi``.  Hence ``u(t) = exp(i omega t Lz) v(t)`` with ``v``
  the non-rotating solution, and ``exp(i theta Lz) = exp(theta d_phi)``
  shifts the azimuth: ``u(t, x) = v(t, R(omega t) x)`` with ``R``
  counterclockwise.  The centre of mass of ``v`` obeys Kohn's theorem
  for any ``beta``, ``<x>_v = x0 cos(omega t) + (p0/omega) sin(omega t)``,
  so ``<x>_u = R(-omega t) <x>_v``: the orbit turns clockwise about x3.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Orbit tolerance (absolute, in length units).  At dt = 5e-4 the Strang
#: splitting error of the centre is ~1e-8; the opposite rotation sense
#: misses by ~2 |x0_perp| sin(omega t), over 0.04 after 40 steps.
KOHN_TOL = 1e-6
#: Drift tolerances of the acceptance battery (relative, max(|q0|, 1)).
DRIFT_TOL = {"mass": 1e-10, "e0": 1e-6, "lz": 1e-6}
#: Grid quadrature of a Gaussian well inside the box matches its closed
#: form to ~1e-14; this leaves five decades for rounding.
CSV_ROW_TOL = 1e-9
#: Rows the verify battery prints at beta > 0.
VERIFY_ROWS = (
    "matrix-identity",
    "unitarity-oracle",
    "unitarity-fast",
    "eigenphase-ground",
    "eigenphase-vortex",
    "duality-pairing",
    "intertwining-momentum",
    "intertwining-position",
    "conservation-mass",
    "conservation-energy",
    "conservation-lz",
    "nonlinear-referee",
)


@dataclass(frozen=True)
class Check:
    """One correctness check: passes when ``value <= tolerance``."""

    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.value) and self.value <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def digits(error: float) -> float:
    """Decades of accuracy, ``-log10(error)``; zero reads as 16, no finite error as 0."""
    return -math.log10(max(error, 1e-16)) if math.isfinite(error) else 0.0


# --------------------------------------------------------------------------
# grid, snapshot reader, field moments
# --------------------------------------------------------------------------


def axis(n: int, extent: float) -> np.ndarray:
    """Sample positions ``-extent + h*i`` of the periodic grid ``[-L, L)``."""
    return -extent + (2.0 * extent / n) * np.arange(n)


def read_snapshot(stem: Path) -> tuple[np.ndarray, dict]:
    """Decode ``<stem>.bin`` by the documented format.

    Little-endian float64 ``re, im`` pairs, ``2 n^3`` doubles, z varying
    fastest; ``n`` and ``extent`` come from the ``<stem>.json`` sidecar.
    """
    stem = Path(stem)
    sidecar = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
    n = int(sidecar["n"])
    raw = np.fromfile(stem.with_suffix(".bin"), dtype="<f8")
    if raw.size != 2 * n**3:
        raise ValueError(f"{stem}.bin holds {raw.size} doubles, expected {2 * n**3}")
    pairs = raw.reshape(n, n, n, 2)
    return pairs[..., 0] + 1j * pairs[..., 1], sidecar


def moments(data: np.ndarray, extent: float, omega: float, beta: float) -> dict:
    """Mass, energy parts, ``<Lz>`` and centre of mass by grid quadrature.

    Derivatives are spectral (numpy FFT), with the Nyquist mode dropped
    from first derivatives.
    """
    n = data.shape[0]
    h = 2.0 * extent / n
    vol = h**3
    x = axis(n, extent)
    x1, x2, x3 = x.reshape(n, 1, 1), x.reshape(1, n, 1), x.reshape(1, 1, n)
    abs2 = np.abs(data) ** 2
    mass = float(abs2.sum()) * vol
    centre = [
        float(np.sum(x1 * abs2)) * vol / mass,
        float(np.sum(x2 * abs2)) * vol / mass,
        float(np.sum(x3 * abs2)) * vol / mass,
    ]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    k[n // 2] = 0.0
    k1, k2, k3 = k.reshape(n, 1, 1), k.reshape(1, n, 1), k.reshape(1, 1, n)
    spec = np.fft.fftn(data)
    gradsq = float(np.sum((k1**2 + k2**2 + k3**2) * np.abs(spec) ** 2)) * vol / n**3
    d1 = np.fft.ifftn(1j * k1 * spec)
    d2 = np.fft.ifftn(1j * k2 * spec)
    lz = np.vdot(data, -1j * (x1 * d2 - x2 * d1)).real * vol
    e0_kin = 0.5 * gradsq
    e0_pot = 0.5 * omega**2 * float(np.sum((x1**2 + x2**2 + x3**2) * abs2)) * vol
    e0_int = 0.5 * beta * float(np.sum(abs2**2)) * vol
    return {
        "mass": mass,
        "e0_kin": e0_kin,
        "e0_pot": e0_pot,
        "e0_int": e0_int,
        "e0": e0_kin + e0_pot + e0_int,
        "lz": float(lz),
        "centre": centre,
    }


# --------------------------------------------------------------------------
# references
# --------------------------------------------------------------------------


def kohn_centre(x0, p0, omega: float, t: float, sense: int = -1) -> np.ndarray:
    """Centre of mass at time ``t`` (see the module docstring).

    ``sense=-1`` is the physical clockwise turn ``R(-omega t)``;
    ``sense=+1`` gives the opposite orbit, for tests of the check.
    """
    c, s = math.cos(omega * t), math.sin(omega * t)
    v = [x0[j] * c + p0[j] / omega * s for j in range(3)]
    s *= sense  # R(sense * omega t), counterclockwise for sense = +1
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1], v[2]])


def initial_closed_form(x0, p0, omega: float, beta: float) -> dict:
    """Closed-form conserved quantities of the coherent state."""
    return {
        "mass": 1.0,
        "e0_kin": 0.75 * omega + 0.5 * sum(p * p for p in p0),
        "e0_pot": 0.75 * omega + 0.5 * omega**2 * sum(x * x for x in x0),
        "e0_int": 0.5 * beta * (omega / (2.0 * np.pi)) ** 1.5,
        "lz": x0[0] * p0[1] - x0[1] * p0[0],
    }


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def check_kohn(samples, x0, p0, omega: float) -> Check:
    """Worst distance of measured centres from the Kohn orbit.

    ``samples`` is an iterable of ``(t, centre)`` pairs; none at all fails.
    ``np.max`` propagates a NaN, which then fails the check.
    """
    errors = [np.linalg.norm(np.asarray(centre) - kohn_centre(x0, p0, omega, t)) for t, centre in samples]
    return Check("kohn-orbit", float(np.max(errors)) if errors else math.inf, KOHN_TOL)


def check_drifts(series: list[dict]) -> list[Check]:
    """Relative drifts ``max |q - q0| / max(|q0|, 1)`` of mass, e0 and lz.

    Fewer than two samples fail: a drift needs a start and an end.
    """
    out = []
    for key, tol in DRIFT_TOL.items():
        if len(series) < 2:
            out.append(Check(f"drift-{key}", math.inf, tol))
            continue
        q0 = series[0][key]
        worst = float(np.max([abs(m[key] - q0) for m in series[1:]]))
        out.append(Check(f"drift-{key}", worst / max(abs(q0), 1.0), tol))
    return out


def check_csv_first_row(csv_text: str, x0, p0, omega: float, beta: float) -> Check:
    """First diagnostics row against the coherent state's closed forms."""
    lines = csv_text.strip().splitlines()
    if len(lines) < 2:
        return Check("csv-first-row", math.inf, CSV_ROW_TOL)
    ref = initial_closed_form(x0, p0, omega, beta)
    ref["t"] = 0.0
    try:
        row = dict(zip(lines[0].split(","), (float(v) for v in lines[1].split(","))))
        worst = float(np.max([abs(row[key] - value) for key, value in ref.items()]))
    except (KeyError, ValueError):
        worst = math.inf
    return Check("csv-first-row", worst, CSV_ROW_TOL)


def parse_verify_table(text: str) -> dict[str, tuple[float, float, str]]:
    """``name -> (measured, tolerance, status)`` from the verify table."""
    rows: dict[str, tuple[float, float, str]] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 4 or parts[3] not in ("PASS", "FAIL"):
            continue
        try:
            rows[parts[0]] = (float(parts[1]), float(parts[2]), parts[3])
        except ValueError:
            continue
    return rows


def check_verify_table(text: str, exit_code: int) -> tuple[list[Check], float]:
    """One check per battery row plus one for the exit code.

    A row passes when it is present, marked PASS and its printed
    measurement is within its printed tolerance.  Also returns the
    smallest margin in decades, ``min log10(tolerance / measured)``: it
    is negative when a printed value exceeds its tolerance and 0 when a
    row is missing or marked FAIL.
    """
    rows = parse_verify_table(text)
    ratios = []
    for name in sorted(set(VERIFY_ROWS) | set(rows)):
        measured, tol, status = rows.get(name, (math.inf, 0.0, "missing"))
        ratio = measured / tol if tol > 0 and status == "PASS" else math.inf
        ratios.append(Check(f"verify-{name}", ratio, 1.0))
    margin = digits(float(np.max([c.value for c in ratios])))
    return [Check("verify-exit-code", float(exit_code != 0), 0.0), *ratios], margin
