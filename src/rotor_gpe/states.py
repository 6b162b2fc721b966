"""Reference states and their exact linear evolution.

The linear generator here is ``H0 = (1/2)(-Lap + omega^2 |x|^2) -
omega*Lz`` with ``Lz = -i (x1 d2 - x2 d1)``.  Its low eigenstates have
closed forms, and a displaced Gaussian evolves as a coherent state
whose center follows the classical equations of motion in the rotating
frame.  The orbit has a closed form: the rotation term commutes with
the oscillator, so the rotating-frame orbit is the lab-frame oscillator
orbit turned by ``-omega t`` about x3.  The tests check that closed
form against a high-order numerical integration of the Hamiltonian
system, which keeps it independent of the algebra it encodes.
"""

from __future__ import annotations

import math
import random
from functools import partial

import numpy as np

from .errors import ResolutionTooLow
from .grid import Field, GridSpec, PhysicsParams, gradient_arrays, laplacian_array, inner, lp_norm

__all__ = [
    "STATE_KINDS",
    "ground_state",
    "vortex_state",
    "coherent_state",
    "SeededDraws",
    "random_smooth_field",
    "make_state",
    "classical_orbit",
    "exact_linear_evolution",
    "generator_apply",
    "generator_expectation",
]

def _gaussian_line(grid: GridSpec, omega: float, center: float = 0.0) -> np.ndarray:
    """``exp(-omega (x - center)^2 / 2)`` on the 1D axis: one factor of a trap Gaussian."""
    return np.exp(-0.5 * omega * (grid.axis - center) ** 2)


def _outer(plane: np.ndarray, line: np.ndarray) -> np.ndarray:
    """``plane[i, j] line[k]``: a separable field from its ``(x1, x2)`` and ``x3`` factors.

    The separable states are built from 1D factors, so the only
    full-grid pass is this one complex product.
    """
    return np.multiply(plane[:, :, None], line, dtype=np.complex128)


def _check_resolution(
    grid: GridSpec, omega: float, center: tuple[float, float, float] = (0.0, 0.0, 0.0)
) -> None:
    """Reject grids that cannot represent a trap Gaussian of scale ``1/sqrt(omega)``.

    Two requirements: the +-2 sigma core must span at least six grid
    cells, and the envelope must decay through at least four e-foldings
    between the state's center and the nearest box face.
    """
    sigma = 1.0 / np.sqrt(omega)
    if 4.0 * sigma < 6.0 * grid.h:
        raise ResolutionTooLow(
            f"grid.n: state core 4*sigma = {4 * sigma:.3g} spans fewer than six grid "
            f"cells (h = {grid.h:.3g}); refine the grid or shrink the box"
        )
    margin = grid.extent - max(abs(c) for c in center)
    if margin <= 0.0 or margin**2 < 8.0 * sigma**2:
        raise ResolutionTooLow(
            f"grid.extent: envelope decays only {max(margin, 0.0) ** 2 / (2 * sigma**2):.2f} "
            "e-foldings between the state center and the box face; "
            "at least four are required"
        )


def ground_state(grid: GridSpec, params: PhysicsParams) -> Field:
    """Normalized trap ground state ``(omega/pi)^(3/4) exp(-omega |x|^2 / 2)``.

    Rotation eigenvalue 0, generator eigenvalue ``3*omega/2``.
    """
    w = params.omega
    _check_resolution(grid, w)
    line = _gaussian_line(grid, w)
    return Field(grid, _outer((w / np.pi) ** 0.75 * np.outer(line, line), line))


def vortex_state(grid: GridSpec, params: PhysicsParams, charge: int = +1) -> Field:
    """Normalized single vortex ``sqrt(omega) (omega/pi)^(3/4) (x1 +/- i x2) exp(-omega |x|^2 / 2)``.

    ``charge = +1`` has rotation eigenvalue +1 and generator eigenvalue
    ``3*omega/2`` (the rotation term cancels one trap quantum);
    ``charge = -1`` has rotation eigenvalue -1 and generator eigenvalue
    ``7*omega/2``.
    """
    if charge not in (+1, -1):
        raise ValueError(f"vortex charge must be +1 or -1, got {charge}")
    w = params.omega
    _check_resolution(grid, w)
    line = _gaussian_line(grid, w)
    x = grid.axis
    plane = np.add.outer(x, 1j * charge * x) * np.outer(line, line)
    return Field(grid, _outer(np.sqrt(w) * (w / np.pi) ** 0.75 * plane, line))


#: The eigenstates among the named states: builder, and generator
#: eigenvalue in units of omega.
_EIGENSTATES = {
    "ground": (ground_state, 1.5),
    "vortex_plus": (partial(vortex_state, charge=+1), 1.5),
    "vortex_minus": (partial(vortex_state, charge=-1), 3.5),
}

STATE_KINDS = (*_EIGENSTATES, "coherent")


def coherent_state(
    grid: GridSpec,
    params: PhysicsParams,
    center: tuple[float, float, float],
    kick: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> Field:
    """Displaced, momentum-kicked ground state ``exp(i p.x) phi0(x - a)``."""
    a = np.asarray(center, dtype=float)
    p = np.asarray(kick, dtype=float)
    if a.shape != (3,) or p.shape != (3,):
        raise ValueError("center and kick must be 3-vectors")
    kmax = np.pi / grid.h
    if np.max(np.abs(p)) > 0.5 * kmax:
        raise ResolutionTooLow(
            f"initial.params.kick: coherent-state kick {p} exceeds half the"
            f" grid Nyquist wavenumber {kmax:.3g}"
        )
    w = params.omega
    _check_resolution(grid, w, tuple(a))
    # The kicked Gaussian is separable: one 1D factor per axis.
    f1, f2, f3 = (_gaussian_line(grid, w, a[j]) * np.exp(1j * p[j] * grid.axis) for j in range(3))
    return Field(grid, _outer((w / np.pi) ** 0.75 * np.outer(f1, f2), f3))


class SeededDraws:
    """Seeded uniform and standard normal draws from the standard library.

    The stream is ``random.Random(seed)`` (Mersenne Twister).  It offers
    the two draws the verify battery makes of a ``numpy.random.Generator``,
    ``uniform`` and ``standard_normal``, without importing
    ``numpy.random``, which loads ``secrets``, ``hashlib`` and OpenSSL
    into the process.  Its numbers differ from ``default_rng(seed)``'s.
    """

    def __init__(self, seed: int) -> None:
        self._random = random.Random(seed)

    def uniform(self, low: float, high: float) -> float:
        """One draw in ``[low, high)``."""
        x = low + (high - low) * self._random.random()
        return x if x < high else math.nextafter(high, low)  # rounding may reach high

    def standard_normal(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard normals of ``shape``, by Box-Muller on 53-bit uniforms.

        Each 64-bit word of ``randbytes`` gives a uniform in the open
        interval ``(0, 1)``, so the logarithm stays finite; a pair of
        uniforms gives two normals, the cosine and the sine branch.
        """
        size = int(np.prod(shape))
        pairs = (size + 1) // 2
        words = np.frombuffer(self._random.randbytes(16 * pairs), dtype="<u8")
        u = ((words >> 11) + 0.5) * 2.0**-53
        radius = np.sqrt(-2.0 * np.log(u[0::2]))
        angle = 2.0 * np.pi * u[1::2]
        out = np.empty((pairs, 2))
        out[:, 0] = radius * np.cos(angle)
        out[:, 1] = radius * np.sin(angle)
        return out.reshape(-1)[:size].reshape(shape)


def random_smooth_field(
    grid: GridSpec,
    rng: SeededDraws | np.random.Generator,
    width: float | None = None,
) -> Field:
    """Normalized random field: band-limited noise under a Gaussian envelope.

    The hard spectral cutoff is a third of the Nyquist wavenumber;
    ``width`` is the envelope scale (default: ``extent / 3``).  ``rng``
    is anything with a numpy-style ``standard_normal(shape)``, a
    :class:`SeededDraws` or a ``numpy.random.Generator``.  Deterministic
    for a given generator state.
    """
    n = grid.n
    # Rounded as written: at n = 24 and 48 a mode sits exactly on the cut.
    k_cut = (np.pi / grid.h) / 3.0
    if width is None:
        width = grid.extent / 3.0
    noise_hat = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    k = grid.freq
    mask = (
        (np.abs(k).reshape(n, 1, 1) <= k_cut)
        & (np.abs(k).reshape(1, n, 1) <= k_cut)
        & (np.abs(k).reshape(1, 1, n) <= k_cut)
    )
    data = np.fft.ifftn(noise_hat * mask, norm="ortho")
    data *= np.exp(-0.5 * grid.r2 / width**2)
    f = Field(grid, data)
    scale = lp_norm(f, 2)
    if scale == 0.0:
        raise ValueError("random field degenerated to zero")
    return Field(grid, f.data / scale)


def make_state(grid: GridSpec, params: PhysicsParams, kind: str, **kwargs) -> Field:
    """Build a named reference state (``ground``, ``vortex_plus``, ...)."""
    if kind in _EIGENSTATES:
        return _EIGENSTATES[kind][0](grid, params)
    if kind == "coherent":
        return coherent_state(
            grid,
            params,
            kwargs.get("center", (1.0, 0.0, 0.0)),
            kwargs.get("kick", (0.0, 0.0, 0.0)),
        )
    raise ValueError(f"unknown state kind {kind!r}; expected one of {STATE_KINDS}")


# --------------------------------------------------------------------------
# classical orbit and exact evolutions
# --------------------------------------------------------------------------


def classical_orbit(
    params: PhysicsParams,
    center: tuple[float, float, float],
    kick: tuple[float, float, float],
    times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form orbit of the rotating-frame Hamiltonian system for a point particle.

    Equations of motion (the rotation couples the transverse pairs)::

        q1' = p1 + omega*q2      p1' = -omega^2 q1 + omega*p2
        q2' = p2 - omega*q1      p2' = -omega^2 q2 - omega*p1
        q3' = p3                 p3' = -omega^2 q3

    together with the action integral ``theta' = (omega^2 |q|^2 - |p|^2)/2``
    that fixes the coherent state's global phase.  Per axis the lab-frame
    oscillator is ``Q = q0 cos(wt) + (p0/w) sin(wt)``,
    ``P = -w q0 sin(wt) + p0 cos(wt)``; the transverse pairs of ``Q`` and
    ``P`` are then rotated by ``-omega t``, which leaves the action
    integrand unchanged, so ``theta`` sums per axis
    ``(w^2 q0^2 - p0^2) sin(2wt)/(4w) + q0 p0 (1 - cos(2wt))/2``.
    Returns arrays ``q[len(times), 3]``, ``p[len(times), 3]``,
    ``theta[len(times)]``.
    """
    w = params.omega
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("times must be non-empty")
    if np.any(times < 0):
        raise ValueError("orbit times must be >= 0")
    q0 = np.asarray(center, dtype=float)
    p0 = np.asarray(kick, dtype=float)
    cos = np.cos(w * times)[:, None]
    sin = np.sin(w * times)[:, None]

    def turned(lab: np.ndarray) -> np.ndarray:
        """The transverse pair of a lab-frame orbit rotated by ``-omega t``."""
        out = lab.copy()
        out[:, 0:1] = cos * lab[:, 0:1] + sin * lab[:, 1:2]
        out[:, 1:2] = cos * lab[:, 1:2] - sin * lab[:, 0:1]
        return out

    q = turned(q0 * cos + (p0 / w) * sin)
    p = turned(p0 * cos - w * q0 * sin)
    two = 2.0 * w * times
    theta = (
        np.sum(w**2 * q0**2 - p0**2) * np.sin(two) / (4.0 * w)
        + np.sum(q0 * p0) * (1.0 - np.cos(two)) / 2.0
    )
    return q, p, theta


def exact_linear_evolution(
    grid: GridSpec,
    params: PhysicsParams,
    kind: str,
    t: float,
    center: tuple[float, float, float] = (1.0, 0.0, 0.0),
    kick: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> Field:
    """Closed-form solution of the linear flow at time ``t`` for a named state.

    Eigenstates pick up pure phases (``exp(-i*3*omega*t/2)`` for the
    ground state and the charge +1 vortex, ``exp(-i*7*omega*t/2)`` for
    the charge -1 vortex).  The coherent state follows its classical
    orbit with the ground-state phase times the integrated action.
    """
    w = params.omega
    if kind in _EIGENSTATES:
        build, energy = _EIGENSTATES[kind]
        return Field(grid, np.exp(-1j * energy * w * t) * build(grid, params).data)
    if kind == "coherent":
        q, p, theta = classical_orbit(params, center, kick, np.array([t]))
        moving = coherent_state(grid, params, tuple(q[0]), tuple(p[0]))
        return Field(grid, np.exp(-1.5j * w * t + 1j * theta[0]) * moving.data)
    raise ValueError(f"unknown state kind {kind!r}; expected one of {STATE_KINDS}")


# --------------------------------------------------------------------------
# brute-force generator, for residual checks
# --------------------------------------------------------------------------


def generator_apply(f: Field, params: PhysicsParams) -> Field:
    """Apply the linear generator ``(1/2)(-Lap + omega^2 |x|^2) - omega*Lz``."""
    grid = f.grid
    w = params.omega
    lap = laplacian_array(grid, f.data)
    d1, d2, _ = gradient_arrays(grid, f.data)
    lz = -1j * (grid.x1 * d2 - grid.x2 * d1)
    out = -0.5 * lap + 0.5 * w**2 * grid.r2 * f.data - w * lz
    return Field(grid, out)


def generator_expectation(f: Field, params: PhysicsParams) -> float:
    """Rayleigh quotient of the linear generator on ``f``."""
    hf = generator_apply(f, params)
    nrm = lp_norm(f, 2)
    return float(np.real(inner(f, hf)) / nrm**2)
