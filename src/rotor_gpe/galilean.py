"""Dressed Galilean operators adapted to the rotating trap.

In a resonantly rotating harmonic trap the usual Galilean generators
``-i grad`` and ``omega x`` are dressed by trigonometric rotation
factors.  With ``theta = omega*t`` and the twisted companions (the same
twist that appears in the propagator kernel's phase)::

    x_twist    = (-x2, x1, tan(theta/2) * x3)
    grad_twist = (-d2, d1, tan(theta/2) * d3)

the dressed momentum and dressed position act as::

    J(t) u = omega*sin(theta) * (cos(theta) x + sin(theta) x_twist) u
             - i*cos(theta)   * (cos(theta) grad + sin(theta) grad_twist) u
    H(t) u = omega*cos(theta) * (cos(theta) x + sin(theta) x_twist) u
             + i*sin(theta)   * (cos(theta) grad + sin(theta) grad_twist) u

so ``J(0) = -i grad`` and ``H(0) = omega x``.  Both intertwine with the
linear propagator: ``J(t) S(t) u0 = S(t) (-i grad u0)`` and
``H(t) S(t) u0 = S(t) (omega x u0)``.  In the third component the mixed
coefficient collapses by the half-angle identity,
``cos(theta) + sin(theta) tan(theta/2) = 1``, so the axial parts reduce
to the plain 1D harmonic generators
``J_3 = omega sin(theta) x3 - i cos(theta) d3`` and
``H_3 = omega cos(theta) x3 + i sin(theta) d3``, regular on the whole
window.

Each operator also factors through a quadratic chirp: with
``M(t) = exp(-i omega |x|^2 tan(theta)/2)`` and
``Q(t) = exp(+i omega |x|^2 cot(theta)/2)``::

    J(t) = -i cos(theta) * M(t) (cos(theta) grad + sin(theta) grad_rot) M(-t)
    H(t) = +i sin(theta) * Q(t) (cos(theta) grad + sin(theta) grad_rot) Q(-t)

The Q factorization does not exist at t = 0 (the cotangent diverges).

Only the third components fail to commute with the transverse rotation
structure; the resulting corrections are the axial defect operators::

    O_J(t) u = 2i omega^2 sin^2(theta) x3 u + 2 omega sin(theta) cos(theta) d3 u
    O_H(t) u = 2i omega^2 sin(theta) cos(theta) x3 u - 2 omega sin^2(theta) d3 u

which are exactly proportional to the third dressed components with one
shared constant: ``O_J = 2i omega sin(theta) J_3`` and
``O_H = 2i omega sin(theta) H_3``.
"""

from __future__ import annotations

import numpy as np

from .errors import QFactorizationSingular
from .grid import Field, GridSpec, PhysicsParams, _partial, gradient_arrays

__all__ = [
    "galilean_momentum",
    "galilean_position",
    "galilean_momentum_chirped",
    "galilean_position_chirped",
    "momentum_defect",
    "position_defect",
    "chirp_pair",
]


#: The partials ``(d1, d2, d3)`` of a field; a component may leave unread ones None.
_Partials = tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]


def _mixed_partial(
    c: float, s: float, derivs: _Partials, axis: int, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Component ``axis`` of ``(cos grad + sin grad_twist) f`` from the partials of ``f``.

    ``c, s = cos, sin(theta)``.  A transverse component (``c d1 - s d2``
    or ``c d2 + s d1``) is written into ``out``, which may be
    ``derivs[axis]``, through ``scratch``.  The axial coefficient
    ``cos + sin*tan(theta/2)`` is identically 1 (half-angle identity), so
    that component is ``d3`` itself.
    """
    if axis == 2:
        return derivs[2]
    np.multiply(s, derivs[1 - axis], out=scratch)
    np.multiply(c, derivs[axis], out=out)
    return (np.subtract if axis == 0 else np.add)(out, scratch, out=out)


def _dressed_component(
    f: Field, t: float, params: PhysicsParams, axis: int, derivs: _Partials, position: bool,
    out: np.ndarray, scratch: np.ndarray,
) -> np.ndarray:
    """Component ``axis`` of ``J(t) f``, or of ``H(t) f`` with ``position``, into ``out``.

    It mixes ``(cos x + sin x_twist) f`` with :func:`_mixed_partial`.
    ``out`` and ``scratch`` are complex arrays of the field's shape;
    ``scratch`` may be ``derivs[axis]``, which is then overwritten.
    """
    grid, u, w = f.grid, f.data, params.omega
    theta = w * t
    c, s = np.cos(theta), np.sin(theta)
    coord = (c * grid.x1 - s * grid.x2, c * grid.x2 + s * grid.x1, grid.x3)[axis]
    x_scale, d_scale = (w * c, 1j * s) if position else (w * s, 1j * c)
    np.multiply(d_scale, _mixed_partial(c, s, derivs, axis, scratch, out), out=scratch)
    np.multiply(coord, u, out=out)
    np.multiply(x_scale, out, out=out)
    return (np.add if position else np.subtract)(out, scratch, out=out)


def _dressed(f: Field, t: float, params: PhysicsParams, position: bool) -> tuple[Field, Field, Field]:
    """``J(t) f``, or ``H(t) f`` with ``position``: one :func:`_dressed_component` each."""
    u = f.data
    derivs, scratch = gradient_arrays(f.grid, u), np.empty_like(u)
    return tuple(
        Field(f.grid, _dressed_component(f, t, params, axis, derivs, position, np.empty_like(u), scratch))
        for axis in range(3)
    )


def galilean_momentum(f: Field, t: float, params: PhysicsParams) -> tuple[Field, Field, Field]:
    """Apply the dressed momentum ``J(t)`` componentwise."""
    return _dressed(f, t, params, position=False)


def galilean_position(f: Field, t: float, params: PhysicsParams) -> tuple[Field, Field, Field]:
    """Apply the dressed position ``H(t)`` componentwise."""
    return _dressed(f, t, params, position=True)


# --------------------------------------------------------------------------
# chirp factorizations
# --------------------------------------------------------------------------


def _chirp(grid: GridSpec, params: PhysicsParams, t: float, cotangent: bool) -> np.ndarray:
    """``Q(t)`` with ``cotangent``, else ``M(t)``, where its trigonometric ratio exists."""
    theta = params.omega * t
    s, c = np.sin(theta), np.cos(theta)
    if cotangent:
        if abs(s) < 1e-300:
            raise QFactorizationSingular(
                f"cotangent chirp undefined at t = {t!r} (sin(omega*t) = 0)"
            )
        return np.exp(+0.5j * params.omega * (c / s) * grid.r2)
    if abs(c) < 1e-300:
        raise ValueError(f"tangent chirp undefined at t = {t!r} (cos(omega*t) = 0)")
    return np.exp(-0.5j * params.omega * (s / c) * grid.r2)


def chirp_pair(grid: GridSpec, params: PhysicsParams, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic chirp multipliers ``(M(t), Q(t))`` on the grid.

    ``M(t) = exp(-i omega |x|^2 tan(omega t)/2)`` and
    ``Q(t) = exp(+i omega |x|^2 cot(omega t)/2)``.  Raises
    :class:`QFactorizationSingular` where the cotangent blows up
    (``sin(omega t) = 0``, in particular t = 0) and ``ValueError`` where
    the tangent does (``cos(omega t) = 0``).
    """
    return _chirp(grid, params, t, cotangent=False), _chirp(grid, params, t, cotangent=True)


def _chirped(f: Field, t: float, params: PhysicsParams, cotangent: bool) -> tuple[Field, Field, Field]:
    """``J(t) f`` through ``M(t)``, or ``H(t) f`` through ``Q(t)`` with ``cotangent``."""
    theta = params.omega * t
    c, s = np.cos(theta), np.sin(theta)
    chirp = _chirp(f.grid, params, t, cotangent)
    inner = np.conj(chirp) * f.data  # M(-t) f or Q(-t) f
    derivs, scratch = gradient_arrays(f.grid, inner), np.empty_like(inner)
    scale = 1j * s if cotangent else -1j * c
    return tuple(
        Field(f.grid, scale * chirp * _mixed_partial(c, s, derivs, axis, np.empty_like(inner), scratch))
        for axis in range(3)
    )


def galilean_momentum_chirped(f: Field, t: float, params: PhysicsParams) -> tuple[Field, Field, Field]:
    """Dressed momentum via the tangent-chirp factorization (regular at t = 0)."""
    return _chirped(f, t, params, cotangent=False)


def galilean_position_chirped(f: Field, t: float, params: PhysicsParams) -> tuple[Field, Field, Field]:
    """Dressed position via the cotangent-chirp factorization (singular at t = 0)."""
    return _chirped(f, t, params, cotangent=True)


# --------------------------------------------------------------------------
# axial defects
# --------------------------------------------------------------------------


def momentum_defect(f: Field, t: float, params: PhysicsParams) -> Field:
    """Axial commutator defect ``O_J(t)`` of the dressed momentum.

    Only the third component of ``J`` picks up a correction; this
    returns that scalar field,
    ``2i omega^2 sin^2(theta) x3 f + 2 omega sin(theta) cos(theta) d3 f``.
    """
    grid = f.grid
    w = params.omega
    theta = w * t
    c, s = np.cos(theta), np.sin(theta)
    d3 = _partial(grid, f.data, 2)
    return Field(grid, 2j * w**2 * s**2 * grid.x3 * f.data + 2.0 * w * s * c * d3)


def position_defect(f: Field, t: float, params: PhysicsParams) -> Field:
    """Axial commutator defect ``O_H(t)`` of the dressed position.

    Returns ``2i omega^2 sin(theta) cos(theta) x3 f - 2 omega sin^2(theta) d3 f``.
    """
    grid = f.grid
    w = params.omega
    theta = w * t
    c, s = np.cos(theta), np.sin(theta)
    return Field(
        grid,
        2j * w**2 * s * c * grid.x3 * f.data
        - 2.0 * w * s**2 * _partial(grid, f.data, 2),
    )
