"""Linear propagator backends for the resonantly rotating trap.

Two independent implementations of the same one-window flow operator:

* **oracle** -- dense quadrature of the closed-form integral kernel.
  With ``theta = omega*t``, ``cot = cos(theta)/sin(theta)`` and the
  rotated output coordinate ``x_rot = (-x2, x1, tan(theta/2) * x3)``
  the kernel is::

      K(x, y) = c(t) * exp(i omega (|x - y|^2 cot / 2 - x_rot . y))
      c(t)    = (omega / (2 pi sin(theta)))^(3/2) * exp(-3 i pi / 4)

  valid for ``0 < t <= pi/(4 omega)``.  The phase splits into a
  transverse part (harmonic-oscillator kernel times the rotation cross
  term ``x1 y2 - x2 y1``) plus an axial harmonic-oscillator kernel, so
  the quadrature contracts a transverse and an (n x n) axial kernel
  instead of an n^3 x n^3 monster.  With
  ``a(X, Y) = exp(i omega cot (X - Y)^2 / 2)`` the transverse kernel is
  ``a(X1,Y1) a(X2,Y2) exp(-i omega X1 Y2) exp(i omega X2 Y1)``, so it is
  applied from cached factors of ``(oversample n)^2 n`` entries each,
  ``4 n^5`` multiply-adds per application (default oversampling), and
  no array of ``n^4`` entries is ever built.
  The rectangle rule on the quadratic chirp aliases once the ghost
  images it creates (momentum-boosted copies at distance
  ``2 pi sin(omega t)/(omega h_q)`` for quadrature step ``h_q``)
  re-enter the box.  Two mitigations:
  the input is trig-interpolated onto an ``oversample``-times finer
  quadrature grid (exact for band-limited grid data, and folded into
  the cached kernel factors so applications stay O(n^5)), and a
  :class:`AliasRisk` warning fires when
  ``omega * cot(omega t) * extent * h_q`` still exceeds pi.  The dense
  quadrature is capped at ``n <= ORACLE_SIZE_CAP``.

* **fast** -- the flow factors into the non-rotating harmonic flow
  followed by a spatial rotation by ``omega*t`` about the x3 axis.  The
  isotropic trap makes the harmonic flow the tensor product of one
  (n x n) matrix with itself along the three axes: the exact flow
  ``exp(-i t H1) = V exp(-i t Lambda) V^T`` of the grid oscillator
  ``H1 = -D2/2 + omega^2 diag(x^2)/2``, where ``D2`` is the spectral
  second derivative (even symbol, Nyquist kept).  ``H1`` is real
  symmetric, so one cached eigendecomposition per ``(n, extent,
  omega)`` serves every time, and a time costs one n x n product
  (:func:`splitting_plan`).  An explicit substep count instead gives
  the Strang split of the same flow into kinetic/potential substeps,
  built by running the 1D composition on the identity.  The rotation is
  applied exactly on the grid by three FFT shears, in the sense the
  oracle's closed-form kernel fixes (the pattern turns clockwise,
  ``u(t, x) = v(t, R(omega t) x)``).  The two parts are exposed
  separately (:func:`harmonic_flow`, :func:`rotate_pattern`) so the
  nonlinear solvers can step in the co-rotating frame and rotate only
  the fields they observe.

The dual propagator (transpose under the unconjugated pairing
``sum(f*g)``) has the same kernel with the transverse rotation
reversed: both backends apply the flow conjugated by the swap
``x1 <-> x2``.  The oracle's quadrature is symmetric, so there this is
the literal matrix transpose of the forward kernel to rounding, and the
pairing identity holds to rounding at any oversampling.  The inverse
(Hermitian adjoint) is ``conj . dual . conj``.
Only the inverse composes as a semigroup; the forward/dual composition
instead contracts mass like ``sin(omega(t+s))^(-3/2)``, which is what
the dispersive scan measures.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    AliasRisk,
    GridTooLarge,
    InvalidExponent,
    WindowViolation,
)
from .grid import Field, GridSpec, PhysicsParams, lp_norm

__all__ = [
    "ORACLE_SIZE_CAP",
    "DEFAULT_OVERSAMPLE",
    "KernelMatrices",
    "kernel_matrices",
    "splitting_plan",
    "harmonic_flow",
    "propagate_oracle",
    "propagate_fast",
    "propagate_dual",
    "propagate_inverse",
    "compose_propagators",
    "DispersiveScan",
    "dispersive_scan",
    "default_scan_pairs",
    "strichartz_exponent",
    "strichartz_ratio",
]

ORACLE_SIZE_CAP = 24
#: default trig-interpolation refinement of the oracle quadrature grid
DEFAULT_OVERSAMPLE = 2

_BRANCH_1D = np.exp(-0.25j * np.pi)  # one Fresnel branch factor per axis


def _check_window(t: float, params: PhysicsParams) -> None:
    w = params.window
    if not (0.0 < t <= w * (1.0 + 1e-12)):
        raise WindowViolation(
            f"kernel time t = {t!r} outside the validity window (0, {w:.6g}]"
        )


def _alias_budget(grid: GridSpec, params: PhysicsParams, t: float, oversample: int) -> float | None:
    """``omega*cot(omega t)*extent*h_q`` where it exceeds pi (the quadrature aliases), else None.

    A budget past the float range is ``inf``, which aliases, without a warning.
    """
    theta = params.omega * t
    with np.errstate(over="ignore", divide="ignore"):
        cot = abs(np.cos(theta) / np.sin(theta))
        budget = params.omega * cot * grid.extent * (grid.h / oversample)
    return budget if budget > np.pi * (1.0 + 1e-12) else None


def _alias_guard(grid: GridSpec, params: PhysicsParams, t: float, oversample: int) -> None:
    budget = _alias_budget(grid, params, t, oversample)
    if budget is not None:
        # Name the first caller outside this module, however deep the entry point.
        level, frame = 1, sys._getframe()
        while frame is not None and frame.f_code.co_filename == __file__:
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"kernel chirp undersampled: omega*cot(omega t)*extent*h_q = {budget:.3f} > pi "
            f"at quadrature step h_q = h/{oversample}; quadrature ghosts enter the box "
            f"(n = {grid.n}, extent = {grid.extent}, t = {t:.4g})",
            AliasRisk,
            stacklevel=level,
        )


# --------------------------------------------------------------------------
# closed-form kernel matrices
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelMatrices:
    """Closed-form matrices entering the kernel and its compositions.

    ``a_matrix`` is the 3x3 matrix ``A(t)`` with
    ``A(t) x = cot(theta) x + x_twist(x)``, so the kernel phase reads
    ``omega (|x|^2 cot/2 - A(t)x . y + |y|^2 cot/2)``; its transverse
    block transposes to ``csc(theta) R(-theta)``.  ``tilde_scale`` is
    the axial coefficient of the twisted coordinate entering the kernel
    phase (``x_twist_3 = tilde_scale * x3``, equal to
    ``csc(theta) - cot(theta) = tan(theta/2)``).  When a second time ``s``
    is given, ``b_matrix`` is
    ``B(t, s) = (sin(omega s)/sin(omega t)) * blockdiag(R(omega(t-s)), 1)``,
    the coordinate map appearing in the forward/dual composition.
    """

    prefactor: complex
    tilde_scale: float
    a_matrix: np.ndarray = field(repr=False)
    b_matrix: np.ndarray | None = field(repr=False)


def kernel_matrices(t: float, params: PhysicsParams, s: float | None = None) -> KernelMatrices:
    """Evaluate the kernel's closed-form matrices at time ``t`` (and ``s``)."""
    _check_window(t, params)
    w = params.omega
    theta = w * t
    sin, cos = np.sin(theta), np.cos(theta)
    cot = cos / sin
    tilde = np.tan(0.5 * theta)  # csc(theta) - cot(theta)
    a = np.array(
        [
            [cot, -1.0, 0.0],
            [1.0, cot, 0.0],
            [0.0, 0.0, cot + tilde],  # equals csc(theta)
        ]
    )
    pref = (w / (2.0 * np.pi * sin)) ** 1.5 * np.exp(-0.75j * np.pi)
    b = None
    if s is not None:
        _check_window(s, params)
        phi = w * (t - s)
        scale = np.sin(w * s) / sin
        b = scale * np.array(
            [
                [np.cos(phi), -np.sin(phi), 0.0],
                [np.sin(phi), np.cos(phi), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
    return KernelMatrices(
        prefactor=complex(pref),
        tilde_scale=float(tilde),
        a_matrix=a,
        b_matrix=b,
    )


# --------------------------------------------------------------------------
# oracle backend: dense separable quadrature
# --------------------------------------------------------------------------


@lru_cache(maxsize=4)
def _interp_matrix(n: int, oversample: int) -> np.ndarray:
    """Trig-interpolation matrix (oversample*n, n) onto the refined axis.

    Exact on the band resolved by the coarse grid, with the Nyquist
    mode split symmetrically (the real, minimal-oscillation
    interpolant); rows reproduce the identity at the coarse points.
    """
    big = oversample * n
    modes = np.arange(-(n // 2), n // 2 + 1)
    weights = np.ones(modes.size)
    weights[0] = weights[-1] = 0.5
    u = (np.arange(big)[:, None] / oversample - np.arange(n)[None, :]) / n
    table = np.exp(2j * np.pi * modes[:, None, None] * u[None, :, :])
    out = np.tensordot(weights, table, axes=(0, 0)).real / n
    out.flags.writeable = False
    return out


@lru_cache(maxsize=1)
def _oracle_factors(
    n: int, extent: float, omega: float, t: float, oversample: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """1D factors ``(P, Q, restrict, k_axial)`` of the dense kernel, weights folded in.

    The kernel is sampled on a grid refined ``oversample`` times on
    *both* sides: the input index is preceded by trig interpolation
    (exact for band-limited grid data; pushes the rectangle rule's ghost
    images out of the box) and the output index is followed by the
    adjoint restriction ``restrict`` (fine, coarse), the band-limited
    projection back to the coarse grid.  Symmetry is what makes the
    dual, the swap-conjugated forward flow (:func:`_flow`), the literal
    transpose of this kernel: transposing swaps the interpolation and
    restriction (adjoints of each other) and reverses the sign of the
    antisymmetric rotation cross term, as the swap does -- so the dual is
    equally well-resolved and the bilinear pairing identity holds to
    rounding.

    The transverse kernel on the refined grid factors as
    ``a(X1,Y1) a(X2,Y2) exp(-i omega X1 Y2) exp(i omega X2 Y1)`` with
    ``a(X, Y) = exp(i omega cot (X - Y)^2 / 2)``.  The interpolation is
    folded into ``Y1`` against ``a(X1,Y1) exp(i omega X2 Y1)``, giving
    ``P[X1, X2, y1]``, and into ``Y2`` against
    ``a(X2,Y2) exp(-i omega X1 Y2)``, giving ``Q[X1, X2, y2]``; the
    transverse kernel is ``restrict`` over ``X1`` and ``X2`` of the
    outer product of ``P`` and ``Q``, which :func:`_oracle_apply` never
    forms.  ``k_axial`` is the (n x n) axial matrix.  ``P`` and ``Q``,
    8 coarse fields together at oversample 2 (1.8 MB at n = 24), are
    built one fine ``X1`` row at a time.  The cache keeps one time's
    factors: apply the kernel one time after another.
    """
    grid = GridSpec(n, extent)
    theta = omega * t
    sin, cos = np.sin(theta), np.cos(theta)
    cot = cos / sin
    half = np.tan(0.5 * theta)
    h_q = grid.h / oversample
    c1 = np.sqrt(omega / (2.0 * np.pi * sin)) * _BRANCH_1D
    big = oversample * n
    fine = -extent + h_q * np.arange(big)
    interp = _interp_matrix(n, oversample)  # (fine, coarse)
    restrict = interp / oversample

    chirp = (c1 * h_q) * np.exp(0.5j * omega * cot * np.subtract.outer(fine, fine) ** 2)
    cross = np.exp(1j * omega * np.multiply.outer(fine, fine))  # exp(i w X Y)
    p = np.empty((big, big, n), dtype=np.complex128)  # (X1, X2, y1)
    q = np.empty_like(p)  # (X1, X2, y2)
    row = np.empty((big, big), dtype=np.complex128)  # (X2, Y) of one fine X1 row
    for x1, (chirp_row, cross_row) in enumerate(zip(chirp, cross.conj())):
        np.matmul(np.multiply(chirp_row, cross, out=row), interp, out=p[x1])
        np.matmul(np.multiply(chirp, cross_row, out=row), interp, out=q[x1])

    xz, yz = fine[:, None], fine[None, :]
    phase_z = omega * (0.5 * cot * (xz - yz) ** 2 - half * xz * yz)
    k_axial = restrict.T @ ((c1 * h_q) * np.exp(1j * phase_z)) @ interp
    for factor in (p, q, restrict, k_axial):
        factor.flags.writeable = False
    return p, q, restrict, k_axial


def _oracle_apply(
    data: np.ndarray, factors: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """The dense kernel applied from its 1D factors (:func:`_oracle_factors`).

    The axial index is contracted first.  Then the fine ``X1`` rows go
    one at a time through buffers allocated once per call: per row ``Q``
    takes one product, ``P`` one batched row product and ``restrict``
    runs over ``X2``; one last product restricts ``X1``.  A row's ``Q``
    products fill ``oversample`` coarse fields.  No array of ``n^4``
    entries is built, and the ``Q`` products make the ``4 n^5``
    multiply-adds (default oversample) of an application, which peaks at
    about 14 coarse fields with its factor build (3.2 MB at n = 24).
    """
    p, q, restrict, k_axial = factors
    big, n = restrict.shape
    tmp = np.ascontiguousarray((data @ k_axial.T).transpose(1, 0, 2)).reshape(n, n * n)
    qt = np.empty((big, n * n), dtype=np.complex128)  # (X2, y1 z) of one fine X1 row
    pt = np.empty((big, 1, n), dtype=np.complex128)  # (X2, 1, z)
    restricted = np.empty((big, n, n), dtype=np.complex128)  # (X1, x2, z)
    for x1 in range(big):
        np.matmul(q[x1], tmp, out=qt)
        np.matmul(p[x1].reshape(big, 1, n), qt.reshape(big, n, n), out=pt)
        np.matmul(restrict.T, pt.reshape(big, n), out=restricted[x1])
    return (restrict.T @ restricted.reshape(big, n * n)).reshape(n, n, n)


# --------------------------------------------------------------------------
# fast backend: 1D harmonic matrices + exact shear rotation
# --------------------------------------------------------------------------


def _shear(
    data: np.ndarray, grid: GridSpec, amount: float, axis: int, out: np.ndarray
) -> np.ndarray:
    """Translate along ``x_(axis+1)`` by ``amount`` times the other transverse coordinate.

    Periodic and exact: one forward and one inverse transform along
    ``axis`` with a phase in between, written into ``out`` (which may be
    ``data``).  The phase multiplies one ``x1`` slab at a time: a
    broadcast product over the whole field takes a 128 KB iterator
    buffer, a quarter of a field at n = 32.
    """
    phase = np.exp(1j * np.outer(grid.freq, amount * grid.axis))  # (k, other x)
    if axis == 1:
        phase = phase.T
    np.fft.fft(data, axis=axis, norm="ortho", out=out)
    for slab, factor in zip(out, phase):
        slab *= factor[:, None]
    return np.fft.ifft(out, axis=axis, norm="ortho", out=out)


def rotate_pattern(grid: GridSpec, data: np.ndarray, angle: float, out: np.ndarray) -> np.ndarray:
    """Resample ``data`` as ``data(R_angle x)``, for any ``angle``.

    ``R_angle`` rotates the (x1, x2) coordinates counterclockwise by
    ``angle``, so the *pattern* turns clockwise.  The angle is split into
    ``q`` quarter turns and a remainder ``|angle - q pi/2| <= pi/4``.
    The remainder is a three-shear rotation, exact (unitary) for
    band-limited periodic data; a quarter turn maps the grid onto itself
    (``x -> -x`` is ``i -> -i mod n``), so it is an exact index
    permutation and four of them are the identity bit for bit.

    Every shear transforms in place and a quarter turn moves slabs, so a
    rotation by any angle needs one ``(n, n)`` slab of scratch at most.
    The result is written into ``out`` (a C-contiguous complex array of
    the field's shape, possibly ``data`` itself), which is returned, even
    at angle 0.
    """
    # Nearest whole number of quarter turns, ties (and angles a rounding
    # error past a tie) going to the shear: up to pi/4 is one shear.
    turns = angle / (0.5 * np.pi)
    quarters = int(np.copysign(max(np.ceil(abs(turns) - 0.5 - 1e-12), 0.0), turns))
    rest = angle - quarters * (0.5 * np.pi)
    if abs(rest) < 1e-15:
        np.copyto(out, data)
    else:
        a = -np.tan(0.5 * rest)
        _shear(data, grid, a, 0, out)
        _shear(out, grid, np.sin(rest), 1, out)
        _shear(out, grid, a, 0, out)
    for _ in range(quarters % 4):
        _quarter_turn(out)
    return out


def _quarter_turn(out: np.ndarray) -> None:
    """``out(x1, x2) <- out(-x2, x1)`` in place, through one ``(n, n)`` slab.

    A transpose of ``x1`` and ``x2`` by swapping the slabs on either side
    of the diagonal, then ``x2 -> -x2`` (index ``j <-> n - j``) one ``x1``
    slab at a time.  Every move is a copy, so the turn is an exact index
    permutation.
    """
    n = out.shape[0]
    slab = np.empty((n, n), dtype=np.complex128)
    for i in range(n - 1):
        rows = slab[: n - 1 - i]
        np.copyto(rows, out[i, i + 1 :])
        np.copyto(out[i, i + 1 :], out[i + 1 :, i])
        np.copyto(out[i + 1 :, i], rows)
    flip = -np.arange(n)  # "wrap" reads index -j as n - j, and leaves out unbuffered
    for plane in out:
        np.take(plane, flip, axis=0, mode="wrap", out=slab)
        np.copyto(plane, slab)


#: Largest field (bytes) that :func:`harmonic_flow` contracts leading
#: axis first: a 2 MB L2, the cache the phase slabs are cut for.
_FLOW_CYCLE_BYTES = 2**21


def harmonic_flow(
    mat: np.ndarray,
    data: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Non-rotating harmonic flow: the 1D matrix ``mat`` along each axis.

    ``mat`` is a :func:`splitting_plan` matrix.  This is the flow in the
    frame co-rotating with the trap; the same matrix acts on every axis,
    so it commutes with the dual's swap.  Each contraction is one matrix
    product that cycles the axis order, so three of them contract every
    axis and restore the order, with no transposing copy.  The cycle's
    direction is chosen by the field's size:

    - up to :data:`_FLOW_CYCLE_BYTES` (n <= 50), ``data.reshape(n,
      n^2).T @ mat.T``, written as an ``(n^2, n)`` array, contracts the
      leading axis and puts the result last.  It is the faster form there.
    - above it, ``mat @ data.reshape(n^2, n).T``, written as an ``(n,
      n^2)`` array, contracts the last axis and puts the result first.
      Every product then writes ``n`` rows, so BLAS packs only an ``n x
      n`` panel of its operands; the other form has it pack a ``K x n^2``
      panel, one whole field that stays resident in a buffer of its own.

    The products ping-pong between ``out`` and ``scratch`` (C-contiguous
    complex arrays of the field's shape; fresh ones when not given), and
    the result lands in ``out``.  ``data`` is read by the first product
    only, so ``scratch`` may be ``data`` (which is then overwritten);
    ``out`` must not be ``data``.
    """
    n = mat.shape[0]
    if out is None:
        out = np.empty((n, n, n), dtype=np.complex128)
    if scratch is None:
        scratch = np.empty_like(out)
    wide, tall = (n, n * n), (n * n, n)
    contract_last = out.nbytes > _FLOW_CYCLE_BYTES
    for src, dst in ((data, out), (out, scratch), (scratch, out)):
        if contract_last:
            np.matmul(mat, src.reshape(tall).T, out=dst.reshape(wide))
        else:
            np.matmul(src.reshape(wide).T, mat.T, out=dst.reshape(tall))
    return out


def splitting_plan(
    grid: GridSpec,
    params: PhysicsParams,
    t: float,
    substeps: int | None = None,
) -> np.ndarray:
    """The fast backend's 1D harmonic flow over ``t``, for :func:`harmonic_flow`.

    Without ``substeps`` this is the exact flow of the grid oscillator
    (:func:`_oscillator_modes`); with it, the Strang split of that flow
    into ``substeps`` kinetic/potential substeps.  The (n x n) matrix is
    cached and read-only; the forward flow and its dual share it.
    """
    _check_window(t, params)
    if substeps is not None:
        substeps = int(substeps)
        if substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {substeps}")
    return _harmonic_matrix(grid, params, float(t), substeps)


@lru_cache(maxsize=4)
def _oscillator_modes(grid: GridSpec, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of the 1D grid oscillator.

    ``H1 = -D2/2 + omega^2 diag(x^2)/2``, with ``D2`` the spectral second
    derivative of the kinetic substep (even symbol, Nyquist kept), built
    on the identity and symmetrized.  One Newton-Schulz step,
    ``V <- V (3 I - V^T V) / 2``, re-orthogonalizes ``eigh``'s
    eigenvectors: at n = 24 it takes the flow matrix's unitarity defect
    from 2.7e-15 to 4.4e-16, below a one-substep split's 8.9e-16.
    """
    n = grid.n
    d2 = np.fft.ifft(grid.freq[:, None] ** 2 * np.fft.fft(np.eye(n), axis=0), axis=0).real
    h1 = 0.5 * d2 + np.diag(0.5 * omega**2 * grid.axis**2)
    lam, vec = np.linalg.eigh(0.5 * (h1 + h1.T))
    vec = vec @ (1.5 * np.eye(n) - 0.5 * (vec.T @ vec))
    lam.flags.writeable = vec.flags.writeable = False
    return lam, vec


@lru_cache(maxsize=64)
def _harmonic_matrix(
    grid: GridSpec, params: PhysicsParams, t: float, substeps: int | None
) -> np.ndarray:
    """1D harmonic flow over ``t`` as an (n x n) matrix.

    Without ``substeps``, the exact flow ``V exp(-i t Lambda) V^T`` of
    the grid oscillator (:func:`_oscillator_modes`).  With it, the Strang
    split: the composition -- half potential, then ``substeps`` times
    (FFT, kinetic multiplier, inverse FFT, potential), the last potential
    being a half step -- applied to the identity column by column.
    Either way the 3D flow is exactly this matrix along each axis.
    """
    if substeps is None:
        lam, vec = _oscillator_modes(grid, params.omega)
        mat = (vec * np.exp(-1j * t * lam)) @ vec.T
    else:
        delta = t / substeps
        kin = np.exp(-0.5j * delta * grid.freq**2)[:, None]  # even symbol: Nyquist kept
        pot_half = np.exp(-0.25j * delta * params.omega**2 * grid.axis**2)[:, None]
        pot_full = pot_half**2
        mat = pot_half * np.eye(grid.n)
        for step in range(substeps):
            hat = kin * np.fft.fft(mat, axis=0, norm="ortho")
            pot = pot_full if step < substeps - 1 else pot_half
            mat = pot * np.fft.ifft(hat, axis=0, norm="ortho")
    mat.flags.writeable = False
    return mat


# --------------------------------------------------------------------------
# one entry path: the flow and its dual on either backend
# --------------------------------------------------------------------------


def _flow(
    f: Field,
    t: float,
    params: PhysicsParams,
    backend: str,
    substeps: int | None,
    oversample: int,
    dual: bool,
) -> Field:
    """The one-window flow, or its dual (:func:`propagate_dual`), on either backend."""
    _check_window(t, params)
    grid, n = f.grid, f.grid.n
    data = np.ascontiguousarray(np.swapaxes(f.data, 0, 1)) if dual else f.data
    if backend == "oracle":
        if n > ORACLE_SIZE_CAP:
            raise GridTooLarge(
                f"grid.n: kernel quadrature is O(n^5) and capped at n = {ORACLE_SIZE_CAP};"
                f" got n = {n}"
            )
        _alias_guard(grid, params, t, oversample)
        data = _oracle_apply(data, _oracle_factors(n, grid.extent, params.omega, t, int(oversample)))
    elif backend == "fast":
        data = harmonic_flow(splitting_plan(grid, params, t, substeps), data)
        data = rotate_pattern(grid, data, params.omega * t, out=data)
    else:
        raise ValueError(f"unknown backend {backend!r}; expected 'fast' or 'oracle'")
    return Field(grid, np.swapaxes(data, 0, 1) if dual else data)


def propagate_oracle(
    f: Field, t: float, params: PhysicsParams, oversample: int = DEFAULT_OVERSAMPLE
) -> Field:
    """One-window flow by dense quadrature of the closed-form kernel."""
    return _flow(f, t, params, "oracle", None, oversample, dual=False)


def propagate_fast(
    f: Field, t: float, params: PhysicsParams, substeps: int | None = None
) -> Field:
    """One-window flow: the 1D harmonic matrix along each axis plus a shear rotation."""
    return _flow(f, t, params, "fast", substeps, DEFAULT_OVERSAMPLE, dual=False)


def propagate_dual(
    f: Field,
    t: float,
    params: PhysicsParams,
    backend: str = "oracle",
    substeps: int | None = None,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> Field:
    """Transpose of the flow under the unconjugated pairing ``sum(f*g) h^3``.

    Continuum picture: the same kernel with the transverse rotation
    reversed.  Both backends realize the reversal by conjugating the
    forward flow with the swap ``x1 <-> x2`` (a reflection, which
    reverses rotations and commutes with the harmonic flow).  On the
    oracle backend, whose quadrature is symmetric, that is the literal
    transpose of the forward kernel to rounding, so the pairing identity
    holds to rounding.
    """
    return _flow(f, t, params, backend, substeps, oversample, dual=True)


def propagate_inverse(
    f: Field,
    t: float,
    params: PhysicsParams,
    backend: str = "oracle",
    substeps: int | None = None,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> Field:
    """Inverse (= Hermitian adjoint) of the flow: ``conj . dual . conj``."""
    g = Field(f.grid, np.conj(f.data))
    out = propagate_dual(g, t, params, backend=backend, substeps=substeps, oversample=oversample)
    return Field(f.grid, np.conj(out.data))


def compose_propagators(
    f: Field,
    t: float,
    s: float,
    params: PhysicsParams,
    variant: str = "dual",
    backend: str = "oracle",
    substeps: int | None = None,
    oversample: int = DEFAULT_OVERSAMPLE,
) -> Field:
    """Apply a two-step composition of one-window flows.

    ``variant="dual"``    : forward(t) after dual(s) -- the composition
    whose sup norm decays like ``sin(omega(t+s))^(-3/2)``; it is *not*
    a semigroup (at s = t it is a squared harmonic flow, not the
    identity).

    ``variant="inverse"`` : forward(t) after inverse(s), which *does*
    satisfy the semigroup law and equals the flow at ``t - s`` for
    ``s <= t``.
    """
    if variant == "dual":
        mid = propagate_dual(f, s, params, backend=backend, substeps=substeps, oversample=oversample)
    elif variant == "inverse":
        mid = propagate_inverse(f, s, params, backend=backend, substeps=substeps, oversample=oversample)
    else:
        raise ValueError(f"unknown variant {variant!r}; expected 'dual' or 'inverse'")
    return _flow(mid, t, params, backend, substeps, oversample, dual=False)


# --------------------------------------------------------------------------
# dispersive scan
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    t: float
    s: float
    ratio: float  # ||forward(t) dual(s) f||_inf / ||f||_1
    bound: float  # (omega / (pi sin(omega(t+s))))^(3/2)


@dataclass(frozen=True)
class DispersiveScan:
    """Measured dispersive decay of the forward-after-dual composition.

    ``slope_sum`` is the log-log slope of the ratio against ``t + s``
    (the physical decay variable); ``slope_diff`` the slope against
    ``t - s``, which is only meaningful as a foil -- for a battery
    mixing different s/t shapes it shows the large scatter that proves
    ``t - s`` is not the decay variable.
    """

    rows: tuple[ScanRow, ...]
    slope_sum: float
    residual_sum: float
    slope_diff: float
    residual_diff: float

    def max_bound_excess(self) -> float:
        """Largest ratio/bound across the battery (<= 1 means the bound holds)."""
        return max(r.ratio / r.bound for r in self.rows)


def default_scan_pairs(params: PhysicsParams) -> list[tuple[float, float]]:
    """Log-spaced ``(t, s)`` battery mixing two s/t shapes per decay time.

    Twelve totals ``t + s`` from ``0.06/omega`` to ``0.55/omega``
    alternate ``s = t/2`` and ``s = t/4``, so the total sweeps a decade
    while ``t - s`` decorrelates from it.
    """
    w = params.omega
    window = params.window
    taus = np.geomspace(0.06 / w, 0.55 / w, 12)
    pairs = []
    for i, tau in enumerate(taus):
        frac = 1.0 / 3.0 if i % 2 == 0 else 1.0 / 5.0  # s = frac * tau
        s = frac * tau
        t = tau - s
        if 0 < s <= window and 0 < t <= window:
            pairs.append((float(t), float(s)))
    return pairs


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope and rms residual of the least-squares line through ``(log x, log y)``."""
    lx, ly = np.log(x), np.log(y)
    coeffs = np.polyfit(lx, ly, 1)
    fitted = np.polyval(coeffs, lx)
    return float(coeffs[0]), float(np.sqrt(np.mean((ly - fitted) ** 2)))


def dispersive_scan(
    f: Field,
    params: PhysicsParams,
    pairs: list[tuple[float, float]],
    substeps: int | None = None,
) -> DispersiveScan:
    """Measure ``||forward(t) dual(s) f||_inf / ||f||_1`` over a (t, s) battery.

    The composition is :func:`compose_propagators` on the fast backend,
    with the harmonic flow split into ``substeps`` when given.
    """
    if len(pairs) < 3:
        raise ValueError("dispersive scan needs at least 3 (t, s) pairs")
    l1 = lp_norm(f, 1)
    w = params.omega
    rows = []
    for t, s in pairs:
        out = compose_propagators(f, t, s, params, backend="fast", substeps=substeps)
        ratio = lp_norm(out, np.inf) / l1
        bound = (w / (np.pi * np.sin(w * (t + s)))) ** 1.5
        rows.append(ScanRow(t=t, s=s, ratio=ratio, bound=bound))
    sums = np.array([r.t + r.s for r in rows])
    diffs = np.array([abs(r.t - r.s) for r in rows])
    ratios = np.array([r.ratio for r in rows])
    slope_sum, res_sum = _loglog_fit(sums, ratios)
    slope_diff, res_diff = _loglog_fit(diffs, ratios)
    return DispersiveScan(
        rows=tuple(rows),
        slope_sum=slope_sum,
        residual_sum=res_sum,
        slope_diff=slope_diff,
        residual_diff=res_diff,
    )


# --------------------------------------------------------------------------
# Strichartz quotients
# --------------------------------------------------------------------------


def strichartz_exponent(p: float) -> float:
    """Time exponent ``gamma`` paired with spatial exponent ``p``.

    Admissibility: ``2/gamma = 3*(1/2 - 1/p)`` with ``2 <= p < 6``;
    ``p = 2`` returns ``inf`` (the sup-in-time convention).
    """
    if not (2.0 <= p < 6.0):
        raise InvalidExponent(f"spatial exponent p must satisfy 2 <= p < 6, got {p}")
    if p == 2.0:
        return np.inf
    return 4.0 * p / (3.0 * (p - 2.0))


def strichartz_ratio(
    f: Field,
    params: PhysicsParams,
    times: np.ndarray,
    substeps: int | None = None,
) -> float:
    """Discrete Strichartz quotient of the fast linear flow on a time grid.

    ``(sum_i w_i ||flow(t_i) f||_4^gamma)^(1/gamma) / ||f||_2`` with
    trapezoid weights ``w_i`` on the given nodes, in the pair ``rho = 4``,
    ``gamma = 8/3`` of the paper's contraction.
    """
    gamma = strichartz_exponent(4.0)
    times = np.asarray(sorted(float(t) for t in times))
    if times.size < 2:
        raise ValueError("strichartz_ratio needs at least 2 time nodes")
    for t in times:
        _check_window(t, params)
    space_norms = np.empty(times.size)
    for i, t in enumerate(times):
        out = propagate_fast(f, float(t), params, substeps)
        space_norms[i] = lp_norm(out, 4.0)
    return float(np.trapezoid(space_norms**gamma, times) ** (1.0 / gamma)) / lp_norm(f, 2)
