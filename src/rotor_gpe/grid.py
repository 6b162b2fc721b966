"""Periodic spectral grid, complex fields, and discrete calculus.

The computational domain is the cube ``[-extent, extent)^3`` sampled
uniformly with ``n`` points per axis (spacing ``h = 2*extent/n``).
Fields are C-ordered ``(n, n, n)`` complex arrays indexed ``(x1, x2,
x3)``, so the ``x3`` index varies fastest; this is also the on-disk
snapshot layout.  All integrals use the rectangle rule with weight
``h**3``, which is spectrally accurate for smooth periodic data.

Derivatives are spectral.  Odd symbols (single derivatives) zero the
Nyquist mode so that the discrete operator stays skew-adjoint; even
symbols (the Laplacian, phase multipliers) keep it.  A partial ``d_j``
is the real ``n x n`` matrix :attr:`GridSpec.derivative_matrix` applied
along axis ``j`` only: one matrix product, with no transform (on the
field's float64 view for the first two axes, with a cached complex
``D^T`` for the last).  A moments pass takes the partials into the
bytes of its real ``|u|^2`` array once that array's sums are taken, so
it needs no complex scratch.

Transforms are ``numpy.fft`` (pocketfft, one thread), so the package
imports nothing beyond numpy.  The functions on the Strang loop's hot
path take ``out=`` (and scratch) arrays, and ``solver.evolve`` steps
through one workspace per call, two complex arrays and a real one,
without allocating.  A function given ``out`` writes only there and
into the scratch it is given, never into its input unless its
docstring allows it; the caller never hands a workspace array to code
that keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigInvalid

__all__ = [
    "GridSpec",
    "Field",
    "PhysicsParams",
    "spectral_gradient",
    "gradient_arrays",
    "laplacian_array",
    "lp_norm",
    "inner",
    "pairing",
    "boundary_mass_fraction",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic cube ``[-extent, extent)^3`` with ``n`` points per axis.

    Parameters
    ----------
    n:
        Points per axis.  Must be even (so the Nyquist mode is
        unambiguous) and at least 4.
    extent:
        Half-width of the box.
    """

    n: int
    extent: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ConfigInvalid(f"grid.n: expected an integer, got {self.n!r}")
        if self.n < 4 or self.n % 2:
            raise ConfigInvalid(f"grid.n: expected an even integer >= 4, got {self.n}")
        extent = float(self.extent)
        if not np.isfinite(extent) or extent <= 0:
            raise ConfigInvalid(f"grid.extent: expected a positive length, got {self.extent!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "extent", extent)

    @property
    def h(self) -> float:
        """Grid spacing along each axis."""
        return 2.0 * self.extent / self.n

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def cell_volume(self) -> float:
        return self.h**3

    @cached_property
    def axis(self) -> np.ndarray:
        """Sample positions along one axis: ``-extent, ..., extent - h``."""
        out = -self.extent + self.h * np.arange(self.n)
        out.flags.writeable = False
        return out

    @cached_property
    def freq(self) -> np.ndarray:
        """Angular wavenumbers in FFT order, Nyquist included (negative)."""
        out = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)
        out.flags.writeable = False
        return out

    @cached_property
    def freq_odd(self) -> np.ndarray:
        """``freq`` with the Nyquist mode zeroed, for odd derivative symbols."""
        out = self.freq.copy()
        out[self.n // 2] = 0.0
        out.flags.writeable = False
        return out

    @cached_property
    def derivative_matrix(self) -> np.ndarray:
        """The spectral partial along one axis as a real ``n x n`` matrix.

        ``D = F^-1 diag(i freq_odd) F`` in closed form:
        ``D[j, l] = (pi / (2 extent)) (-1)^(j-l) cot(pi (j-l) / n)`` off the
        diagonal and 0 on it.  Its entries depend on ``(j - l) mod n``
        only, and ``d`` and ``n - d`` are given exactly opposite values
        (the ``d = n/2`` entry, whose cotangent vanishes, exactly 0), so
        ``D`` is exactly circulant and antisymmetric: the discrete partial
        is skew-adjoint bit for bit.  It agrees with the transform build
        to rounding.
        """
        n = self.n
        d = np.arange(1, n // 2)
        half = (np.pi / (2.0 * self.extent)) * np.where(d % 2, -1.0, 1.0) / np.tan(np.pi * d / n)
        column = np.concatenate(([0.0], half, [0.0], -half[::-1]))
        out = column[(np.arange(n)[:, None] - np.arange(n)) % n]
        out.flags.writeable = False
        return out

    @cached_property
    def _derivative_t(self) -> np.ndarray:
        """``D^T`` as a complex array: the last-axis partial as one product."""
        out = self.derivative_matrix.T.astype(np.complex128)
        out.flags.writeable = False
        return out

    # Broadcastable coordinate slabs: x1 varies along axis 0, etc.
    @cached_property
    def x1(self) -> np.ndarray:
        return self.axis.reshape(self.n, 1, 1)

    @cached_property
    def x2(self) -> np.ndarray:
        return self.axis.reshape(1, self.n, 1)

    @cached_property
    def x3(self) -> np.ndarray:
        return self.axis.reshape(1, 1, self.n)

    @cached_property
    def r2(self) -> np.ndarray:
        """``|x|^2`` on the full grid."""
        out = self.x1**2 + self.x2**2 + self.x3**2
        out.flags.writeable = False
        return out

    @cached_property
    def k2(self) -> np.ndarray:
        """``|k|^2`` on the full grid (even symbol: Nyquist kept)."""
        k = self.freq
        out = (k**2).reshape(self.n, 1, 1) + (k**2).reshape(1, self.n, 1) + (k**2).reshape(1, 1, self.n)
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class Field:
    """A complex scalar field sampled on a :class:`GridSpec`.

    The constructor copies/validates: data is coerced to a C-contiguous
    complex128 array of shape ``grid.shape`` and checked for NaN/Inf.
    """

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(self.data, dtype=np.complex128)
        if data.shape != self.grid.shape:
            raise ValueError(
                f"field data has shape {data.shape}, expected {self.grid.shape}"
            )
        # min and max propagate NaN, so both are finite exactly when every
        # entry is; unlike ``isfinite(...).all()`` they allocate nothing.
        flat = data.view(np.float64)
        if not (np.isfinite(flat.min()) and np.isfinite(flat.max())):
            raise ValueError("field data contains NaN or Inf amplitudes")
        object.__setattr__(self, "data", data)

    def copy(self) -> "Field":
        return Field(self.grid, self.data.copy())


@dataclass(frozen=True)
class PhysicsParams:
    """Trap frequency and interaction strength.

    The rotation rate is locked to the trap frequency ``omega`` -- that
    resonance is the whole point of this package -- so it is not a
    separate knob.  ``window`` is the half-open time interval on which
    the closed-form propagator kernel is valid.
    """

    omega: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        omega = float(self.omega)
        beta = float(self.beta)
        if not np.isfinite(omega) or omega < 1.0:
            raise ConfigInvalid(f"physics.omega: must be a finite number >= 1, got {self.omega!r}")
        if not np.isfinite(beta) or beta < 0.0:
            raise ConfigInvalid(f"physics.beta: must be a finite number >= 0, got {self.beta!r}")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "beta", beta)

    @property
    def window(self) -> float:
        """Length ``pi / (4*omega)`` of one kernel-validity window."""
        return np.pi / (4.0 * self.omega)


# --------------------------------------------------------------------------
# spectral calculus
# --------------------------------------------------------------------------


def _partial(
    grid: GridSpec,
    data: np.ndarray,
    axis: int,
    out: np.ndarray | None = None,
    rows: slice = slice(None),
) -> np.ndarray:
    """Spectral partial along ``axis``: one matrix product with ``D``.

    ``D`` (:attr:`GridSpec.derivative_matrix`) is real, so it acts on the
    real and imaginary parts alike.  Axes 0 and 1 run on the field's
    float64 view ``v`` of shape ``(n, n, 2n)``: ``D @ v`` as one
    ``(n, 2n^2)`` matrix for axis 0 and batched over ``x1`` for axis 1.
    Axis 2 is one complex product ``data.reshape(n^2, n) @ D^T`` with the
    cached complex ``D^T``, which is bit for bit the real product with
    ``kron(D^T, I_2)`` on the float64 view.  ``rows`` (a slice of ``x1``
    rows) selects those rows of the whole field's partial, and only they
    are computed.  A non-contiguous or non-complex ``data`` is
    first copied to a C-contiguous complex array.  Written into ``out``
    (a C-contiguous complex array of the selected rows' shape, not
    ``data``) when given, else into a fresh array.
    """
    n = grid.n
    data = np.ascontiguousarray(data, dtype=np.complex128)
    v = data.view(np.float64)
    if out is None:
        out = np.empty_like(data[rows])
    w = out.view(np.float64)
    if axis == 0:
        np.matmul(grid.derivative_matrix[rows], v.reshape(n, 2 * n * n), out=w.reshape(-1, 2 * n * n))
    elif axis == 1:
        np.matmul(grid.derivative_matrix, v[rows], out=w)
    else:
        np.matmul(data[rows].reshape(-1, n), grid._derivative_t, out=out.reshape(-1, n))
    return out


def gradient_arrays(
    grid: GridSpec, data: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spectral partial derivatives ``(d1, d2, d3)`` as raw arrays.

    Each partial ``d_j`` is :func:`_partial` along axis ``j``: one real
    matrix product with :attr:`GridSpec.derivative_matrix`, which equals
    ``ifftn(i k_j fftn(data))`` (odd symbol, Nyquist zeroed) to rounding
    with no transform at all.
    """
    return tuple(_partial(grid, data, axis) for axis in range(3))


def laplacian_array(grid: GridSpec, data: np.ndarray) -> np.ndarray:
    """Spectral Laplacian as a raw array (even symbol: Nyquist kept)."""
    return np.fft.ifftn(-grid.k2 * np.fft.fftn(data, norm="ortho"), norm="ortho")


def spectral_gradient(f: Field) -> tuple[Field, Field, Field]:
    """Spectral gradient ``(d_1 f, d_2 f, d_3 f)`` of a field."""
    d1, d2, d3 = gradient_arrays(f.grid, f.data)
    return Field(f.grid, d1), Field(f.grid, d2), Field(f.grid, d3)


# --------------------------------------------------------------------------
# norms and pairings
# --------------------------------------------------------------------------


def lp_norm(f: Field, p: float) -> float:
    """Discrete Lebesgue norm with weight ``h^3``; ``p = inf`` for the sup."""
    if p == np.inf:
        return float(np.abs(f.data).max())
    if p <= 0:
        raise ValueError(f"lp_norm: p must be positive or inf, got {p}")
    absdata = np.abs(f.data)
    return float((np.sum(absdata**p) * f.grid.cell_volume) ** (1.0 / p))


def _sum_sq(a: np.ndarray) -> float:
    """``sum(|a|^2)`` of a C-contiguous complex array, unweighted.

    Summed by ``einsum`` over the float64 view: ``np.linalg.norm`` and
    ``np.vdot`` go to threaded BLAS dots, which can stall.
    """
    flat = a.view(np.float64).ravel()
    return float(np.einsum("i,i->", flat, flat))


class _Moments(NamedTuple):
    """``h^3``-weighted grid moments of a field ``u`` and its gradient.

    Per axis ``j`` (0-based): ``x_sq[j] = ||x_j u||^2``,
    ``grad_sq[j] = ||d_j u||^2`` and ``virial[j] = Im <x_j u, d_j u>``,
    with ``d_j`` the spectral partial of :func:`gradient_arrays`;
    ``lz = <u, Lz u>`` with ``Lz = -i (x1 d2 - x2 d1)`` (Hermitian up to
    rounding, so its imaginary part is a numerical defect).
    """

    mass: float
    l4_4: float
    linf: float
    x_sq: tuple[float, float, float]
    grad_sq: tuple[float, float, float]
    virial: tuple[float, float, float]
    lz: complex


def _axial_moments(grid: GridSpec, u: np.ndarray, scratch: np.ndarray) -> tuple[float, float]:
    """``sum |d_3 u|^2`` and ``Im sum x_3 conj(u) d_3 u``, unweighted, from one Gram product.

    With ``U`` the field's ``(n^2, n)`` rows, both are sums over the
    ``n x n`` Gram matrix ``C = U^H U``: ``sum (D^T D) o Re C`` and
    ``sum_k x_k sum_l D[k, l] Im C[k, l]``, with ``D`` the
    derivative matrix.  ``C`` comes from one real product ``G = F^T F``
    of the rows' float64 view ``F``, ``(n^2, 2n)``: ``Re C`` is the sum
    of its even-even and odd-odd entries, ``Im C`` its even-odd minus
    odd-even ones.  ``G`` is written into the bytes of ``scratch``, a
    C-contiguous float array of at least ``4 n^2`` elements.
    """
    n, dmat = grid.n, grid.derivative_matrix
    flat = np.ascontiguousarray(u, dtype=np.complex128).reshape(n * n, n).view(np.float64)
    gram = np.matmul(flat.T, flat, out=scratch.reshape(-1)[: 4 * n * n].reshape(2 * n, 2 * n))
    even, odd = slice(0, None, 2), slice(1, None, 2)

    def dot(a: np.ndarray, rows: slice, cols: slice) -> float:
        return float(np.einsum("ij,ij->", a, gram[rows, cols]))

    dtd = dmat.T @ dmat
    weighted = grid.axis[:, None] * dmat
    return (
        dot(dtd, even, even) + dot(dtd, odd, odd),
        dot(weighted, even, odd) - dot(weighted, odd, even),
    )


def _moments(grid: GridSpec, u: np.ndarray, real: np.ndarray | None = None) -> _Moments:
    """One gradient and a handful of fused reductions: see :class:`_Moments`.

    Every energy, norm and balance-law quantity of the package is a
    combination of these numbers.  ``|u|^2`` is written into ``real`` (a
    C-contiguous float array of the field's shape; a fresh one when not
    given) and its sums are taken first.  ``real`` is then free.  The
    ``x3`` terms come from one Gram product written into its bytes
    (:func:`_axial_moments`), with no partial.  Then those bytes, viewed
    as a complex array of half the field's ``x1`` rows, take the partials
    ``d_1`` and ``d_2`` (:func:`_partial`, one matrix product, no
    transform) in two row halves.  So the pass needs no complex scratch,
    and ``u`` is only read.  The coordinate-weighted sums contract
    ``u conj(d_j)`` over ``x3`` (``einsum``, with ``d_j`` conjugated in
    place) and then weight the remaining ``n x n`` partial sums by the
    1D axis, so no weighted or conjugated copy of the field is built;
    the reductions make no threaded BLAS call, the partials and the Gram
    product one each.
    """
    n, vol = grid.n, grid.cell_volume
    ax = grid.axis
    abs2 = np.abs(u, out=real)
    abs2 *= abs2
    mass = float(abs2.sum()) * vol
    l4_4 = float(np.einsum("ijk,ijk->", abs2, abs2)) * vol
    linf = float(np.sqrt(abs2.max()))
    x_sq = tuple(float(np.einsum(f"ijk,{x}->", abs2, ax**2)) * vol for x in "ijk")
    grad3, virial3 = _axial_moments(grid, u, abs2)

    # Sums of conj(u) d_j over x3 for j = 1, 2 (indexed by x1, x2), one
    # half of the x1 rows at a time.
    half = n // 2
    slab = abs2.view(np.complex128).reshape(half, n, n)
    p1, p2 = np.empty((2, n, n), dtype=np.complex128)
    grad_sq = []
    for axis, p in enumerate((p1, p2)):
        total = 0.0
        for rows in (slice(0, half), slice(half, n)):
            d = _partial(grid, u, axis, out=slab, rows=rows)
            total += _sum_sq(d)
            np.conjugate(d, out=d)
            np.einsum("ijk,ijk->ij", u[rows], d, out=p[rows])
        grad_sq.append(total * vol)
    for p in (p1, p2):
        np.conjugate(p, out=p)
    virial = (ax @ p1.sum(1), ax @ p2.sum(0))
    lz = -1j * (ax @ p2.sum(1) - ax @ p1.sum(0))

    return _Moments(
        mass=mass,
        l4_4=l4_4,
        linf=linf,
        x_sq=x_sq,
        grad_sq=(*grad_sq, grad3 * vol),
        virial=(*(float(v.imag) * vol for v in virial), virial3 * vol),
        lz=complex(lz) * vol,
    )


def inner(f: Field, g: Field) -> complex:
    """Hermitian inner product ``sum(conj(f) * g) * h^3`` (conjugate-linear in f).

    Summed by ``einsum``, as in :func:`_moments`: ``np.vdot`` goes to a
    threaded BLAS ``zdotc``, about 50x slower at n = 48.
    """
    if f.grid != g.grid:
        raise ValueError("inner: fields live on different grids")
    return complex(np.einsum("ijk,ijk->", np.conj(f.data), g.data) * f.grid.cell_volume)


def pairing(f: Field, g: Field) -> complex:
    """Bilinear (unconjugated) pairing ``sum(f * g) * h^3``.

    This is the pairing under which the dual propagator is the
    transpose of the forward one; it is *not* the Hermitian inner
    product.
    """
    if f.grid != g.grid:
        raise ValueError("pairing: fields live on different grids")
    return complex(np.sum(f.data * g.data) * f.grid.cell_volume)


def boundary_mass_fraction(f: Field, real: np.ndarray | None = None) -> float:
    """Fraction of ``||f||^2`` within two grid cells of the box boundary
    (the band the solver's truncation guard reads; all of an n = 4 box).

    ``|f|^2`` is written into ``real`` (a C-contiguous float array of the
    field's shape, overwritten; one real temporary when not given)."""
    n = f.grid.n
    abs2 = np.abs(f.data, out=real)
    abs2 *= abs2
    total = float(abs2.sum())
    if total == 0.0:
        return 0.0
    core = abs2[2 : n - 2, 2 : n - 2, 2 : n - 2]
    return float(1.0 - core.sum() / total)
