"""Grid, field container, spectral calculus, and norm machinery."""

import tracemalloc

import numpy as np
import pytest

from rotor_gpe import (
    ConfigInvalid,
    Field,
    GridSpec,
    PhysicsParams,
    boundary_mass_fraction,
    coherent_state,
    gradient_arrays,
    inner,
    laplacian_array,
    lp_norm,
    pairing,
    record,
    spectral_gradient,
    vortex_state,
)
from rotor_gpe.grid import _moments, _partial


def gaussian(grid: GridSpec, width: float = 1.0) -> Field:
    """Unit-mass isotropic Gaussian used as a smooth reference profile."""
    amp = (1.0 / (np.pi * width**2)) ** 0.75
    return Field(grid, amp * np.exp(-grid.r2 / (2.0 * width**2)) + 0j)


# ---------------------------------------------------------------------------
# GridSpec geometry
# ---------------------------------------------------------------------------


def test_grid_geometry_basics():
    grid = GridSpec(8, 2.0)
    assert grid.h == pytest.approx(0.5)
    assert grid.shape == (8, 8, 8)
    assert grid.cell_volume == pytest.approx(0.125)
    assert grid.axis[0] == pytest.approx(-2.0)
    assert grid.axis[-1] == pytest.approx(2.0 - grid.h)
    assert grid.x1.shape == (8, 1, 1)
    assert grid.x2.shape == (1, 8, 1)
    assert grid.x3.shape == (1, 1, 8)
    assert grid.r2.shape == (8, 8, 8)


def test_grid_rejects_bad_sizes():
    with pytest.raises(ConfigInvalid):
        GridSpec(7, 2.0)  # odd
    with pytest.raises(ConfigInvalid):
        GridSpec(2, 2.0)  # too small
    with pytest.raises(ConfigInvalid):
        GridSpec(0, 2.0)
    with pytest.raises(ConfigInvalid):
        GridSpec(8, 0.0)
    with pytest.raises(ConfigInvalid):
        GridSpec(8, -1.0)
    with pytest.raises(ConfigInvalid):
        GridSpec(True, 2.0)  # bool is not a size


def test_frequencies_match_fftfreq_and_nyquist_handling():
    grid = GridSpec(16, 3.0)
    expected = 2.0 * np.pi * np.fft.fftfreq(16, d=grid.h)
    assert np.allclose(grid.freq, expected)
    # Even symbol keeps the Nyquist mode; odd symbol zeroes it.
    assert grid.freq[8] != 0.0
    assert grid.freq_odd[8] == 0.0
    assert np.allclose(grid.freq_odd[:8], grid.freq[:8])
    assert grid.k2[0, 0, 0] == 0.0
    assert grid.k2[0, 0, 1] == pytest.approx(grid.freq[1] ** 2)
    assert grid.k2[2, 3, 5] == pytest.approx(
        grid.freq[2] ** 2 + grid.freq[3] ** 2 + grid.freq[5] ** 2
    )


# ---------------------------------------------------------------------------
# Field container
# ---------------------------------------------------------------------------


def test_field_validates_shape_and_finiteness():
    grid = GridSpec(8, 2.0)
    with pytest.raises(ValueError):
        Field(grid, np.zeros((8, 8)))
    bad = np.zeros(grid.shape, dtype=complex)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(grid, bad)
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        Field(grid, bad)


def test_field_copies_and_coerces_dtype():
    grid = GridSpec(8, 2.0)
    raw = np.ones(grid.shape)  # real input
    f = Field(grid, raw)
    assert f.data.dtype == np.complex128
    raw[0, 0, 0] = 7.0
    assert f.data[0, 0, 0] == 1.0 + 0j  # constructor took a copy
    g = f.copy()
    assert g.data is not f.data
    assert np.array_equal(g.data, f.data)


# ---------------------------------------------------------------------------
# FFT and spectral derivatives
# ---------------------------------------------------------------------------


def test_gradient_exact_on_resolved_plane_wave():
    grid = GridSpec(16, 3.0)
    k = grid.freq[3]  # an exactly representable wavenumber
    phase = np.exp(1j * k * grid.x1) * np.ones(grid.shape)
    f = Field(grid, phase)
    d1, d2, d3 = gradient_arrays(grid, f.data)
    assert np.max(np.abs(d1 - 1j * k * f.data)) < 1e-12 * abs(k)
    assert np.max(np.abs(d2)) < 1e-12
    assert np.max(np.abs(d3)) < 1e-12


@pytest.mark.parametrize("n", [16, 48])
def test_one_axis_gradient_equals_the_3d_transform_reference(n):
    rng = np.random.default_rng(n)
    grid = GridSpec(n, 4.0)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    data_hat = np.fft.fftn(data)
    got = gradient_arrays(grid, data)
    for axis, shape in enumerate(((n, 1, 1), (1, n, 1), (1, 1, n))):
        ref = np.fft.ifftn(1j * grid.freq_odd.reshape(shape) * data_hat)
        assert np.max(np.abs(got[axis] - ref)) <= 1e-13 * np.max(np.abs(ref))


def _fft_partial(grid, data, axis):
    """The transform partial the matrix replaces: odd symbol, Nyquist zeroed."""
    shape = [1, 1, 1]
    shape[axis] = grid.n
    hat = np.fft.fft(data, axis=axis) * (1j * grid.freq_odd.reshape(shape))
    return np.fft.ifft(hat, axis=axis)


@pytest.mark.parametrize("n", [8, 16, 48])
def test_derivative_matrix_is_real_antisymmetric_and_kills_constants_and_nyquist(n):
    grid = GridSpec(n, 3.7)
    d = grid.derivative_matrix
    assert d.dtype == np.float64 and d.shape == (n, n)
    assert not d.flags.writeable
    assert d is grid.derivative_matrix  # cached
    assert np.array_equal(d, -d.T)
    scale = np.max(np.abs(d))
    assert np.max(np.abs(d @ np.ones(n))) <= 1e-13 * scale
    assert np.max(np.abs(d @ (-1.0) ** np.arange(n))) <= 1e-13 * scale
    # The closed form is the transform build F^-1 diag(i k_odd) F.
    built = np.fft.ifft(1j * grid.freq_odd[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    assert np.max(np.abs(built.imag)) <= 1e-13 * scale
    assert np.max(np.abs(d - built.real)) <= 1e-14 * scale


@pytest.mark.parametrize("n", [8, 16, 48])
def test_matrix_partial_equals_the_transform_partial_on_every_axis(n):
    rng = np.random.default_rng(100 + n)
    grid = GridSpec(n, 4.0)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    view = data.transpose(2, 0, 1)  # not C-contiguous
    out = np.empty(grid.shape, dtype=np.complex128)
    for axis in range(3):
        for source in (data, view):
            ref = _fft_partial(grid, source, axis)
            tol = 1e-13 * np.max(np.abs(ref))
            assert np.max(np.abs(_partial(grid, source, axis) - ref)) <= tol
            got = _partial(grid, source, axis, out=out)
            assert got is out
            assert np.max(np.abs(out - ref)) <= tol
    assert np.array_equal(view, data.transpose(2, 0, 1))  # input only read


@pytest.mark.parametrize("n", [16, 64])
def test_last_axis_partial_is_bit_equal_to_the_kron_product(n):
    # The complex product with D^T is the real product with kron(D^T, I_2)
    # on the float64 view, whose zero entries add nothing.
    rng = np.random.default_rng(200 + n)
    grid = GridSpec(n, 4.0)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    kron = np.kron(grid.derivative_matrix.T, np.eye(2))
    want = np.matmul(data.view(np.float64), kron).view(np.complex128)
    assert np.array_equal(_partial(grid, data, 2), want)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_a_partial_on_row_halves_is_bit_equal_to_the_whole(axis):
    rng = np.random.default_rng(300 + axis)
    grid = GridSpec(24, 4.0)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    whole = _partial(grid, data, axis)
    out = np.empty((12, 24, 24), dtype=np.complex128)
    for rows in (slice(0, 12), slice(12, 24)):
        assert _partial(grid, data, axis, out=out, rows=rows) is out
        assert np.array_equal(out, whole[rows])


def _fft_moments(grid, u):
    """Derivative moments of ``u`` from transform partials, summed directly."""
    vol = grid.cell_volume
    d = [_fft_partial(grid, u, axis) for axis in range(3)]
    xs = (grid.x1, grid.x2, grid.x3)
    return {
        "grad_sq": [float(np.sum(np.abs(dj) ** 2)) * vol for dj in d],
        "virial": [float(np.sum(np.conj(x * u) * dj).imag) * vol for x, dj in zip(xs, d)],
        "lz": complex(np.sum(np.conj(u) * -1j * (grid.x1 * d[1] - grid.x2 * d[0]))) * vol,
    }


@pytest.mark.parametrize("state", ["kicked_coherent", "vortex_plus"])
def test_moments_equal_the_transform_derivative_reference(state):
    grid = GridSpec(32, 8.0)
    params = PhysicsParams(omega=1.0, beta=1.0)
    if state == "kicked_coherent":
        u = coherent_state(grid, params, (1.0, 0.5, 0.3), (0.4, -0.3, 0.2))
    else:
        u = vortex_state(grid, params, +1)
    got = _moments(grid, u.data)
    want = _fft_moments(grid, u.data)
    for j in range(3):
        assert abs(got.grad_sq[j] - want["grad_sq"][j]) <= 1e-13 * want["grad_sq"][j]
        # Cauchy-Schwarz bounds the virial; it vanishes for the vortex.
        bound = np.sqrt(got.x_sq[j] * want["grad_sq"][j])
        assert abs(got.virial[j] - want["virial"][j]) <= 1e-13 * bound
    lz_bound = np.sqrt(got.x_sq[0] * want["grad_sq"][1]) + np.sqrt(got.x_sq[1] * want["grad_sq"][0])
    assert abs(got.lz - want["lz"]) <= 1e-13 * lz_bound


@pytest.mark.parametrize("n", [24, 48, 96])
def test_the_gram_x3_moments_match_sums_over_the_axial_partial(n):
    # ||d_3 u||^2 and Im <x_3 u, d_3 u> come from the Gram matrix U^H U,
    # not from d_3 u; on an off-axis kicked state they must match the
    # direct sums over the partial (measured 2.3e-14 and 5.1e-15 apart at
    # n = 48, and 8.6e-14 at n = 96, near the bound).
    grid = GridSpec(n, 8.0)
    u = coherent_state(grid, PhysicsParams(omega=1.0), (1.0, 0.5, 0.3), (0.4, -0.3, 0.2)).data
    got = _moments(grid, u)
    d3 = gradient_arrays(grid, u)[2]
    vol = grid.cell_volume
    grad3 = float(np.sum(np.abs(d3) ** 2)) * vol
    virial3 = float(np.sum(np.conj(grid.x3 * u) * d3).imag) * vol
    assert abs(got.grad_sq[2] - grad3) <= 1e-13 * grad3
    assert abs(got.virial[2] - virial3) <= 1e-13 * abs(virial3)


def test_a_moments_pass_with_its_workspace_peaks_below_a_fifth_of_a_field():
    # Each partial is one matrix product into half of ``real``, viewed as
    # complex once its sums are taken: no complex scratch and no transform
    # buffers (0.32 fields with the one-axis transforms).
    grid = GridSpec(32, 8.0)
    u = coherent_state(grid, PhysicsParams(omega=1.0), (1.0, 0.5, 0.3), (0.4, -0.3, 0.2)).data
    real = np.empty(grid.shape)
    _moments(grid, u, real=real)  # builds the cached matrices
    tracemalloc.start()
    try:
        _moments(grid, u, real=real)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * u.nbytes


def test_laplacian_matches_symbol_on_plane_wave():
    grid = GridSpec(16, 3.0)
    k1, k2 = grid.freq[2], grid.freq[5]
    wave = np.exp(1j * (k1 * grid.x1 + k2 * grid.x2)) * np.ones(grid.shape)
    lap = laplacian_array(grid, wave)
    assert np.max(np.abs(lap + (k1**2 + k2**2) * wave)) < 1e-10


def test_spectral_gradient_wraps_gradient_arrays():
    rng = np.random.default_rng(3)
    grid = GridSpec(12, 3.0)
    f = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    fields = spectral_gradient(f)
    arrays = gradient_arrays(grid, f.data)
    for fld, arr in zip(fields, arrays):
        assert fld.grid == grid
        assert np.array_equal(fld.data, arr)


def test_gradient_of_gaussian_matches_closed_form():
    grid = GridSpec(48, 6.0)
    w = 0.8
    f = gaussian(grid, width=w)
    d1, _, _ = gradient_arrays(grid, f.data)
    # d/dx1 exp(-r^2/(2 w^2)) = -(x1/w^2) exp(-r^2/(2 w^2))
    assert np.max(np.abs(d1 + grid.x1 / w**2 * f.data)) < 1e-10


# ---------------------------------------------------------------------------
# Norms, inner products, pairings
# ---------------------------------------------------------------------------


def test_gaussian_norms_match_closed_forms():
    grid = GridSpec(48, 6.0)
    w = 0.8  # narrow enough that box truncation sits below every tolerance
    f = gaussian(grid, width=w)
    # omega = beta = 1: e0_kin = ||grad f||^2 / 2, e0_pot = || |x| f ||^2 / 2
    # and e0_int = ||f||_4^4 / 2.
    rec = record(f, 0.0, PhysicsParams(omega=1.0, beta=1.0), 0.0)
    assert rec.mass == pytest.approx(1.0, abs=1e-10)
    # For f = (pi w^2)^(-3/4) exp(-r^2 / (2 w^2)):
    #   ||f||_1   = (4 pi)^(3/4) w^(3/2)
    #   ||f||_4^4 = (pi w^2)^(-3/2) 2^(-3/2)
    #   ||grad f||^2 = 3/(2 w^2),  || |x| f ||^2 = 3 w^2 / 2.
    assert lp_norm(f, 1) == pytest.approx((4.0 * np.pi) ** 0.75 * w**1.5, rel=1e-9)
    assert rec.e0_int == pytest.approx(0.5 * (np.pi * w**2) ** -1.5 * 2.0**-1.5, rel=1e-9)
    assert rec.linf == pytest.approx((np.pi * w**2) ** -0.75, rel=1e-12)
    assert rec.e0_kin == pytest.approx(0.75 / w**2, rel=1e-9)
    assert rec.e0_pot == pytest.approx(0.75 * w**2, rel=1e-9)
    # sigma = ||f||_H1 + || |x| f ||.
    h1 = np.sqrt(1.0 + 1.5 / w**2)
    assert rec.sigma_norm == pytest.approx(h1 + np.sqrt(1.5 * w**2), rel=1e-9)


def test_lp_norm_validates_exponent():
    grid = GridSpec(8, 2.0)
    f = gaussian(grid)
    with pytest.raises(ValueError):
        lp_norm(f, 0.0)
    with pytest.raises(ValueError):
        lp_norm(f, -2.0)
    assert lp_norm(f, np.inf) == pytest.approx(float(np.abs(f.data).max()))


def test_inner_is_hermitian_and_pairing_is_symmetric():
    rng = np.random.default_rng(7)
    grid = GridSpec(12, 3.0)
    for _ in range(5):
        f = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        g = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        assert inner(f, g) == pytest.approx(np.conj(inner(g, f)), abs=1e-12)
        assert pairing(f, g) == pytest.approx(pairing(g, f), abs=1e-12)
        # pairing(conj f, g) equals the Hermitian product <f, g>.
        fc = Field(grid, np.conj(f.data))
        assert pairing(fc, g) == pytest.approx(inner(f, g), abs=1e-12)
    with pytest.raises(ValueError):
        inner(f, gaussian(GridSpec(8, 3.0)))
    with pytest.raises(ValueError):
        pairing(f, gaussian(GridSpec(8, 3.0)))


@pytest.mark.parametrize("n", [16, 48])
def test_inner_equals_the_direct_conjugated_sum(n):
    grid = GridSpec(n, 6.0)
    f = Field(grid, np.exp(0.8j * grid.x2) * gaussian(grid, width=1.2).data)
    kick = np.exp(1j * (0.7 * grid.x1 - 0.4 * grid.x3))
    g = Field(grid, kick * gaussian(grid, width=0.9).data * (1.0 + 0.5 * grid.x2))
    want = np.sum(np.conj(f.data) * g.data) * grid.h**3
    assert abs(inner(f, g) - want) <= 1e-14 * abs(want)


def test_boundary_mass_fraction_detects_edge_mass():
    grid = GridSpec(32, 6.0)
    centered = gaussian(grid, width=0.8)
    assert boundary_mass_fraction(centered) < 1e-12
    # Slide the bump toward the face of the box: the edge fraction blows up.
    shifted = Field(grid, np.roll(centered.data, grid.n // 2 - 1, axis=0))
    assert boundary_mass_fraction(shifted) > 0.1
    zero = Field(grid, np.zeros(grid.shape))
    assert boundary_mass_fraction(zero) == 0.0


def test_boundary_mass_fraction_builds_one_real_temporary():
    # |f|^2 is squared in place in np.abs's output.  np.abs(f) ** 2 built
    # a second real field wherever numpy does not elide the temporary,
    # as below 256 KiB: 2.01 fields traced at n = 16, against 1.47 now
    # (one field and numpy's reduction buffer over the strided core).
    grid = GridSpec(16, 6.0)
    f = gaussian(grid, width=0.8)
    tracemalloc.start()
    try:
        boundary_mass_fraction(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 1.47 * 8 * grid.n**3


# ---------------------------------------------------------------------------
# Physics parameter container
# ---------------------------------------------------------------------------


def test_physics_params_validation_and_window():
    p = PhysicsParams(omega=1.0, beta=1.0)
    assert p.window == pytest.approx(np.pi / 4.0)
    p2 = PhysicsParams(omega=4.0, beta=0.0)
    assert p2.window == pytest.approx(np.pi / 16.0)
    with pytest.raises(ConfigInvalid):
        PhysicsParams(omega=0.5, beta=1.0)  # rotation speed below the trap floor
    with pytest.raises(ConfigInvalid):
        PhysicsParams(omega=1.0, beta=-0.5)  # focusing sign not admitted
