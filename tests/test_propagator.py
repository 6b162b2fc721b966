"""Linear propagator backends: kernel algebra, unitarity, duality, decay."""

import functools
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as sfft

from rotor_gpe import (
    AliasRisk,
    DEFAULT_OVERSAMPLE,
    Field,
    GridSpec,
    GridTooLarge,
    InvalidExponent,
    ORACLE_SIZE_CAP,
    PhysicsParams,
    WindowViolation,
    coherent_state,
    compose_propagators,
    default_scan_pairs,
    dispersive_scan,
    exact_linear_evolution,
    ground_state,
    kernel_matrices,
    lp_norm,
    pairing,
    propagate_dual,
    propagate_fast,
    propagate_inverse,
    propagate_oracle,
    random_smooth_field,
    strichartz_exponent,
    strichartz_ratio,
    vortex_state,
)
from rotor_gpe.propagator import (
    _BRANCH_1D,
    _harmonic_matrix,
    _interp_matrix,
    _oracle_factors,
    harmonic_flow,
    rotate_pattern,
    splitting_plan,
)

OGRID = GridSpec(24, 6.0)  # quadrature-backend reference geometry
PARAMS = PhysicsParams(omega=1.0, beta=0.0)
WINDOW = PARAMS.window


def rel_l2(f: Field, g: Field) -> float:
    return float(np.linalg.norm(f.data - g.data) / np.linalg.norm(g.data))


def smooth(rng, grid=OGRID) -> Field:
    return random_smooth_field(grid, rng, width=grid.extent / 6.0)


# ---------------------------------------------------------------------------
# kernel matrix algebra
# ---------------------------------------------------------------------------


def test_kernel_matrix_identities_hold_across_the_window():
    rng = np.random.default_rng(101)
    w = 1.7
    params = PhysicsParams(omega=w, beta=0.0)
    for _ in range(60):
        t = float(rng.uniform(0.05, 1.0)) * params.window
        s = float(rng.uniform(0.05, 1.0)) * params.window
        km = kernel_matrices(t, params, s=s)
        theta = w * t
        # Chirp scale of the left factorization.
        assert km.tilde_scale == pytest.approx(np.tan(theta / 2.0), abs=1e-14)
        # Transverse phase-mixing block: A_perp^T A_perp = csc^2(theta) I.
        a_perp = km.a_matrix[:2, :2]
        gram = a_perp.T @ a_perp
        csc2 = 1.0 / np.sin(theta) ** 2
        assert np.max(np.abs(gram - csc2 * np.eye(2))) < 1e-12 * csc2
        assert km.a_matrix[2, 2] == pytest.approx(1.0 / np.sin(theta), rel=1e-13)
        assert np.max(np.abs(km.a_matrix[:2, 2])) == 0.0
        assert np.max(np.abs(km.a_matrix[2, :2])) == 0.0
        # Two-time block: B_perp B_perp^T = (sin(w s)/sin(w t))^2 I.
        ratio = np.sin(w * s) / np.sin(w * t)
        b_perp = km.b_matrix[:2, :2]
        assert np.max(np.abs(b_perp @ b_perp.T - ratio**2 * np.eye(2))) < 1e-12 * max(
            ratio**2, 1.0
        )
        assert km.b_matrix[2, 2] == pytest.approx(ratio, rel=1e-13)
        # Kernel amplitude.
        expected_amp = (w / (2.0 * np.pi * np.sin(theta))) ** 1.5
        assert abs(km.prefactor) == pytest.approx(expected_amp, rel=1e-12)


def test_kernel_matrices_reject_out_of_window_times():
    with pytest.raises(WindowViolation):
        kernel_matrices(0.0, PARAMS)
    with pytest.raises(WindowViolation):
        kernel_matrices(WINDOW * 1.01, PARAMS)
    with pytest.raises(WindowViolation):
        kernel_matrices(-0.1, PARAMS)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


def test_oracle_rejects_large_grids_and_bad_times():
    big = GridSpec(ORACLE_SIZE_CAP + 2, 6.0)
    f = Field(big, np.zeros(big.shape))
    with pytest.raises(GridTooLarge):
        propagate_oracle(f, 0.6, PARAMS)
    g = ground_state(OGRID, PARAMS)
    with pytest.raises(WindowViolation):
        propagate_oracle(g, 0.0, PARAMS)
    with pytest.raises(WindowViolation):
        propagate_oracle(g, WINDOW + 1e-3, PARAMS)


@pytest.mark.parametrize(
    "apply, calls",
    [
        (propagate_oracle, 1),
        (functools.partial(propagate_dual, backend="oracle"), 1),
        (propagate_inverse, 1),
        (lambda f, t, params: compose_propagators(f, t, 0.9 * t, params), 2),
    ],
    ids=[
        "propagate_oracle",
        "propagate_dual",
        "propagate_inverse",
        "compose_propagators",
    ],
)
def test_alias_guard_warns_on_undersampled_quadrature(apply, calls):
    # Early times steepen the kernel chirp; a coarse wide box cannot sample
    # it: omega*cot(omega t)*extent*h_q crosses pi and the oracle warns,
    # once per kernel application, naming the line that called the propagator.
    coarse = GridSpec(16, 8.0)
    f = Field(coarse, np.exp(-coarse.r2) + 0j)
    with pytest.warns(AliasRisk) as caught:
        apply(f, 0.3, PARAMS)
    assert [w.filename for w in caught] == [__file__] * calls
    # The reference geometry at mid-window times is clean: no warning.
    g = ground_state(OGRID, PARAMS)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AliasRisk)
        apply(g, 0.6, PARAMS)


# ---------------------------------------------------------------------------
# oracle kernel factors
# ---------------------------------------------------------------------------


def _sampled_kernel_tables(n, extent, omega, t, oversample):
    """Transverse and axial oracle tables from the kernel sampled on the refined grid.

    Samples ``K[X1, X2, Y1, Y2]`` as one (oversample*n)^4 array, then folds
    the interpolation into the input indices and the restriction into the
    output indices by four contractions; the axial kernel is sampled and
    folded the same way.
    """
    grid = GridSpec(n, extent)
    theta = omega * t
    cot = np.cos(theta) / np.sin(theta)
    h_q = grid.h / oversample
    c1 = np.sqrt(omega / (2.0 * np.pi * np.sin(theta))) * _BRANCH_1D
    fine = -extent + h_q * np.arange(oversample * n)
    interp = _interp_matrix(n, oversample)
    restrict = interp / oversample
    big = fine.size
    x1 = fine.reshape(big, 1, 1, 1)
    x2 = fine.reshape(1, big, 1, 1)
    y1 = fine.reshape(1, 1, big, 1)
    y2 = fine.reshape(1, 1, 1, big)
    phase = omega * (0.5 * cot * ((x1 - y1) ** 2 + (x2 - y2) ** 2) - (x1 * y2 - x2 * y1))
    k = (c1**2 * h_q**2) * np.exp(1j * phase)
    k = np.tensordot(k, interp, axes=([2], [0]))  # (X1, X2, Y2, y1)
    k = np.tensordot(k, interp, axes=([2], [0]))  # (X1, X2, y1, y2)
    k = np.tensordot(k, restrict, axes=([0], [0]))  # (X2, y1, y2, x1)
    k = np.tensordot(k, restrict, axes=([0], [0]))  # (y1, y2, x1, x2)
    transverse = k.transpose(2, 3, 0, 1).reshape(n * n, n * n)
    xz, yz = fine[:, None], fine[None, :]
    phase_z = omega * (0.5 * cot * (xz - yz) ** 2 - np.tan(0.5 * theta) * xz * yz)
    axial = restrict.T @ ((c1 * h_q) * np.exp(1j * phase_z)) @ interp
    return transverse, axial


@pytest.mark.parametrize("oversample", [2, 3])
@pytest.mark.parametrize("n", [8, 12])
def test_factored_oracle_tables_equal_the_sampled_kernel(n, oversample):
    # The factored applications, forward and dual, against the sampled
    # kernel applied densely: the dual is its literal transpose.
    grid = GridSpec(n, 6.0)
    rng = np.random.default_rng(n + oversample)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = Field(grid, data)
    for t in (0.55, WINDOW):
        transverse, axial = _sampled_kernel_tables(n, 6.0, PARAMS.omega, t, oversample)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AliasRisk)
            forward = propagate_oracle(f, t, PARAMS, oversample=oversample).data
            dual = propagate_dual(f, t, PARAMS, backend="oracle", oversample=oversample).data
        want = (transverse @ (data @ axial.T).reshape(n * n, n)).reshape(grid.shape)
        assert np.max(np.abs(forward - want)) <= 1e-13 * np.max(np.abs(want))
        want = (transverse.T @ (data @ axial).reshape(n * n, n)).reshape(grid.shape)
        assert np.max(np.abs(dual - want)) <= 1e-13 * np.max(np.abs(want))


def _oracle_application_peak(grid, dual):
    """``tracemalloc`` peak of one oracle application at t = 0.55, its factor build included."""
    g = ground_state(grid, PARAMS)
    _oracle_factors.cache_clear()
    tracemalloc.start()
    try:
        propagate_dual(g, 0.55, PARAMS, backend="oracle") if dual else propagate_oracle(g, 0.55, PARAMS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("dual", [False, True], ids=["forward", "dual"])
def test_oracle_table_build_never_holds_the_sampled_kernel(dual):
    # The sampled (2n)^4 kernel alone is 85 MB at n = 24, and a transverse
    # table built from P (x) Q peaks at 34 MB; one application from the
    # 1D factors, their build included, stays far below either.
    assert _oracle_application_peak(OGRID, dual) < 16e6


@pytest.mark.parametrize("dual", [False, True], ids=["forward", "dual"])
def test_an_oracle_application_at_n24_peaks_below_4_mb(dual):
    # The factors are 8 coarse fields (1.8 MB), built one fine X1 row at a
    # time, and the slab buffer takes about two coarse fields: 3.2 MB
    # forward and 3.4 MB dual.  Two (2n)^3 build temporaries and an
    # 8-row slab (3.5 MB) made 6.4 MB.
    assert _oracle_application_peak(OGRID, dual) < 4e6


@pytest.mark.parametrize("dual", [False, True], ids=["forward", "dual"])
def test_an_oracle_application_at_n32_peaks_below_9_mb(monkeypatch, dual):
    # The working set scales with n^3 (7.5 MB forward, 8.0 MB dual; 15.0 MB
    # with the 8-row slab), so the cap can rise without an n^4 buffer.
    monkeypatch.setattr("rotor_gpe.propagator.ORACLE_SIZE_CAP", 32)
    assert _oracle_application_peak(GridSpec(32, 7.0), dual) < 9e6


# ---------------------------------------------------------------------------
# unitarity
# ---------------------------------------------------------------------------


def test_oracle_preserves_mass_on_smooth_fields():
    rng = np.random.default_rng(5)
    for t in (0.55, WINDOW):
        for _ in range(2):
            f = smooth(rng)
            out = propagate_oracle(f, t, PARAMS)
            assert abs(lp_norm(out, 2) - 1.0) < 1e-6


def test_fast_backend_is_unitary_to_rounding():
    rng = np.random.default_rng(6)
    grid = GridSpec(32, 6.0)
    for t in (0.2, 0.5, WINDOW):
        f = random_smooth_field(grid, rng, width=grid.extent / 6.0)
        out = propagate_fast(f, t, PARAMS)
        assert abs(lp_norm(out, 2) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# closed-form referees
# ---------------------------------------------------------------------------


def test_oracle_reproduces_eigenstate_phases():
    t = 0.6
    for kind, state in (("ground", ground_state(OGRID, PARAMS)),
                        ("vortex_plus", vortex_state(OGRID, PARAMS, +1))):
        got = propagate_oracle(state, t, PARAMS)
        want = exact_linear_evolution(OGRID, PARAMS, kind, t)
        assert rel_l2(got, want) < 1e-5


def test_oracle_follows_the_coherent_orbit():
    center, kick = (1.0, 0.0, 0.0), (0.0, 0.3, 0.0)
    t = 0.6
    u0 = exact_linear_evolution(OGRID, PARAMS, "coherent", 0.0, center, kick)
    got = propagate_oracle(u0, t, PARAMS)
    want = exact_linear_evolution(OGRID, PARAMS, "coherent", t, center, kick)
    assert rel_l2(got, want) < 1e-5


def test_fast_matches_oracle_on_eigenstates():
    # Cross-backend agreement: quadrature kernel vs split-step spectral.
    t = 0.6
    for state in (ground_state(OGRID, PARAMS), vortex_state(OGRID, PARAMS, +1)):
        fast = propagate_fast(state, t, PARAMS, 512)
        oracle = propagate_oracle(state, t, PARAMS)
        assert rel_l2(fast, oracle) < 1e-6


def test_propagate_dispatch_validates_backend():
    g = ground_state(OGRID, PARAMS)
    with pytest.raises(ValueError):
        propagate_dual(g, 0.6, PARAMS, backend="magic")
    a = propagate_dual(g, 0.6, PARAMS, backend="oracle")
    swapped = Field(OGRID, np.ascontiguousarray(np.swapaxes(g.data, 0, 1)))
    b = propagate_oracle(swapped, 0.6, PARAMS)
    assert np.array_equal(a.data, np.swapaxes(b.data, 0, 1))


# ---------------------------------------------------------------------------
# duality, inverse, semigroup
# ---------------------------------------------------------------------------


def test_oracle_dual_is_the_exact_transpose():
    rng = np.random.default_rng(9)
    t = 0.55
    for _ in range(4):
        f, g = smooth(rng), smooth(rng)
        lhs = pairing(propagate_oracle(f, t, PARAMS), g)
        rhs = pairing(f, propagate_dual(g, t, PARAMS))
        scale = lp_norm(f, 2) * lp_norm(g, 2)
        assert abs(lhs - rhs) < 1e-12 * scale


def test_fast_dual_pairs_to_a_spectral_floor():
    rng = np.random.default_rng(10)
    t = 0.5
    for _ in range(3):
        f, g = smooth(rng), smooth(rng)
        lhs = pairing(propagate_fast(f, t, PARAMS), g)
        rhs = pairing(f, propagate_dual(g, t, PARAMS, backend="fast"))
        # The swap-conjugate dual matches the forward transpose up to the
        # spectral tail of the band-limited data, not to rounding.
        assert abs(lhs - rhs) < 1e-7


def test_inverse_undoes_the_flow_on_concentrated_states():
    # Strong-norm accuracy of the transpose-built inverse is set by the
    # data's spectral tail, so the roundtrip referee uses spectrally
    # concentrated states (broadband noise has an honest ~1e-4 floor).
    t = 0.6
    g = ground_state(OGRID, PARAMS)
    out = propagate_inverse(propagate_oracle(g, t, PARAMS), t, PARAMS)
    assert rel_l2(out, g) < 1e-6
    out = propagate_inverse(
        propagate_fast(g, t, PARAMS, 64), t, PARAMS, backend="fast", substeps=64
    )
    assert rel_l2(out, g) < 1e-6


def test_semigroup_composition_matches_single_step():
    # forward(t) after inverse(s) must equal the flow at t - s.
    t, s = 0.775, 0.39
    for u in (ground_state(OGRID, PARAMS), vortex_state(OGRID, PARAMS, +1)):
        composed = compose_propagators(u, t, s, PARAMS, variant="inverse", oversample=3)
        direct = propagate_oracle(u, t - s, PARAMS, oversample=3)
        assert rel_l2(composed, direct) < 1e-6


def test_inverse_composition_approaches_identity_linearly():
    # S(t) S^{-1}(t - delta) = S(delta) -> identity at first order in delta.
    # A coherent state keeps the O(delta) term far above spectral floors.
    # (The *dual* composition does not do this: at s = t it is a squared
    # flow, not the identity -- that is what makes its decay scan nontrivial.)
    grid = GridSpec(32, 6.0)
    f = exact_linear_evolution(grid, PARAMS, "coherent", 0.0, (1.0, 0.0, 0.0), (0.0, 0.5, 0.0))
    t = 0.6
    errs = []
    for delta in (4e-3, 2e-3, 1e-3):
        out = compose_propagators(
            f, t, t - delta, PARAMS, variant="inverse", backend="fast", substeps=64
        )
        errs.append(rel_l2(out, f))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert 0.8 < rate1 < 1.2
    assert 0.8 < rate2 < 1.2


def test_dual_composition_at_equal_times_is_not_the_identity():
    # The transpose composition S(t) S^T(t) is a genuine squared flow.
    g = ground_state(OGRID, PARAMS)
    out = compose_propagators(g, 0.6, 0.6, PARAMS, variant="dual", backend="fast", substeps=64)
    assert rel_l2(out, g) > 0.5


def test_compose_rejects_unknown_variant():
    g = ground_state(OGRID, PARAMS)
    with pytest.raises(ValueError):
        compose_propagators(g, 0.6, 0.3, PARAMS, variant="adjoint")


# ---------------------------------------------------------------------------
# fast backend internals
# ---------------------------------------------------------------------------


def test_fast_rotation_sense_matches_the_oracle():
    # A charge +1 vortex picks up a different phase under the flow with the
    # rotation reversed, so the oracle tells the two senses apart by an O(1)
    # margin even at a small substep count.
    t = 0.6
    u = vortex_state(OGRID, PARAMS, +1)
    oracle = propagate_oracle(u, t, PARAMS)
    mat = splitting_plan(OGRID, PARAMS, t, substeps=4)

    def flow(angle):
        lab = rotate_pattern(OGRID, harmonic_flow(mat, u.data), angle, out=np.empty_like(u.data))
        return Field(OGRID, lab)

    assert np.array_equal(flow(PARAMS.omega * t).data, propagate_fast(u, t, PARAMS, 4).data)
    err = rel_l2(flow(PARAMS.omega * t), oracle)
    err_flipped = rel_l2(flow(-PARAMS.omega * t), oracle)
    assert err < 1e-2
    assert err < 1e-2 * err_flipped


@pytest.mark.parametrize("angle", [0.3, 1.2, 2.0, -2.5, 4.0])
def test_rotation_by_any_angle_equals_composed_rotations_of_at_most_an_eighth_turn(angle):
    # Quarter turns plus a shear rotation of at most pi/4 against a chain
    # of shear rotations of at most pi/4.  The two agree to rounding where
    # the field is resolved and far from the box faces; at n = 32 a unit
    # Gaussian's box and band tails leave gaps of 1e-9 to 1e-7, so the
    # check runs at n = 64, extent 10 (measured <= 1.5e-15).
    grid = GridSpec(64, 10.0)
    u = coherent_state(grid, PARAMS, center=(1.0, 0.5, 0.2), kick=(0.3, -0.5, 0.2)).data
    pieces = int(np.ceil(abs(angle) / (0.25 * np.pi)))
    want = u
    for _ in range(pieces):
        want = rotate_pattern(grid, want, angle / pieces, out=np.empty_like(u))
    got = rotate_pattern(grid, u, angle, out=np.empty_like(u))
    assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-12
    in_place = u.copy()
    assert rotate_pattern(grid, in_place, angle, out=in_place) is in_place
    assert np.array_equal(in_place, got)


def test_a_quarter_turn_is_an_index_permutation():
    # The pattern turns clockwise: a packet centred at (1, 0.5) moves to
    # (0.5, -1).  Four quarter turns are the identity bit for bit.
    grid = GridSpec(32, 8.0)
    n = grid.n
    u = coherent_state(grid, PARAMS, center=(1.0, 0.5, 0.2), kick=(0.3, -0.5, 0.2)).data
    turned = rotate_pattern(grid, u, 0.5 * np.pi, out=np.empty_like(u))
    assert np.array_equal(turned, np.swapaxes(u, 0, 1)[:, (-np.arange(n)) % n])
    density = np.abs(turned) ** 2
    centre = [float(np.sum(density * x) / np.sum(density)) for x in (grid.x1, grid.x2)]
    assert centre == pytest.approx([0.5, -1.0], abs=1e-9)
    data = u.copy()
    for _ in range(4):
        rotate_pattern(grid, data, 0.5 * np.pi, out=data)
    assert np.array_equal(data, u)
    whole = rotate_pattern(grid, u, -2.0 * np.pi, out=np.empty_like(u))
    assert np.array_equal(whole, u) and not np.shares_memory(whole, u)


def test_a_quarter_turn_in_place_needs_no_field_of_scratch():
    # Past pi/4 the rotation takes a quarter turn; it moves slabs in place
    # (an overlapping gather buffered two fields here).
    grid = GridSpec(32, 8.0)
    a = coherent_state(grid, PARAMS, center=(1.0, 0.5, 0.2), kick=(0.3, -0.5, 0.2)).data
    rotate_pattern(grid, a, 2.0, out=a)
    tracemalloc.start()
    try:
        rotate_pattern(grid, a, 2.0, out=a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * a.nbytes


def _split_step_reference(grid, params, data, t, m, reverse):
    """The 3D Strang split-step loop: m x (FFT, kinetic, inverse FFT, potential)."""
    n = grid.n
    delta = t / m
    kin = np.exp(-0.5j * delta * grid.freq**2)
    pot_half = np.exp(-0.25j * delta * params.omega**2 * grid.axis**2)

    def mult3(arr, ph):
        return arr * ph.reshape(n, 1, 1) * ph.reshape(1, n, 1) * ph.reshape(1, 1, n)

    if reverse:
        data = np.swapaxes(data, 0, 1)
    data = mult3(data, pot_half)
    for step in range(m):
        hat = mult3(sfft.fftn(data, norm="ortho"), kin)
        data = sfft.ifftn(hat, norm="ortho")
        data = mult3(data, pot_half**2 if step < m - 1 else pot_half)
    lab = np.empty(data.shape, dtype=np.complex128)
    data = rotate_pattern(grid, data, params.omega * t, out=lab)
    if reverse:
        data = np.swapaxes(data, 0, 1)
    return data


@pytest.mark.parametrize("m", [1, 7, 64])
def test_axis_matrix_flow_equals_the_split_step_loop(m):
    grid = GridSpec(16, 5.0)
    f = random_smooth_field(grid, np.random.default_rng(13), width=grid.extent / 6.0)
    t = 0.55
    for reverse in (False, True):
        if reverse:
            got = propagate_dual(f, t, PARAMS, backend="fast", substeps=m)
        else:
            got = propagate_fast(f, t, PARAMS, substeps=m)
        want = _split_step_reference(grid, PARAMS, f.data, t, m, reverse)
        assert np.linalg.norm(got.data - want) / np.linalg.norm(want) < 1e-13


def test_a_fast_forward_and_dual_build_one_matrix():
    # The dual is the forward flow conjugated with a swap of x1 and x2, and
    # the swap commutes with the harmonic flow: one matrix serves both.
    f = random_smooth_field(GridSpec(16, 5.0), np.random.default_rng(15), width=1.0)
    t = 0.4321  # a time no other test builds a matrix for
    before = _harmonic_matrix.cache_info().misses
    propagate_fast(f, t, PARAMS, 11)
    propagate_dual(f, t, PARAMS, backend="fast", substeps=11)
    propagate_inverse(f, t, PARAMS, backend="fast", substeps=11)
    assert _harmonic_matrix.cache_info().misses == before + 1


# ---------------------------------------------------------------------------
# the exact harmonic flow (the default matrix)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind, t", [("ground", WINDOW), ("vortex_plus", 0.6)])
def test_default_flow_meets_the_closed_form_to_the_grid_floor(kind, t):
    # The Strang split at its old default (64 substeps per window) read
    # 1.79e-5 (ground) and 1.92e-5 (vortex) here; the exact flow of the
    # grid oscillator 8.2e-13 and 9.7e-13.
    grid = GridSpec(48, 8.0)
    u0 = exact_linear_evolution(grid, PARAMS, kind, 0.0)
    got = propagate_fast(u0, t, PARAMS)
    assert rel_l2(got, exact_linear_evolution(grid, PARAMS, kind, t)) <= 1e-11


@pytest.mark.parametrize("n, extent", [(24, 6.0), (64, 8.0)])
def test_default_matrix_is_unitary_to_rounding(n, extent):
    mat = splitting_plan(GridSpec(n, extent), PARAMS, 0.6)
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(n))) <= 2e-15


def test_default_forward_and_dual_flows_are_swap_conjugates():
    grid = GridSpec(16, 5.0)
    f = random_smooth_field(grid, np.random.default_rng(16), width=1.0)
    t = 0.55
    swapped = Field(grid, np.ascontiguousarray(np.swapaxes(f.data, 0, 1)))
    want = np.swapaxes(propagate_fast(swapped, t, PARAMS).data, 0, 1)
    assert np.array_equal(propagate_dual(f, t, PARAMS, backend="fast").data, want)


def _strang_split_matrix(grid, params, t, substeps):
    """The Strang-split 1D flow by the loop the exact flow replaced as default."""
    delta = t / substeps
    kin = np.exp(-0.5j * delta * grid.freq**2)[:, None]
    pot_half = np.exp(-0.25j * delta * params.omega**2 * grid.axis**2)[:, None]
    pot_full = pot_half**2
    mat = pot_half * np.eye(grid.n)
    for step in range(substeps):
        hat = kin * np.fft.fft(mat, axis=0, norm="ortho")
        pot = pot_full if step < substeps - 1 else pot_half
        mat = pot * np.fft.ifft(hat, axis=0, norm="ortho")
    return mat


@pytest.mark.parametrize("m", [1, 7, 64])
def test_an_explicit_substep_count_keeps_the_split_matrix_bit_for_bit(m):
    grid = GridSpec(24, 6.0)
    mat = splitting_plan(grid, PARAMS, 0.45, m)
    assert np.array_equal(mat, _strang_split_matrix(grid, PARAMS, 0.45, m))
    assert not np.array_equal(mat, splitting_plan(grid, PARAMS, 0.45))


def test_default_matrix_is_byte_identical_across_processes():
    import rotor_gpe

    src = str(Path(rotor_gpe.__file__).resolve().parent.parent)
    script = (
        f"import sys, hashlib; sys.path.insert(0, {src!r});"
        " from rotor_gpe import GridSpec, PhysicsParams;"
        " from rotor_gpe.propagator import splitting_plan;"
        " mat = splitting_plan(GridSpec(24, 6.0), PhysicsParams(omega=1.0), 0.3);"
        " print(hashlib.sha1(mat.tobytes()).hexdigest())"
    )
    digests = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout
        for _ in range(2)
    ]
    assert len(digests[0].strip()) == 40
    assert digests[0] == digests[1]


def _transposing_copy_flow(mat, data):
    """The harmonic flow as two leading-axis products, two transposing
    copies and a last-axis product: the contraction the axis-cycling
    products replaced."""
    n = mat.shape[0]
    out, scratch = np.empty_like(data), np.empty_like(data)
    wide, tall = (n, n * n), (n * n, n)
    np.matmul(mat, data.reshape(wide), out=out.reshape(wide))
    np.copyto(scratch, out.transpose(1, 0, 2))
    np.matmul(mat, scratch.reshape(wide), out=out.reshape(wide))
    np.copyto(scratch, out.transpose(1, 0, 2))
    np.matmul(scratch.reshape(tall), mat.T, out=out.reshape(tall))
    return out


@pytest.mark.parametrize("n", [16, 24, 48])
def test_harmonic_flow_is_bit_equal_to_the_transposing_copy_loop(n):
    grid = GridSpec(n, 5.0)
    rng = np.random.default_rng(20 + n)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    bits = data.copy()
    for m in (1, 7, 64):
        mat = splitting_plan(grid, PARAMS, 0.3, m)
        want = _transposing_copy_flow(mat, data)
        assert np.array_equal(harmonic_flow(mat, data), want)
        out, scratch = np.empty_like(data), np.empty_like(data)
        assert harmonic_flow(mat, data, out=out, scratch=scratch) is out
        assert np.array_equal(out, want)
        assert np.array_equal(data, bits)  # read only
        # scratch may be the input, which is then overwritten
        assert np.array_equal(harmonic_flow(mat, bits.copy(), out=out, scratch=scratch), want)
        spent = bits.copy()
        assert np.array_equal(harmonic_flow(mat, spent, out=out, scratch=spent), want)


def test_harmonic_flow_equals_a_three_axis_einsum():
    grid = GridSpec(24, 5.0)
    rng = np.random.default_rng(31)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    mat = splitting_plan(grid, PARAMS, 0.45, 5)
    want = np.einsum("ai,bj,ck,ijk->abc", mat, mat, mat, data, optimize=True)
    got = harmonic_flow(mat, data)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _flow_products(monkeypatch, mat, data):
    """The ``(a, b, out)`` shapes of every ``np.matmul`` of one harmonic flow."""
    shapes, matmul = [], np.matmul

    def spy(a, b, out):
        shapes.append((a.shape, b.shape, out.shape))
        return matmul(a, b, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(np, "matmul", spy)
        harmonic_flow(mat, data)
    return shapes


@pytest.mark.parametrize("n", [48, 64])
def test_harmonic_flow_writes_n_rows_per_product_past_two_mebibytes(monkeypatch, n):
    # Up to 2 MiB (n <= 50) a product contracts the leading axis and
    # writes n^2 rows; past it, the last axis, and writes n rows, so BLAS
    # packs an n x n panel and no whole field of its own.
    grid = GridSpec(n, 5.0)
    data = np.zeros(grid.shape, dtype=np.complex128)
    mat = splitting_plan(grid, PARAMS, 0.3, 3)
    if n == 64:
        want = ((n, n), (n, n * n), (n, n * n))
    else:
        want = ((n * n, n), (n, n), (n * n, n))
    assert _flow_products(monkeypatch, mat, data) == [want] * 3


def test_harmonic_flow_past_two_mebibytes_keeps_its_workspace_contract():
    grid = GridSpec(64, 5.0)
    rng = np.random.default_rng(64)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    bits = data.copy()
    mat = splitting_plan(grid, PARAMS, 0.45, 5)
    want = np.einsum("ai,bj,ck,ijk->abc", mat, mat, mat, data, optimize=True)
    got = harmonic_flow(mat, data)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    out, scratch = np.empty_like(data), np.empty_like(data)
    assert harmonic_flow(mat, data, out=out, scratch=scratch) is out
    assert np.array_equal(out, got)
    assert np.array_equal(data, bits)  # read only
    # scratch may be the input, which is then overwritten
    spent = bits.copy()
    assert np.array_equal(harmonic_flow(mat, spent, out=out, scratch=spent), got)


def test_harmonic_flow_with_its_workspace_allocates_under_a_hundredth_of_a_field():
    grid = GridSpec(32, 5.0)
    data = random_smooth_field(grid, np.random.default_rng(32), width=1.0).data
    mat = splitting_plan(grid, PARAMS, 0.25, 3)
    out, scratch = np.empty_like(data), np.empty_like(data)
    harmonic_flow(mat, data, out=out, scratch=scratch)
    tracemalloc.start()
    try:
        harmonic_flow(mat, data, out=out, scratch=scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * data.nbytes


def test_fast_substep_refinement_converges_at_second_order():
    rng = np.random.default_rng(14)
    f = smooth(rng)
    t = 0.5
    ref = propagate_fast(f, t, PARAMS, 256)
    errs = [rel_l2(propagate_fast(f, t, PARAMS, m), ref) for m in (4, 8, 16)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 < order < 2.2


# ---------------------------------------------------------------------------
# dispersive decay scan
# ---------------------------------------------------------------------------


def narrow_probe(grid: GridSpec) -> Field:
    sig = 2.0 * grid.h
    data = np.exp(-grid.r2 / (2.0 * sig**2))
    f = Field(grid, data)
    return Field(grid, f.data / lp_norm(f, 2))


def test_scan_requires_enough_pairs_and_valid_times():
    probe = narrow_probe(GridSpec(32, 4.0))
    with pytest.raises(ValueError):
        dispersive_scan(probe, PARAMS, pairs=[(0.3, 0.1), (0.4, 0.1)])
    with pytest.raises(WindowViolation):
        dispersive_scan(probe, PARAMS, pairs=[(0.9, 0.1), (0.3, 0.1), (0.2, 0.1)])


def test_scan_bound_column_is_the_closed_form_constant():
    grid = GridSpec(32, 4.0)
    probe = narrow_probe(grid)
    pairs = [(0.2, 0.1), (0.3, 0.1), (0.4, 0.1)]
    scan = dispersive_scan(probe, PARAMS, pairs=pairs, substeps=8)
    for row, (t, s) in zip(scan.rows, pairs):
        want = (PARAMS.omega / (np.pi * np.sin(PARAMS.omega * (t + s)))) ** 1.5
        assert row.bound == pytest.approx(want, rel=1e-12)
        assert row.ratio > 0.0


def test_scan_measures_the_decay_rate_on_a_narrow_probe():
    # Geometry sized so the probe is in the concentrated regime across the
    # whole sweep: width 2h = 0.125 keeps the kernel-resolution correction
    # below a percent, and extent 4 holds the spread envelope sin(t+s)/width
    # well inside the box.
    grid = GridSpec(64, 4.0)
    probe = narrow_probe(grid)
    taus = np.geomspace(0.15, 0.5, 6)
    pairs = [(2.0 * tau / 3.0, tau / 3.0) for tau in taus]
    scan = dispersive_scan(probe, PARAMS, pairs=pairs, substeps=12)
    ratios = [row.ratio for row in scan.rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))  # monotone decay
    assert -1.75 < scan.slope_sum < -1.35
    assert scan.max_bound_excess() < 1.0


def test_default_scan_pairs_cover_a_decade_in_window():
    pairs = default_scan_pairs(PARAMS)
    assert len(pairs) >= 10
    for t, s in pairs:
        assert 0.0 < s <= WINDOW
        assert 0.0 < t <= WINDOW
    sums = [t + s for t, s in pairs]
    assert max(sums) / min(sums) > 8.0


# ---------------------------------------------------------------------------
# Strichartz quotients
# ---------------------------------------------------------------------------


def test_strichartz_exponent_pairing():
    assert strichartz_exponent(4.0) == pytest.approx(8.0 / 3.0)
    assert strichartz_exponent(2.0) == np.inf
    assert strichartz_exponent(3.0) == pytest.approx(4.0)
    with pytest.raises(InvalidExponent):
        strichartz_exponent(6.0)
    with pytest.raises(InvalidExponent):
        strichartz_exponent(1.5)


def test_strichartz_ratio_is_scale_invariant_and_stable():
    rng = np.random.default_rng(15)
    grid = GridSpec(32, 6.0)
    f = random_smooth_field(grid, rng, width=grid.extent / 6.0)
    times = np.linspace(0.05, 0.7, 9)
    r1 = strichartz_ratio(f, PARAMS, times)
    assert np.isfinite(r1) and r1 > 0.0
    doubled = Field(grid, 2.0 * f.data)
    assert strichartz_ratio(doubled, PARAMS, times) == pytest.approx(r1, rel=1e-12)
    # Refining the time grid moves the quotient by quadrature error only.
    fine = strichartz_ratio(f, PARAMS, np.linspace(0.05, 0.7, 17))
    assert abs(fine - r1) / r1 < 0.05
