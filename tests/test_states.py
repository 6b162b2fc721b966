"""Reference states: eigenrelations, coherent orbits, resolution guards."""

import numpy as np
import pytest

from rotor_gpe import (
    Field,
    GridSpec,
    PhysicsParams,
    ResolutionTooLow,
    STATE_KINDS,
    SeededDraws,
    classical_orbit,
    coherent_state,
    exact_linear_evolution,
    generator_apply,
    generator_expectation,
    ground_state,
    inner,
    lp_norm,
    make_state,
    random_smooth_field,
    vortex_state,
)

GRID = GridSpec(24, 6.0)
PARAMS = PhysicsParams(omega=1.0, beta=0.0)


def rel_l2(f: Field, g: Field) -> float:
    return float(np.linalg.norm(f.data - g.data) / np.linalg.norm(g.data))


# ---------------------------------------------------------------------------
# eigenstates of the linear generator
# ---------------------------------------------------------------------------


def test_ground_state_mass_and_eigenvalue():
    u = ground_state(GRID, PARAMS)
    assert lp_norm(u, 2) == pytest.approx(1.0, abs=1e-10)
    hu = generator_apply(u, PARAMS)
    # Rotating-frame ground energy is 3*omega/2 (the rotation term kills no
    # energy here because the state is radial).  The pointwise residual floor
    # is the periodized tail the box wraps through the Laplacian, ~ L^2
    # exp(-L^2/2) ~ 5e-7 at extent 6; the integrated quotient is far cleaner.
    assert rel_l2(hu, Field(GRID, 1.5 * u.data)) < 1e-6
    assert generator_expectation(u, PARAMS) == pytest.approx(1.5, abs=1e-8)


def test_vortex_eigenvalues_split_by_charge():
    up = vortex_state(GRID, PARAMS, +1)
    um = vortex_state(GRID, PARAMS, -1)
    assert lp_norm(up, 2) == pytest.approx(1.0, abs=1e-10)
    assert lp_norm(um, 2) == pytest.approx(1.0, abs=1e-10)
    # Lab energy 5*omega/2; the rotation shifts it by -omega*charge.
    assert generator_expectation(up, PARAMS) == pytest.approx(1.5, abs=1e-8)
    assert generator_expectation(um, PARAMS) == pytest.approx(3.5, abs=1e-8)
    hup = generator_apply(up, PARAMS)
    # Vortex carries an extra transverse-coordinate factor that amplifies the
    # periodization wrap by ~extent, so the floor sits slightly higher.
    assert rel_l2(hup, Field(GRID, 1.5 * up.data)) < 5e-6


def test_eigenvalues_scale_with_trap_frequency():
    params = PhysicsParams(omega=2.0, beta=0.0)
    grid = GridSpec(24, 6.0 / np.sqrt(2.0))
    assert generator_expectation(ground_state(grid, params), params) == pytest.approx(
        3.0, abs=1e-7
    )
    assert generator_expectation(vortex_state(grid, params, -1), params) == pytest.approx(
        7.0, abs=1e-7
    )


def test_generator_is_hermitian_and_linear():
    rng = np.random.default_rng(23)
    for _ in range(5):
        f = random_smooth_field(GRID, rng, width=GRID.extent / 3.0)
        g = random_smooth_field(GRID, rng, width=GRID.extent / 3.0)
        lhs = inner(generator_apply(f, PARAMS), g)
        rhs = inner(f, generator_apply(g, PARAMS))
        assert abs(lhs - rhs) < 1e-10
        combo = Field(GRID, 2.0 * f.data - 1.5j * g.data)
        direct = generator_apply(combo, PARAMS)
        assembled = Field(
            GRID,
            2.0 * generator_apply(f, PARAMS).data - 1.5j * generator_apply(g, PARAMS).data,
        )
        assert rel_l2(direct, assembled) < 1e-12


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------


def test_coherent_state_at_origin_is_the_ground_state():
    u = coherent_state(GRID, PARAMS, (0.0, 0.0, 0.0))
    g = ground_state(GRID, PARAMS)
    assert np.max(np.abs(u.data - g.data)) < 1e-15


@pytest.mark.parametrize("n", [24, 48])
def test_separable_states_equal_their_full_grid_formulas(n):
    # The states are built as outer products of 1D factors; the
    # full-grid exp of the closed forms must agree to rounding.
    grid = GridSpec(n, 6.0)
    params = PhysicsParams(omega=1.3)
    w, amp = params.omega, (params.omega / np.pi) ** 0.75
    envelope = amp * np.exp(-0.5 * w * grid.r2)
    a, p = (1.0, -0.5, 0.2), (0.3, -0.5, 0.2)
    shifted = (grid.x1 - a[0]) ** 2 + (grid.x2 - a[1]) ** 2 + (grid.x3 - a[2]) ** 2
    kick = p[0] * grid.x1 + p[1] * grid.x2 + p[2] * grid.x3
    cases = [
        (ground_state(grid, params), envelope),
        (vortex_state(grid, params, +1), np.sqrt(w) * (grid.x1 + 1j * grid.x2) * envelope),
        (vortex_state(grid, params, -1), np.sqrt(w) * (grid.x1 - 1j * grid.x2) * envelope),
        (coherent_state(grid, params, a, p), amp * np.exp(-0.5 * w * shifted) * np.exp(1j * kick)),
    ]
    for got, want in cases:
        assert got.data.dtype == np.complex128
        assert np.max(np.abs(got.data - want)) <= 1e-15 * np.max(np.abs(want))


def test_coherent_state_centroid_matches_parameters():
    center = (1.2, -0.7, 0.4)
    u = coherent_state(GRID, PARAMS, center, kick=(0.5, 0.0, -0.2))
    abs2 = np.abs(u.data) ** 2 * GRID.cell_volume
    for slab, want in zip((GRID.x1, GRID.x2, GRID.x3), center):
        assert float(np.sum(slab * abs2)) == pytest.approx(want, abs=1e-8)
    assert lp_norm(u, 2) == pytest.approx(1.0, abs=1e-9)


def test_coherent_state_guards():
    with pytest.raises(ResolutionTooLow):
        coherent_state(GRID, PARAMS, (4.5, 0.0, 0.0))  # too close to the box edge
    small = GridSpec(16, 4.0)
    with pytest.raises(ResolutionTooLow):
        coherent_state(small, PARAMS, (0.0, 0.0, 0.0), kick=(4.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        coherent_state(GRID, PARAMS, (0.0, 0.0))  # not a 3-vector


# ---------------------------------------------------------------------------
# resolution guard
# ---------------------------------------------------------------------------


def test_resolution_guard_rejects_coarse_or_tight_grids():
    with pytest.raises(ResolutionTooLow):
        ground_state(GridSpec(16, 6.0), PARAMS)  # h too big for sigma = 1
    with pytest.raises(ResolutionTooLow):
        ground_state(GridSpec(8, 8.0), PARAMS)
    # Stiffer trap shrinks sigma = 1/sqrt(omega): the same grid can fail.
    with pytest.raises(ResolutionTooLow):
        ground_state(GridSpec(24, 6.0), PhysicsParams(omega=4.0, beta=0.0))
    # These are fine.
    ground_state(GridSpec(16, 4.0), PARAMS)
    ground_state(GridSpec(16, 5.0), PARAMS)
    ground_state(GridSpec(24, 3.0), PhysicsParams(omega=4.0, beta=0.0))


# ---------------------------------------------------------------------------
# make_state dispatch
# ---------------------------------------------------------------------------


def test_make_state_dispatch_and_kinds():
    assert set(STATE_KINDS) == {"ground", "vortex_plus", "vortex_minus", "coherent"}
    g = make_state(GRID, PARAMS, "ground")
    assert np.array_equal(g.data, ground_state(GRID, PARAMS).data)
    vm = make_state(GRID, PARAMS, "vortex_minus")
    assert np.array_equal(vm.data, vortex_state(GRID, PARAMS, -1).data)
    c = make_state(GRID, PARAMS, "coherent", center=(1.0, 0.0, 0.0))
    assert np.array_equal(c.data, coherent_state(GRID, PARAMS, (1.0, 0.0, 0.0)).data)
    with pytest.raises(ValueError):
        make_state(GRID, PARAMS, "soliton")


def test_random_smooth_field_is_seeded_and_normalized():
    a = random_smooth_field(GRID, np.random.default_rng(42))
    b = random_smooth_field(GRID, np.random.default_rng(42))
    c = random_smooth_field(GRID, np.random.default_rng(43))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert lp_norm(a, 2) == pytest.approx(1.0, rel=1e-12)


def test_random_smooth_field_takes_seeded_draws():
    a = random_smooth_field(GRID, SeededDraws(42))
    b = random_smooth_field(GRID, SeededDraws(42))
    c = random_smooth_field(GRID, SeededDraws(43))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert lp_norm(a, 2) == pytest.approx(1.0, rel=1e-12)


def test_seeded_draws_repeat_for_a_seed_and_differ_across_seeds():
    def draws(seed):
        rng = SeededDraws(seed)
        return [rng.uniform(0.05, 1.0) for _ in range(5)], rng.standard_normal((3, 5, 7))

    (ua, na), (ub, nb), (uc, nc) = draws(7), draws(7), draws(8)
    assert ua == ub and np.array_equal(na, nb)
    assert ua != uc and not np.any(na == nc)
    assert na.shape == (3, 5, 7) and np.all(np.isfinite(na))


def test_seeded_uniform_stays_in_its_half_open_interval():
    rng = SeededDraws(3)
    x = np.array([rng.uniform(0.05, 1.0) for _ in range(10**4)])
    assert x.min() >= 0.05 and x.max() < 1.0
    # The largest uniform below 1 rounds 1 + (2 - 1) * u up to 2: the draw
    # steps back below the upper end.
    rng._random.random = lambda: 1.0 - 2.0**-53
    assert rng.uniform(1.0, 2.0) == np.nextafter(2.0, 1.0)


def test_seeded_normals_have_zero_mean_and_unit_variance():
    # 10^5 normals from one seed (an odd count, so the last pair's sine
    # branch is dropped): measured mean -2.9e-3 and variance 1.0019.  The
    # bounds are about three standard errors (0.0032 and 0.0045).
    z = SeededDraws(2024).standard_normal(10**5 + 1)
    assert z.shape == (10**5 + 1,)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.015


# ---------------------------------------------------------------------------
# classical orbit
# ---------------------------------------------------------------------------


def orbit_energy(params, q, p):
    """Rotating-frame point-particle energy, conserved along orbits."""
    w = params.omega
    lz = q[:, 0] * p[:, 1] - q[:, 1] * p[:, 0]
    return 0.5 * np.sum(p**2, axis=1) + 0.5 * w**2 * np.sum(q**2, axis=1) - w * lz


def test_orbit_conserves_rotating_frame_energy():
    times = np.linspace(0.0, 3.0, 13)
    q, p, theta = classical_orbit(PARAMS, (1.0, -0.3, 0.5), (0.2, 0.4, -0.1), times)
    e = orbit_energy(PARAMS, q, p)
    assert np.max(np.abs(e - e[0])) < 1e-9
    assert theta[0] == 0.0


def test_corotating_circular_orbit_is_a_fixed_point():
    # In the rotating frame the co-rotating circular orbit sits still:
    # q = (a, 0, 0), p = (0, omega*a, 0) solves the system with q' = p' = 0.
    a = 1.3
    times = np.linspace(0.0, 2.0, 9)
    q, p, theta = classical_orbit(PARAMS, (a, 0.0, 0.0), (0.0, a, 0.0), times)
    assert np.max(np.abs(q - np.array([a, 0.0, 0.0]))) < 1e-9
    assert np.max(np.abs(p - np.array([0.0, a, 0.0]))) < 1e-9
    # theta' = (omega^2 |q|^2 - |p|^2)/2 = 0 on this orbit.
    assert np.max(np.abs(theta)) < 1e-9


def test_axial_motion_decouples_and_oscillates():
    a = 0.8
    t_quarter = np.pi / 2.0  # quarter period of the omega = 1 oscillator
    q, p, _ = classical_orbit(PARAMS, (0.0, 0.0, a), (0.0, 0.0, 0.0), np.array([t_quarter]))
    assert q[0, 2] == pytest.approx(0.0, abs=1e-10)
    assert p[0, 2] == pytest.approx(-a, abs=1e-10)
    assert np.max(np.abs(q[0, :2])) < 1e-12


@pytest.mark.parametrize("omega", [1.0, 2.5])
def test_closed_form_orbit_matches_numerical_integration(omega):
    # The closed form's sign conventions against DOP853 on the equations
    # of motion, on unsorted times that include 0 and span several windows.
    from scipy.integrate import solve_ivp

    params = PhysicsParams(omega=omega, beta=0.0)
    w = omega
    center, kick = (1.0, -0.3, 0.5), (0.2, 0.4, -0.1)
    times = np.array([2.9, 0.0, 0.45, 6.1, 1.3, 4.4]) / w

    def rhs(_t, y):
        q, p = y[0:3], y[3:6]
        dq = [p[0] + w * q[1], p[1] - w * q[0], p[2]]
        dp = [-(w**2) * q[0] + w * p[1], -(w**2) * q[1] - w * p[0], -(w**2) * q[2]]
        return [*dq, *dp, 0.5 * (w**2 * q @ q - p @ p)]

    order = np.argsort(times)
    sol = solve_ivp(
        rhs, (0.0, times.max()), [*center, *kick, 0.0], method="DOP853",
        t_eval=times[order], rtol=1e-12, atol=1e-14,
    )
    assert sol.success
    want = np.empty((7, times.size))
    want[:, order] = sol.y
    assert times.max() > 6 * params.window
    q, p, theta = classical_orbit(params, center, kick, times)
    assert np.max(np.abs(q - want[0:3].T)) < 1e-10
    assert np.max(np.abs(p - want[3:6].T)) < 1e-10
    assert np.max(np.abs(theta - want[6])) < 1e-10


def test_orbit_input_validation():
    with pytest.raises(ValueError):
        classical_orbit(PARAMS, (1, 0, 0), (0, 0, 0), np.array([]))
    with pytest.raises(ValueError):
        classical_orbit(PARAMS, (1, 0, 0), (0, 0, 0), np.array([-0.5]))


# ---------------------------------------------------------------------------
# closed-form linear evolution
# ---------------------------------------------------------------------------


def test_exact_evolution_eigenstate_phases():
    t = 0.37
    for kind, rate in (("ground", 1.5), ("vortex_plus", 1.5), ("vortex_minus", 3.5)):
        base = make_state(GRID, PARAMS, kind)
        evolved = exact_linear_evolution(GRID, PARAMS, kind, t)
        expected = Field(GRID, np.exp(-1j * rate * t) * base.data)
        assert np.max(np.abs(evolved.data - expected.data)) < 1e-14
    with pytest.raises(ValueError):
        exact_linear_evolution(GRID, PARAMS, "soliton", t)


def test_exact_evolution_coherent_at_zero_time_is_initial():
    u0 = coherent_state(GRID, PARAMS, (1.0, 0.0, 0.0), (0.0, 0.3, 0.0))
    ut = exact_linear_evolution(GRID, PARAMS, "coherent", 0.0, (1.0, 0.0, 0.0), (0.0, 0.3, 0.0))
    assert rel_l2(ut, u0) < 1e-12
