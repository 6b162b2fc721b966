"""Nonlinear stepping: splitting, windowed bookkeeping, fixed-point solver."""

import warnings

import numpy as np
import pytest

from rotor_gpe import (
    BlowupDetected,
    BoundaryTruncation,
    ConfigInvalid,
    Field,
    GridSpec,
    NoContraction,
    PhysicsParams,
    PicardConfig,
    SolverConfig,
    WindowViolation,
    evolve,
    ground_state,
    initial_state,
    nonlinear_phase,
    picard_solve,
    propagate_fast,
    random_smooth_field,
    strang_step,
    workspace_distance,
)
from rotor_gpe.solver import admissible_gamma

GRID = GridSpec(16, 5.0)
LINEAR = PhysicsParams(omega=1.0, beta=0.0)
CUBIC = PhysicsParams(omega=1.0, beta=1.0)

# The ground state keeps ~1e-6 of its mass near the rim of this small test
# box; that honest-but-benign warning would otherwise drown the output.
pytestmark = pytest.mark.filterwarnings("ignore::rotor_gpe.errors.BoundaryTruncation")


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_solver_config_validation():
    with pytest.raises(ConfigInvalid):
        SolverConfig(scheme="euler", dt=1e-3, t_end=0.1)
    with pytest.raises(ConfigInvalid):
        SolverConfig(dt=0.0, t_end=0.1)
    with pytest.raises(ConfigInvalid):
        SolverConfig(dt=1e-3, t_end=0.0)
    with pytest.raises(ConfigInvalid):
        SolverConfig(dt=1e-3, t_end=0.1, m=0)
    with pytest.raises(ConfigInvalid):
        SolverConfig(dt=1e-3, t_end=0.1, diagnostics_every=-1)
    with pytest.raises(ConfigInvalid):
        SolverConfig(dt=1e-3, t_end=0.1, blowup_factor=1.0)


def test_picard_config_validation_and_gamma():
    with pytest.raises(ConfigInvalid):
        PicardConfig(rho=2.0)
    with pytest.raises(ConfigInvalid):
        PicardConfig(rho=6.0)
    with pytest.raises(ConfigInvalid):
        PicardConfig(tol=0.0)
    with pytest.raises(ConfigInvalid):
        PicardConfig(quad_nodes=7)
    assert PicardConfig(rho=4.0).gamma == pytest.approx(8.0 / 3.0)
    assert admissible_gamma(4.0) == pytest.approx(8.0 / 3.0)


# ---------------------------------------------------------------------------
# splitting step
# ---------------------------------------------------------------------------


def test_nonlinear_phase_preserves_modulus():
    rng = np.random.default_rng(61)
    u = random_smooth_field(GRID, rng, width=GRID.extent / 6.0)
    out = nonlinear_phase(u, 0.3, CUBIC)
    assert np.max(np.abs(np.abs(out.data) - np.abs(u.data))) < 1e-15
    # Zero interaction or zero step: identity.
    assert np.array_equal(nonlinear_phase(u, 0.3, LINEAR).data, u.data)
    assert np.array_equal(nonlinear_phase(u, 0.0, CUBIC).data, u.data)


def test_strang_step_without_interaction_is_the_linear_flow():
    u = ground_state(GRID, LINEAR)
    a = strang_step(u, 1e-2, LINEAR, m=2)
    b = propagate_fast(u, 1e-2, LINEAR, 2)
    assert np.array_equal(a.data, b.data)


def test_strang_step_rejects_steps_beyond_the_window():
    u = ground_state(GRID, CUBIC)
    with pytest.raises(WindowViolation):
        strang_step(u, CUBIC.window * 1.5, CUBIC)
    with pytest.raises(WindowViolation):
        strang_step(u, 0.0, CUBIC)


def test_evolve_without_interaction_tracks_the_fast_backend():
    # With beta = 0 the stepper is a chain of linear applications with the
    # same substep length as one merged 64-substep application.  The two
    # differ only through the commutator of the per-substep splitting error
    # with the rotation, well below the splitting error itself.
    u = ground_state(GRID, LINEAR)
    cfg = SolverConfig(scheme="strang", dt=2.0**-9, t_end=0.125, m=1)
    res = evolve(u, cfg, LINEAR)
    direct = propagate_fast(u, 0.125, LINEAR, 64)
    scale = float(np.linalg.norm(direct.data))
    assert float(np.linalg.norm(res.final.field.data - direct.data)) / scale < 1e-5
    from rotor_gpe import exact_linear_evolution

    exact = exact_linear_evolution(GRID, LINEAR, "ground", 0.125)
    assert float(np.linalg.norm(res.final.field.data - exact.data)) / scale < 1e-4


# ---------------------------------------------------------------------------
# windowed evolution bookkeeping
# ---------------------------------------------------------------------------


def test_initial_state_wraps_field_and_clock():
    u = ground_state(GRID, CUBIC)
    st = initial_state(u, CUBIC)
    assert st.t_global == 0.0
    assert st.window_index == 0
    assert st.t_local == 0.0
    st2 = initial_state(u, CUBIC, t0=CUBIC.window * 2.5)
    assert st2.window_index == 2
    assert st2.t_local == pytest.approx(CUBIC.window / 2.0)


def test_evolve_emits_seam_records_with_continuous_diagnostics():
    cfg = SolverConfig(scheme="strang", dt=2e-3, t_end=1.5 * CUBIC.window)
    res = evolve(ground_state(GRID, CUBIC), cfg, CUBIC)
    times = [r.t for r in res.records]
    # Two records share the seam timestamp: one closing the old window, one
    # opening the new.
    seam = CUBIC.window
    seam_records = [r for r in res.records if abs(r.t - seam) < 1e-12]
    assert len(seam_records) == 2
    a, b = seam_records
    # Pure bookkeeping: the field is untouched, conserved quantities agree.
    assert a.mass == pytest.approx(b.mass, abs=1e-14)
    assert a.e0 == pytest.approx(b.e0, abs=1e-13)
    assert a.lz_expect == pytest.approx(b.lz_expect, abs=1e-13)
    # The balance-law reference resets at the seam.
    assert abs(b.pc_residual) < 1e-10
    assert times == sorted(times)
    assert res.final.window_index == 1


def test_evolve_resume_is_bitwise_identical():
    u = ground_state(GRID, CUBIC)
    full = evolve(u, SolverConfig(scheme="strang", dt=2.0**-9, t_end=0.125), CUBIC)
    half = evolve(u, SolverConfig(scheme="strang", dt=2.0**-9, t_end=0.0625), CUBIC)
    resumed = evolve(
        half.final, SolverConfig(scheme="strang", dt=2.0**-9, t_end=0.125), CUBIC
    )
    assert np.array_equal(resumed.final.field.data, full.final.field.data)
    assert resumed.final.t_global == full.final.t_global


def test_evolve_rejects_non_advancing_targets():
    u = ground_state(GRID, CUBIC)
    st = initial_state(u, CUBIC, t0=0.5)
    with pytest.raises(ConfigInvalid):
        evolve(st, SolverConfig(scheme="strang", dt=1e-3, t_end=0.25), CUBIC)


def test_evolve_snapshot_cadence():
    cfg = SolverConfig(scheme="strang", dt=1e-2, t_end=0.1)
    res = evolve(ground_state(GRID, CUBIC), cfg, CUBIC, snapshot_every=5)
    assert len(res.snapshots) >= 2
    for t_snap, field in res.snapshots:
        assert isinstance(field, Field)
        assert 0.0 <= t_snap <= 0.1 + 1e-12


# ---------------------------------------------------------------------------
# numerical-health guards
# ---------------------------------------------------------------------------


def test_blowup_guard_trips_on_peak_growth():
    # The linear flow legitimately moves the sup of a broadband field by
    # tens of percent; a tight factor must trip the guard.
    rng = np.random.default_rng(55)
    u = random_smooth_field(GRID, rng, width=GRID.extent / 3.0)
    cfg = SolverConfig(scheme="strang", dt=5e-3, t_end=0.5, blowup_factor=1.02)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryTruncation)
        with pytest.raises(BlowupDetected):
            evolve(u, cfg, LINEAR)


def test_boundary_truncation_warning_on_tight_boxes():
    grid = GridSpec(16, 4.0)  # ground-state mass at the rim ~ exp(-9)
    u = ground_state(grid, CUBIC)
    cfg = SolverConfig(scheme="strang", dt=1e-2, t_end=0.05)
    with pytest.warns(BoundaryTruncation):
        evolve(u, cfg, CUBIC)


# ---------------------------------------------------------------------------
# fixed-point solver
# ---------------------------------------------------------------------------


def test_picard_without_interaction_returns_free_evolution():
    u = ground_state(GRID, LINEAR)
    cfg = SolverConfig(
        scheme="picard", dt=1e-3, t_end=0.1, m=4, picard=PicardConfig(quad_nodes=9)
    )
    res = picard_solve(u, 0.3, cfg, LINEAR)
    assert res.iterations == 1
    assert res.distances == (0.0,)
    assert len(res.fields) == 9
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(0.3)
    # Node j is S(j * delta) u, chained from the previous node.
    step = propagate_fast(u, 0.3 / 8.0, LINEAR, 4)
    assert np.array_equal(res.fields[1].data, step.data)
    assert res.sup_l2 == pytest.approx(1.0, abs=1e-9)


def test_picard_contracts_on_small_data_and_reports_distances():
    u = ground_state(GRID, CUBIC)
    cfg = SolverConfig(
        scheme="picard",
        dt=1e-3,
        t_end=0.1,
        m=4,
        picard=PicardConfig(quad_nodes=9, tol=1e-8, max_iter=12),
    )
    res = picard_solve(u, np.pi / 8.0, cfg, CUBIC)
    assert res.iterations >= 2
    # Strictly contracting tail until the tolerance cut.
    assert all(b < a for a, b in zip(res.distances, res.distances[1:]))
    assert res.distances[-1] < 1e-8


def test_one_picard_iteration_equals_the_direct_trapezoid_sum():
    # Reference: u_k = S(t_k) u0 - i beta sum_j w_kj S(t_k - t_j) |S(t_j) u0|^2 S(t_j) u0,
    # every S(t_k - t_j) applied afresh as k - j node-gap flows.
    grid = GridSpec(8, 4.0)
    u0 = random_smooth_field(grid, np.random.default_rng(31), width=1.0)
    n_nodes, T, m = 9, 0.3, 2
    cfg = SolverConfig(
        scheme="picard",
        dt=1e-3,
        t_end=T,
        m=m,
        picard=PicardConfig(quad_nodes=n_nodes, max_iter=1),
    )
    res = picard_solve(u0, T, cfg, CUBIC)
    assert res.iterations == 1
    delta = T / (n_nodes - 1)

    def flow(f, gaps):
        for _ in range(gaps):
            f = propagate_fast(f, delta, CUBIC, m)
        return f

    free = [flow(u0, k) for k in range(n_nodes)]
    cubic = [Field(grid, np.abs(f.data) ** 2 * f.data) for f in free]
    for k in range(n_nodes):
        duhamel = np.zeros(grid.shape, dtype=complex)
        if k > 0:  # the trapezoid sum over [0, t_0] is empty
            for j in range(k + 1):
                w = 0.5 * delta if j in (0, k) else delta
                duhamel += w * flow(cubic[j], k - j).data
        want = free[k].data - 1j * CUBIC.beta * duhamel
        err = np.linalg.norm(res.fields[k].data - want) / np.linalg.norm(want)
        assert err < 1e-12


def test_picard_rejects_multi_window_horizons():
    u = ground_state(GRID, CUBIC)
    cfg = SolverConfig(scheme="picard", dt=1e-3, t_end=1.0, m=4)
    with pytest.raises(WindowViolation):
        picard_solve(u, CUBIC.window * 1.2, cfg, CUBIC)


def test_picard_raises_when_the_iteration_diverges():
    grid = GridSpec(12, 4.0)
    params = PhysicsParams(omega=1.0, beta=500.0)
    u = ground_state(grid, params)
    cfg = SolverConfig(
        scheme="picard",
        dt=1e-3,
        t_end=params.window,
        m=4,
        picard=PicardConfig(quad_nodes=9, max_iter=12),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryTruncation)
        with pytest.raises(NoContraction):
            picard_solve(u, params.window, cfg, params)


# ---------------------------------------------------------------------------
# workspace distance
# ---------------------------------------------------------------------------


def test_workspace_distance_is_a_homogeneous_metric():
    rng = np.random.default_rng(62)
    times = (0.0, 0.05, 0.1)
    weights = (0.025, 0.05, 0.025)
    mk = lambda: random_smooth_field(GRID, rng, width=GRID.extent / 6.0)
    u = [mk() for _ in times]
    v = [mk() for _ in times]
    w = [mk() for _ in times]
    d = lambda a, b: workspace_distance(a, b, 4.0, weights, times=times, params=CUBIC)
    assert d(u, u) == 0.0
    duv = d(u, v)
    assert duv > 0.0
    assert d(v, u) == pytest.approx(duv, rel=1e-12)
    # Positive homogeneity.
    u2 = [Field(GRID, 2.0 * f.data) for f in u]
    v2 = [Field(GRID, 2.0 * f.data) for f in v]
    assert d(u2, v2) == pytest.approx(2.0 * duv, rel=1e-10)
    # Triangle inequality.
    assert d(u, w) <= duv + d(v, w) + 1e-12
    with pytest.raises(ValueError):
        workspace_distance(u, v[:2], 4.0, weights, times=times, params=CUBIC)
