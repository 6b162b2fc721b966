"""Nonlinear stepping: splitting, windowed bookkeeping, fixed-point solver."""

import math
import tracemalloc
import warnings
from dataclasses import astuple, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    coherent_state,
    evolve,
    galilean_momentum,
    galilean_position,
    ground_state,
    lp_norm,
    nonlinear_phase,
    picard_solve,
    propagate_fast,
    random_smooth_field,
    record,
    workspace_distance,
)
import rotor_gpe.diagnostics as diagnostics_module
import rotor_gpe.solver as solver_module
from rotor_gpe.propagator import (
    harmonic_flow,
    rotate_pattern,
    splitting_plan,
    strichartz_exponent,
)

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


def test_a_strang_run_of_two_to_the_fifty_two_steps_is_refused():
    # From 2**52 steps of dt on, a step can be shorter than the spacing of
    # the floats near t_end, so the time labels would not tell it apart.
    assert SolverConfig(dt=1.0, t_end=2.0**52 - 1.0).t_end == 2.0**52 - 1.0
    for t_end, dt in ((2.0**52, 1.0), (1e300, 1e-3)):
        with pytest.raises(ConfigInvalid, match=r"^t_end: must stay below 2\*\*52 steps"):
            SolverConfig(dt=dt, t_end=t_end)
    # A picard run solves one window, which the window rule bounds.
    assert SolverConfig(scheme="picard", dt=1.0, t_end=2.0**52).scheme == "picard"


def test_picard_config_validation():
    with pytest.raises(ConfigInvalid):
        PicardConfig(tol=0.0)
    with pytest.raises(ConfigInvalid):
        PicardConfig(quad_nodes=2)
    assert PicardConfig(quad_nodes=3).quad_nodes == 3


# ---------------------------------------------------------------------------
# splitting step
# ---------------------------------------------------------------------------


def test_nonlinear_phase_preserves_modulus():
    rng = np.random.default_rng(61)
    u = random_smooth_field(GRID, rng, width=GRID.extent / 6.0)
    out = nonlinear_phase(u, 0.3, CUBIC)
    assert np.max(np.abs(np.abs(out.data) - np.abs(u.data))) < 1e-15
    # Zero interaction or zero step: the identity, bit for bit, in a
    # fresh array that the caller may write without touching u.
    for identity in (nonlinear_phase(u, 0.3, LINEAR), nonlinear_phase(u, 0.0, CUBIC)):
        assert np.array_equal(identity.data, u.data)
        assert not np.shares_memory(identity.data, u.data)


# ---------------------------------------------------------------------------
# phase kernel
# ---------------------------------------------------------------------------

KERNEL = settings(derandomize=True, database=None, max_examples=40, deadline=2000)
REACH = solver_module._TAYLOR_REACH
#: Every slab angle at which the Taylor phase changes degree, and its limit.
EDGES = sorted(
    {r for _, reaches in (solver_module._COS, solver_module._SINC) for r in reaches if r < REACH}
    | {REACH}
)
#: Slab angles just below, at and just above every edge, and anywhere
#: from 1e-10 to 0.5, beyond the limit where libm takes over.
SLAB_ANGLES = st.builds(
    lambda edge, nudge: edge * (1.0 + nudge),
    st.sampled_from(EDGES),
    st.sampled_from([-1e-9, -(2.0**-52), 0.0, 2.0**-52, 1e-9]),
) | st.floats(1e-10, 0.5)


def phase_kernel(data, tau, beta):
    """``_phase_into`` into a fresh NaN-filled array; returns ``(out, peak)``."""
    out = np.full_like(data, np.nan)
    scratch = np.empty(2 * solver_module._slab_size(data.shape))
    return out, solver_module._phase_into(data, tau, beta, out, scratch)


def libm_phase(data, tau, beta):
    """The reference: ``exp(-i beta tau |data|^2) data`` from libm's cos and sin."""
    theta = (data.real * data.real + data.imag * data.imag) * (-beta * tau)
    out = np.empty_like(data)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    out *= data
    return out


@KERNEL
@given(angle=SLAB_ANGLES, seed=st.integers(0, 2**32 - 1))
def test_taylor_phase_factors_match_libm_on_both_sides_of_every_reach(angle, seed):
    # Amplitudes 2^-e make |d|^2 = 4^-e, the angle and out = factor * d
    # exact, so out * 2^e is the factor itself.  The first of the two
    # slabs holds the largest angle; the second peaks where its draws do.
    e = np.random.default_rng(seed).integers(0, 5, size=(12, 12, 12))
    e[0, 0, 0] = 0
    out, peak = phase_kernel(np.ldexp(1.0, -e).astype(np.complex128), angle, 1.0)
    assert peak == 1.0
    theta = -angle * np.ldexp(1.0, -2 * e)
    factor = out * np.ldexp(1.0, e)
    assert np.max(np.abs(factor.real - np.cos(theta))) <= 4.5e-16
    assert np.max(np.abs(factor.imag - np.sin(theta))) <= 4.5e-16
    assert np.max(np.abs(np.abs(factor) - 1.0)) <= 1e-15


@KERNEL
@given(seed=st.integers(0, 2**32 - 1), tau=st.floats(-1.0, 1.0), beta=st.floats(-1e3, 1e3))
def test_phase_kernel_without_an_angle_copies_bit_for_bit(seed, tau, beta):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((10, 10, 10)) + 1j * rng.standard_normal((10, 10, 10))
    for t, b in ((tau, 0.0), (0.0, beta)):
        out, peak = phase_kernel(data, t, b)
        assert np.array_equal(out, data)
        assert peak == float(np.max(data.real * data.real + data.imag * data.imag))


@pytest.mark.parametrize(
    "amplitude, peak",
    [(np.nan, np.nan), (1e200, np.inf), (1e148, 1e148 * 1e148)],
    ids=["nan", "inf", "1e296"],
)
def test_phase_kernel_takes_libm_where_a_slab_angle_is_not_small(amplitude, peak):
    # Two slabs of six planes; the second holds the bad angle and must
    # equal libm bit for bit (a Taylor polynomial there would not), while
    # the first takes the Taylor phase and keeps to its accuracy.
    rng = np.random.default_rng(29)
    data = 0.1 * (rng.standard_normal((12, 12, 12)) + 1j * rng.standard_normal((12, 12, 12)))
    tau = 0.25
    assert tau * np.max(np.abs(data[:6]) ** 2) <= REACH
    data[8, 3, 3] = amplitude
    assert solver_module._slab_size(data.shape) == 6 * 12 * 12
    with np.errstate(over="ignore", invalid="ignore"):
        out, got = phase_kernel(data, tau, 1.0)
        want = libm_phase(data, tau, 1.0)
    assert got == peak or (np.isnan(got) and np.isnan(peak))
    assert np.array_equal(out[6:], want[6:], equal_nan=True)
    assert np.max(np.abs(out[:6] - want[:6])) <= 1e-15


@pytest.mark.parametrize("shape", [(9, 8, 8), (34, 34, 34)])
def test_phase_kernel_covers_a_short_last_slab(shape):
    # Slabs of 4 planes (half the field) and of 14 (the byte budget).
    rows = solver_module._slab_size(shape) // (shape[1] * shape[2])
    assert shape[0] % rows != 0
    rng = np.random.default_rng(shape[0])
    data = 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    data[-1, 1, 2] = 3.0  # the peak lies in the short slab
    tau = 0.01  # its angle, 0.09, stays on the Taylor path
    out, peak = phase_kernel(data, tau, 1.0)
    assert peak == 9.0
    assert np.max(np.abs(out - libm_phase(data, tau, 1.0))) <= 3.0 * 1e-15


@KERNEL
@given(seed=st.integers(0, 2**32 - 1), tau=st.floats(0.0, 0.5))
def test_the_twice_phase_leaves_one_factor_in_place_and_writes_two(seed, tau):
    # ``data`` is left as N(tau) data, bit for bit the single pass's
    # output, and ``out`` is the same factor applied once more: N(2 tau)
    # data up to rounding, since the factor keeps the modulus.
    rng = np.random.default_rng(seed)
    data = 0.5 * (rng.standard_normal((12, 12, 12)) + 1j * rng.standard_normal((12, 12, 12)))
    once, peak = phase_kernel(data, tau, 1.0)
    scratch = np.empty(2 * solver_module._slab_size(data.shape))
    left, twice = data.copy(), np.full_like(data, np.nan)
    assert solver_module._phase_into(left, tau, 1.0, twice, scratch, twice=True) == peak
    assert np.array_equal(left, once)
    assert np.max(np.abs(twice - libm_phase(data, 2.0 * tau, 1.0))) <= 4e-15 * np.max(np.abs(data))
    if tau == 0.0:
        assert np.array_equal(left, data) and np.array_equal(twice, data)


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


SLACK = solver_module._TIME_EPS


def schedule(t_end, dt, params=CUBIC):
    """Every step of ``_schedule`` for a run to ``t_end`` in steps of ``dt``."""
    return list(solver_module._schedule(t_end, params.window, dt))


@pytest.mark.parametrize("dt, steps", [(5e-4, 40), (CUBIC.window / 3, 15)], ids=["one-window", "five-windows"])
def test_a_whole_number_of_steps_ends_on_a_dt_long_step(dt, steps):
    # 40 steps of 5e-4, whose clock rounds, and 3 steps a window for five
    # windows: every step is dt long, and the last ends at t_end itself.
    t_end = steps * dt
    got = schedule(t_end, dt)
    assert len(got) == steps
    assert all(step == dt for step, *_ in got)
    assert [done for *_, done in got] == [False] * (steps - 1) + [True]
    _, k, t_local, _, _ = got[-1]
    assert k * CUBIC.window + t_local == pytest.approx(t_end, abs=SLACK)


def test_each_window_but_the_last_ends_on_the_label_window():
    # dt = 0.03 clips the last step of each window: the seam step's clock
    # reads the window itself, so seam k is labelled k * window + window.
    window = CUBIC.window
    got = schedule(2.1 * window, 0.03)
    seams = [(k, t_local, done) for _, k, t_local, at_seam, done in got if at_seam]
    assert seams == [(0, window, False), (1, window, False)]
    assert got[-1][1] == 2 and got[-1][4]


@pytest.mark.parametrize("past", [-0.5, 0.5, 0.95, 1.05, 1.5, 2.0, 300.0])
def test_no_step_is_at_or_below_the_slack(past):
    # t_end lies ``past`` slacks past the first seam, in 300 steps a
    # window: within the slack the run ends at the seam; beyond it one
    # more step, longer than the slack, runs in the next window.
    window = CUBIC.window
    got = schedule(window + past * SLACK, window / 300)
    assert min(step for step, *_ in got) > SLACK
    dt_step, k, t_local, at_seam, done = got[-1]
    assert done and [s[4] for s in got].count(True) == 1
    if past <= 1.0:
        assert (len(got), k, t_local, at_seam) == (300, 0, window, True)
    else:
        assert (len(got), k, at_seam) == (301, 1, False)
        assert dt_step == pytest.approx(past * SLACK, rel=0.02)


SCHEDULES = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@SCHEDULES
@given(
    omega=st.floats(1.0, 8.0),
    per_window=st.floats(0.125, 8.0) | st.sampled_from([1.0, 2.0, 3.0, 7.0]),
    windows=st.integers(0, 10_000),
    fraction=st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]),
    nudge=st.sampled_from([0.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
)
def test_the_steps_add_up_to_each_window_and_the_labels_never_go_back(
    omega, per_window, windows, fraction, nudge
):
    # t_end anywhere up to 10^4 windows, often on or a few slacks off a
    # seam; dt gives up to 8 steps a window.  Each window's steps add up
    # to its span (the window, or t_end less the last window's origin
    # k * window) within the slack and the rounding of the window-local
    # clock; the last window may end a slack short of t_end or a slack
    # past it, and its origin is rounded to the floats near t_end.
    window = PhysicsParams(omega=omega).window
    dt = window / per_window
    t_end = (windows + fraction) * window + nudge * SLACK
    if t_end <= SLACK:  # no run: SolverConfig refuses it
        return
    by_window, labels = {}, []
    for dt_step, k, t_local, at_seam, done in solver_module._schedule(t_end, window, dt):
        assert dt_step > SLACK
        by_window.setdefault(k, []).append((dt_step, t_local, at_seam))
        labels.append(k * window + t_local)
    assert labels == sorted(labels)
    last = max(by_window)
    assert sorted(by_window) == list(range(last + 1))
    for k, steps in by_window.items():
        clock = [t_local for _, t_local, _ in steps]
        assert clock == sorted(set(clock))  # the window-local clock only moves on
        rounding = len(steps) * math.ulp(2.0 * window)
        if k < last:
            assert steps[-1][1:] == (window, True)
            span, slack = Fraction(window), SLACK
        else:
            span, slack = Fraction(t_end) - Fraction(k * window), 2 * SLACK + math.ulp(t_end)
        total = Fraction(math.fsum(step for step, _, _ in steps))
        assert abs(total - span) <= slack + rounding, (k, float(total - span))


def test_a_t_end_within_the_slack_past_a_seam_ends_at_the_seam():
    # 9.5e-14 past the first seam, in 300 steps a window: the seam step
    # ends the run, labelled the window itself, with no opening record
    # and no step shorter than the slack after it.
    window = CUBIC.window
    t_end = 0.7853981633975433
    assert 0.0 < t_end - window < SLACK
    res = evolve(ground_state(GRID, CUBIC), SolverConfig(dt=window / 300, t_end=t_end), CUBIC)
    assert res.final.t_global == window == 0.7853981633974483
    assert res.final.window_index == 0
    assert [r.t for r in res.records] == [0.0, window]


def test_seam_records_are_labelled_the_window_end():
    # 300 steps a window: the clock reaches the seam a rounding short of
    # the window, and both seam records still read k * window + window.
    window = CUBIC.window
    res = evolve(ground_state(GRID, CUBIC), SolverConfig(dt=window / 300, t_end=1.5 * window), CUBIC)
    seam = [r.t for r in res.records if abs(r.t - window) < 1e-12]
    assert seam == [window, window]
    assert res.final.window_index == 1


@pytest.mark.parametrize("omega, per_window, windows", [(1.0, 3, 3000), (1.7, 5, 1000)])
def test_the_handed_out_angle_is_taken_per_window(monkeypatch, omega, per_window, windows):
    # 9,000 and 5,000 steps ending on a seam, where omega t is a whole
    # number of pi/4 turns, 0 mod 2 pi here: an angle summed step by step
    # over the run was 6.1e-11 and 2.8e-11 rad off.
    params = PhysicsParams(omega=omega)
    grid = GridSpec(8, 5.0)
    u = Field(grid, np.random.default_rng(3).standard_normal(grid.shape) + 0j)
    angles = []
    real_rotate = solver_module.rotate_pattern

    def spying(grid, data, angle, out):
        angles.append(angle)
        return real_rotate(grid, data, angle, out=out)

    monkeypatch.setattr(solver_module, "rotate_pattern", spying)
    cfg = SolverConfig(dt=params.window / per_window, t_end=windows * params.window)
    res = evolve(u, cfg, params)
    assert res.final.window_index == windows - 1 and windows % 8 == 0
    assert abs(math.remainder(angles[-1], 2.0 * math.pi)) <= 1e-15


def test_seam_records_share_one_moments_pass():
    # The frame runs on across the seam, so the closing and the opening
    # record read the same co-rotating field, and the new window's energy
    # reference is the closing record's energy.
    cfg = SolverConfig(scheme="strang", dt=2e-3, t_end=1.5 * CUBIC.window)
    res = evolve(off_axis_state(GRID), cfg, CUBIC)
    (i,) = [i for i in range(1, len(res.records)) if res.records[i].t == res.records[i - 1].t]
    a, b = res.records[i - 1], res.records[i]
    assert (a.mass, a.e0, a.lz_expect) == (b.mass, b.e0, b.lz_expect)
    assert b.pc_residual == b.pc_lhs - 2.0 * a.e0


def test_a_bare_initial_field_takes_one_moments_pass(monkeypatch):
    # The energy reference of window 0 is the opening record's e0, so the
    # initial field is not passed over once more for its energy (a one-step
    # run took three passes with it: energy, t = 0 record, end record).
    u = off_axis_state(GRID)
    e0 = record(u, 0.0, CUBIC, None).e0
    calls = []
    real_moments = solver_module._moments

    def counting(*args, **kwargs):
        calls.append(1)
        return real_moments(*args, **kwargs)

    monkeypatch.setattr(solver_module, "_moments", counting)
    monkeypatch.setattr(diagnostics_module, "_moments", counting)
    res = evolve(u, SolverConfig(scheme="strang", dt=1e-3, t_end=1e-3), CUBIC)
    assert len(calls) == 2
    assert len(res.records) == 2
    first = res.records[0]
    assert first.e0 == e0
    assert first.pc_residual == first.pc_lhs - 2.0 * e0
    assert res.records[1].pc_residual == res.records[1].pc_lhs - 2.0 * e0


def off_axis_state(grid, params=CUBIC):
    """Coherent state off the x3 axis, so the frame rotation is visible."""
    return coherent_state(grid, params, center=(1.0, 0.5, 0.2), kick=(0.3, -0.5, 0.2))


def reference_observations(u, dt, t_end, params):
    """``t -> (N(tau) w, R(theta) N(tau) w)`` after every step, the frame by its definition.

    The frame starts with the field and runs on across seams, where only
    the window-local clock restarts.
    """
    grid, window, beta = u.grid, params.window, params.beta
    out = {0.0: (u.data, u.data)}
    w, theta, tau = u.data, 0.0, 0.0
    start, t_local = 0.0, 0.0
    while start + t_local < t_end - 1e-12:
        if window - t_local <= 1e-12:  # seam: the clock restarts, the frame runs on
            start, t_local = start + window, 0.0
        dt_step = min(dt, window - t_local, t_end - start - t_local)
        phase = np.exp(-1j * beta * (tau + 0.5 * dt_step) * np.abs(w) ** 2)
        w = harmonic_flow(splitting_plan(grid, params, dt_step), phase * w)
        theta += params.omega * dt_step
        tau = 0.5 * dt_step
        t_local += dt_step
        corotating = np.exp(-1j * beta * tau * np.abs(w) ** 2) * w
        lab = rotate_pattern(grid, corotating, theta, out=np.empty_like(corotating))
        out[start + t_local] = (corotating, lab)
    return out


def test_every_observed_field_is_the_rotated_phased_frame():
    # Records and snapshots at off-step cadences, across a seam: each
    # record must read the co-rotating field N(tau) w at its own time, and
    # each field handed out must be R(theta) N(tau) w, never a field left
    # over from an earlier observation.
    u = off_axis_state(GRID)
    dt, t_end = 0.05, 1.3 * CUBIC.window
    cfg = SolverConfig(dt=dt, t_end=t_end, diagnostics_every=3)
    handed = []
    res = evolve(
        u, cfg, CUBIC, snapshot_every=2, on_snapshot=lambda t, f: handed.append((t, f.data))
    )
    reference = reference_observations(u, dt, t_end, CUBIC)

    def at(t):
        (want,) = [fields for t_ref, fields in reference.items() if abs(t_ref - t) < 1e-9]
        return want

    assert sum(abs(r.t - CUBIC.window) < 1e-12 for r in res.records) == 2
    window_index, e0_window = 0, res.records[0].e0
    for i, rec in enumerate(res.records):
        if i and rec.t == res.records[i - 1].t:  # the record opening a window
            window_index, e0_window = window_index + 1, rec.e0
        corotating, _ = at(rec.t)
        want = record(
            Field(GRID, corotating),
            rec.t,
            CUBIC,
            e0_window,
            t_local=rec.t - window_index * CUBIC.window,
        )
        assert astuple(rec) == pytest.approx(astuple(want), rel=1e-12, abs=1e-13), rec.t
    handed.append((res.final.t_global, res.final.field.data))
    for t, data in handed:
        _, want = at(t)
        assert np.linalg.norm(data - want) / np.linalg.norm(want) < 1e-12, t


def phased_twice(data, tau, params):
    """The observed step's one phase pass, into fresh arrays: ``(N(tau) data, N(tau) N(tau) data)``."""
    once, twice = data.copy(), np.empty_like(data)
    scratch = np.empty(2 * solver_module._slab_size(data.shape))
    solver_module._phase_into(once, tau, params.beta, twice, scratch, twice=True)
    return once, twice


def allocating_evolve(u, cfg, params, snapshot_every):
    """``evolve``'s step and observation sequence with allocating calls only.

    Every step and observation builds fresh arrays through
    :func:`nonlinear_phase`, the allocating form of ``harmonic_flow`` and
    ``rotate_pattern`` into a new array, and every record is :func:`record` of a fresh
    co-rotating field; the steps are ``evolve``'s schedule, so that each
    step uses the same plan, and the hand-out angle is ``evolve``'s, a
    whole number of eighth turns plus the window's own steps.  An
    observation takes ``(N(tau) w, N(tau) N(tau) w)`` from
    :func:`phased_twice` and reads the first; the next step's input is the
    second if its half-step is ``tau``, and otherwise the observed field
    phased by that half-step.  The field runs on across the seam, whose
    two records read the same field.  Returns ``(records, snapshots,
    final lab array)``.
    """
    grid, window = u.grid, params.window
    phased = lambda data, tau: nonlinear_phase(Field(grid, data), tau, params).data
    lab = lambda data, k, spin: rotate_pattern(
        grid, data, (k % 8) * (0.25 * np.pi) + spin, out=np.empty_like(data)
    )
    records = [record(u, 0.0, params, None, t_local=0.0)]
    e0 = records[0].e0
    snapshots = [(0.0, u.data)]
    w, spin, tau, ahead = u.data, 0.0, 0.0, None
    schedule = solver_module._schedule(cfg.t_end, window, cfg.dt)
    for steps, (dt_step, k, t_local, at_seam, done) in enumerate(schedule, 1):
        mat = splitting_plan(grid, params, dt_step, cfg.m)
        half = 0.5 * dt_step
        if ahead is None:  # no observation since the last step: w owes tau
            step_input = phased(w, tau + half)
        else:
            step_input = ahead if half == tau else phased(w, half)
        w = harmonic_flow(mat, step_input)
        spin += params.omega * dt_step
        tau, ahead = half, None
        t = k * window + t_local
        record_hit = at_seam or done or steps % cfg.diagnostics_every == 0
        snapshot_hit = steps % snapshot_every == 0 or done
        if record_hit or snapshot_hit:
            w, ahead = phased_twice(w, tau, params)
            if record_hit:
                records.append(record(Field(grid, w), t, params, e0, t_local=t_local))
            if snapshot_hit:
                snapshots.append((t, lab(w, k, spin)))
        if at_seam and not done:  # seam: bookkeeping only, and the window's angle restarts
            records.append(record(Field(grid, w), t, params, None, t_local=0.0))
            e0, spin = records[-1].e0, 0.0
    return records, snapshots, lab(w, k, spin)


def assert_workspace_evolve_is_bit_equal_to_allocating_steps(grid):
    """Cadences 3 and 2 and a seam: records, snapshots and the final field
    equal the allocating loop bit for bit; nothing the loop was given or
    has handed out changes afterwards."""
    u = off_axis_state(grid)
    u_bits = u.data.copy()
    cfg = SolverConfig(dt=2.0**-4, t_end=1.5 * CUBIC.window, diagnostics_every=3)
    snapshots = []
    res = evolve(
        u, cfg, CUBIC, snapshot_every=2,
        on_snapshot=lambda t, f: snapshots.append((t, f.data, f.data.copy())),
    )
    records, ref_snapshots, ref_final = allocating_evolve(u, cfg, CUBIC, 2)

    assert res.final.window_index == 1
    assert np.array_equal(u.data, u_bits)
    assert res.records == tuple(records)
    assert [t for t, _, _ in snapshots] == [t for t, _ in ref_snapshots]
    for (_, data, at_hand_off), (_, want) in zip(snapshots, ref_snapshots):
        assert np.array_equal(data, at_hand_off)
        assert np.array_equal(data, want)
    assert np.array_equal(res.final.field.data, ref_final)


def test_workspace_evolve_is_bit_equal_to_allocating_steps_and_aliases_nothing():
    assert_workspace_evolve_is_bit_equal_to_allocating_steps(GRID)


def test_workspace_evolve_is_bit_equal_across_several_phase_slabs():
    # At n = 34 the phase runs in slabs of 14 planes with a short last one
    # of 6, which evolve and nonlinear_phase must cut alike.
    grid = GridSpec(34, 5.0)
    assert solver_module._slab_size(grid.shape) == 14 * 34 * 34
    assert_workspace_evolve_is_bit_equal_to_allocating_steps(grid)


#: Recorded every step: 40 steps of one window, and 103 steps that cross
#: a seam and end on a clipped step (79 + 24, each window's last clipped).
OBSERVED_RUNS = {
    "one-window": (GridSpec(24, 6.0), 2e-3, 40 * 2e-3),
    "seam": (GridSpec(24, 6.0), 0.01, 1.3 * CUBIC.window + 0.003),
}


@pytest.mark.parametrize(
    "run, records, snapshots",
    [("one-window", 41, 21), ("seam", 105, 53)],
    ids=["one-window", "seam"],
)
def test_an_observed_evolve_ends_where_an_unobserved_one_does(run, records, snapshots):
    # An observation hands the next step N(tau) N(tau) w in place of
    # N(dt) w, or, before a step of another length, phases the observed
    # N(tau) w again: the same field up to rounding.
    grid, dt, t_end = OBSERVED_RUNS[run]
    u = off_axis_state(grid)
    cfg = SolverConfig(dt=dt, t_end=t_end)
    plain = evolve(u, cfg, CUBIC).final.field.data
    times = []
    observed = evolve(
        u, replace(cfg, diagnostics_every=1), CUBIC,
        snapshot_every=2, on_snapshot=lambda t, f: times.append(t),
    )
    assert len(observed.records) == records and len(times) == snapshots
    gap = np.linalg.norm(observed.final.field.data - plain) / np.linalg.norm(plain)
    assert 0.0 < gap <= 1e-14


@pytest.mark.parametrize(
    "grid, dt, t_end, passes",
    [
        # 20 steps of a dyadic dt, none clipped: the first step, then one
        # pass per observation; the initial field takes none.
        (GRID, 2.0**-10, 20 * 2.0**-10, 21),
        # 40 steps of a dt the clock cannot add exactly: its rounding
        # leaves the last step 1.3e-17 short of dt, and that step is still
        # dt long (42 passes when it was clipped).
        (GRID, 5e-4, 40 * 5e-4, 41),
        # 103 steps: one pass per observation, and a phase of their own
        # for the first step, the clipped seam step, the step after the
        # seam and the clipped end.
        (*OBSERVED_RUNS["seam"], 107),
    ],
    ids=["one-window", "whole-steps", "seam"],
)
def test_an_observed_step_takes_one_phase_pass(monkeypatch, grid, dt, t_end, passes):
    calls = []
    real_kernel = solver_module._phase_into

    def counting(*args):
        calls.append(1)
        return real_kernel(*args)

    monkeypatch.setattr(solver_module, "_phase_into", counting)
    res = evolve(off_axis_state(grid), SolverConfig(dt=dt, t_end=t_end, diagnostics_every=1), CUBIC)
    assert len(calls) == passes
    assert res.final.t_global == pytest.approx(t_end, abs=1e-12)


def test_the_last_observation_takes_one_plain_phase_pass(monkeypatch):
    # No step follows the last observation, so its pass writes the
    # observed field alone; every observation before it doubles the factor
    # for the next step.
    flags = []
    real_kernel = solver_module._phase_into

    def spying(data, tau, beta, out, scratch, twice=False):
        flags.append(twice)
        return real_kernel(data, tau, beta, out, scratch, twice)

    monkeypatch.setattr(solver_module, "_phase_into", spying)
    cfg = SolverConfig(dt=2.0**-10, t_end=20 * 2.0**-10, diagnostics_every=1)
    evolve(off_axis_state(GRID), cfg, CUBIC)
    assert len(flags) == 21
    assert flags[-1] is False
    assert all(flags[1:-1])


def _evolve_memory(cfg):
    """``tracemalloc`` figures of an ``evolve`` call at n = 32, in fields.

    Returns the result, the memory it still holds after the call returns,
    and the call's peak.
    """
    grid = GridSpec(32, 8.0)
    u = off_axis_state(grid)
    evolve(u, cfg, CUBIC)  # builds the plans outside the measurement
    tracemalloc.start()
    try:
        res = evolve(u, cfg, CUBIC)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return res, held / u.data.nbytes, peak / u.data.nbytes


def test_evolve_recording_every_step_peaks_at_two_point_six_fields():
    # Two complex workspace arrays and a real one, the end state built in
    # the workspace: measured 2.61 fields at n = 32 (4.8 with a third
    # complex array and a fresh end field, 8.1 when every record rotated
    # a fresh lab field and built a conjugate copy).
    res, _, peak = _evolve_memory(SolverConfig(dt=1e-3, t_end=20e-3, diagnostics_every=1))
    assert len(res.records) == 21
    assert peak <= 1.1 * 2.61


def test_a_record_free_evolve_peaks_at_two_and_a_half_fields():
    # The workspace is 2.5 fields, and the end state lives in it.
    res, _, peak = _evolve_memory(SolverConfig(dt=1e-3, t_end=20e-3))
    assert len(res.records) == 2
    assert peak <= 2.6


def test_the_result_of_evolve_holds_one_field():
    # The end state is the only array of the workspace that outlives the
    # call: measured 1.01 fields held after 20 steps at n = 32 (2.01 when
    # the result also kept the co-rotating array to resume from).
    res, held, _ = _evolve_memory(SolverConfig(dt=1e-3, t_end=20e-3))
    assert held <= 1.1


def test_an_observed_evolve_holds_its_workspace_and_one_hand_out():
    # A record every step and a snapshot every second step, handed to a
    # callback that drops it, from an initial field built in the call:
    # the workspace, one hand-out at a time and no initial field after
    # the first step, measured 3.60 fields at n = 32 (5.61 when the loop
    # kept each snapshot until the next was allocated and held the
    # initial field to the end).
    grid = GridSpec(32, 8.0)
    cfg = SolverConfig(dt=1e-3, t_end=20e-3, diagnostics_every=1)

    def run():
        return evolve(
            off_axis_state(grid), cfg, CUBIC, snapshot_every=2, on_snapshot=lambda t, f: None
        )

    run()  # builds the plans outside the measurement
    tracemalloc.start()
    try:
        res = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.records) == 21
    assert peak / (16 * grid.n**3) <= 1.1 * 3.60


def test_evolve_reports_its_largest_phase_and_its_guard_margin():
    u = off_axis_state(GRID)
    cfg = SolverConfig(dt=1e-3, t_end=5e-3)
    res = evolve(u, cfg, CUBIC)
    # The first step phases the bare field over dt/2, every later step
    # over dt; the largest angle is beta dt max|w|^2 of some step.
    peak_sq = np.max(np.abs(u.data)) ** 2
    assert 0.5 * cfg.dt * peak_sq <= res.max_phase_per_step <= 1.01 * cfg.dt * peak_sq
    guard = cfg.blowup_factor * np.max(np.abs(u.data))
    # The allocating reference's last record reads the co-rotating end
    # field, so its linf is the end's max |w|.
    records, _, _ = allocating_evolve(u, replace(cfg, diagnostics_every=1), CUBIC, 1)
    assert res.guard_margin == pytest.approx(records[-1].linf / guard, rel=1e-14)
    assert evolve(u, cfg, PhysicsParams(omega=1.0)).max_phase_per_step == 0.0
    zero = evolve(Field(GRID, np.zeros(GRID.shape)), cfg, CUBIC)  # a zero guard
    assert (zero.max_phase_per_step, zero.guard_margin) == (0.0, 0.0)


def test_corotating_evolution_meets_lab_frame_steps_under_refinement():
    # evolve steps in the co-rotating frame and fuses the half-phases;
    # a chain of lab-frame Strang steps applies every rotation.  The
    # two agree up to the grid's commutator of rotation and harmonic flow,
    # which must vanish under n-refinement (measured 1.9e-5 at n = 32,
    # 2.3e-8 at n = 48).
    dt, steps = 2e-3, 100
    gaps = {}
    for n in (32, 48):
        u = off_axis_state(GridSpec(n, 8.0))
        res = evolve(u, SolverConfig(dt=dt, t_end=steps * dt), CUBIC)
        lab = u
        for _ in range(steps):  # N(dt/2) o R(omega dt) H(dt) o N(dt/2)
            lab = propagate_fast(nonlinear_phase(lab, 0.5 * dt, CUBIC), dt, CUBIC)
            lab = nonlinear_phase(lab, 0.5 * dt, CUBIC)
        gap = res.final.field.data - lab.data
        gaps[n] = float(np.linalg.norm(gap) / np.linalg.norm(lab.data))
    assert gaps[48] < 1e-6
    assert gaps[48] < 1e-2 * gaps[32]


@pytest.fixture
def calls(monkeypatch):
    """The step lengths ``evolve`` asks ``splitting_plan`` for, in order."""
    calls = []
    real_plan = solver_module.splitting_plan

    def counting(grid, params, t, *args):
        calls.append(t)
        return real_plan(grid, params, t, *args)

    monkeypatch.setattr(solver_module, "splitting_plan", counting)
    return calls


def test_evolve_fetches_a_plan_only_when_the_step_length_changes(calls):
    # A dyadic dt advances the window-local clock exactly, so 512 steps
    # across a seam have three lengths: dt, the clipped step, dt again.
    dt = 2.0**-9
    cfg = SolverConfig(dt=dt, t_end=CUBIC.window + 109 * dt, diagnostics_every=1)
    res = evolve(ground_state(GRID, CUBIC), cfg, CUBIC)
    assert res.final.window_index == 1
    assert len(res.records) == 1 + 512 + 1  # a record per step, two at the seam
    assert calls == [dt, pytest.approx(CUBIC.window - 402 * dt), dt]
    # A dt the clock cannot add exactly: every unclipped step is still dt
    # long, and so is the last, whose snap to the end moves it by less
    # than the time slack, so 512 steps fetch one length.
    calls.clear()
    evolve(ground_state(GRID, CUBIC), SolverConfig(dt=1e-3, t_end=0.512), CUBIC)
    assert calls == [1e-3]


def test_a_two_window_run_fetches_dt_one_length_per_seam_and_one_for_the_end(calls):
    # dt = 0.03 is not dyadic, so the window-local clock rounds as it
    # runs; the steps it does not clip are still exactly dt, and the run
    # is the allocating replay's bit for bit.
    dt, window = 0.03, CUBIC.window
    cfg = SolverConfig(dt=dt, t_end=2.1 * window, diagnostics_every=5)
    u = off_axis_state(GRID)
    handed = []
    res = evolve(u, cfg, CUBIC, snapshot_every=4, on_snapshot=lambda t, f: handed.append((t, f)))
    assert res.final.window_index == 2
    seam = window - 26 * dt
    end = 0.1 * window - 2 * dt
    assert calls == [dt, pytest.approx(seam), dt, pytest.approx(seam), dt, pytest.approx(end)]
    assert max(calls) <= dt
    records, snapshots, final = allocating_evolve(u, cfg, CUBIC, 4)
    assert res.records == tuple(records)
    assert [t for t, _ in handed] == [t for t, _ in snapshots]
    for (_, got), (_, want) in zip(handed, snapshots):
        assert np.array_equal(got.data, want)
    assert np.array_equal(res.final.field.data, final)


def test_a_snapshot_cadence_without_a_callback_is_refused():
    # Nothing keeps a snapshot but the callback, so a cadence with nowhere
    # to go is a caller's error, raised before any work.
    cfg = SolverConfig(scheme="strang", dt=1e-2, t_end=0.1)
    with pytest.raises(ValueError, match="on_snapshot"):
        evolve(off_axis_state(GRID), cfg, CUBIC, snapshot_every=3)


def assert_a_collecting_callback_gets_the_first_field_the_cadence_and_the_end_state(every, steps):
    """The callback is handed, in order: a copy of the initial field at
    t = 0, the lab field at every cadence step, and the end state once;
    the fields are the allocating replay's bit for bit."""
    cfg = SolverConfig(scheme="strang", dt=1e-2, t_end=0.1, diagnostics_every=1)
    u = off_axis_state(GRID)
    collected = []
    res = evolve(u, cfg, CUBIC, snapshot_every=every, on_snapshot=lambda t, f: collected.append((t, f)))
    assert [t for t, _ in collected] == [res.records[k].t for k in steps]
    assert all(isinstance(f, Field) for _, f in collected)
    first, last = collected[0][1], collected[-1][1]
    assert np.array_equal(first.data, u.data) and not np.shares_memory(first.data, u.data)
    assert last is res.final.field and collected[-1][0] == res.final.t_global
    _, snapshots, final = allocating_evolve(u, cfg, CUBIC, every)
    assert [t for t, _ in snapshots] == [t for t, _ in collected]
    for (_, got), (_, want) in zip(collected, snapshots):
        assert np.array_equal(got.data, want)
    assert np.array_equal(last.data, final)


def test_evolve_streams_snapshots_to_a_callback():
    assert_a_collecting_callback_gets_the_first_field_the_cadence_and_the_end_state(3, [0, 3, 6, 9, 10])


def test_evolve_snapshot_cadence():
    # The last step falls on the cadence: the end state is handed once.
    assert_a_collecting_callback_gets_the_first_field_the_cadence_and_the_end_state(5, [0, 5, 10])


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


@pytest.mark.parametrize(
    "peak, factor",
    # A NaN peak fails every comparison; an inf one passed a guard whose
    # square overflows too.
    [(np.nan, 1e3), (np.inf, 1e300)],
    ids=["nan", "inf-past-an-infinite-square"],
)
def test_blowup_guard_trips_on_a_peak_that_is_not_finite(monkeypatch, peak, factor):
    real_kernel = solver_module._phase_into

    def poisoned(*args):
        real_kernel(*args)
        return peak

    monkeypatch.setattr(solver_module, "_phase_into", poisoned)
    cfg = SolverConfig(dt=1e-3, t_end=5e-3, blowup_factor=factor)
    with pytest.raises(BlowupDetected, match="at t = 0.000000 \\(step 0\\)"):
        evolve(off_axis_state(GRID), cfg, CUBIC)


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
    # Node 1 is S(t_1) u, the flow over the first node gap.
    step = propagate_fast(u, res.times[1], LINEAR, 4)
    assert np.array_equal(res.fields[1].data, step.data)
    assert lp_norm(res.fields[-1], 2) == pytest.approx(1.0, abs=1e-9)


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


def collocation_rule(n_nodes: int, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto nodes on ``[0, T]`` and ``S[k, j] = Int_0^{t_k} l_j``.

    ``l_j`` is node ``j``'s Lagrange polynomial, evaluated as a product and
    integrated by Gauss-Legendre quadrature, exact for its degree.  The
    last row holds the Clenshaw-Curtis weights.
    """
    times = 0.5 * T * (1.0 - np.cos(np.pi * np.arange(n_nodes) / (n_nodes - 1)))
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    S = np.zeros((n_nodes, n_nodes))
    for k in range(1, n_nodes):
        s = 0.5 * times[k] * (x + 1.0)
        for j in range(n_nodes):
            others = np.delete(times, j)
            basis = np.prod((s[:, None] - others) / (times[j] - others), axis=1)
            S[k, j] = 0.5 * times[k] * (w @ basis)
    return times, S


def test_one_picard_iteration_equals_the_direct_collocation_sum():
    # The iteration runs in the co-rotating frame and in the interaction
    # picture, so the reference is
    # u_k = R(omega t_k) M_k[u0 - i beta sum_j S_kj M_j^H |M_j u0|^2 M_j u0]
    # with M_k the flows over the node gaps 1..k applied in turn and M_j^H
    # their adjoints in reverse order, every one afresh.
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
    times, S = collocation_rule(n_nodes, T)
    assert np.allclose(res.times, times, rtol=1e-14, atol=0.0)
    gaps = [splitting_plan(grid, CUBIC, b - a, m) for a, b in zip(times, times[1:])]

    def flow(data, k):
        for mat in gaps[:k]:
            data = harmonic_flow(mat, data)
        return data

    def pull_back(data, k):
        for mat in reversed(gaps[:k]):
            data = harmonic_flow(mat.conj().T, data)
        return data

    free = [flow(u0.data, k) for k in range(n_nodes)]
    pulled = [pull_back(np.abs(f) ** 2 * f, k) for k, f in enumerate(free)]
    for k in range(n_nodes):
        duhamel = sum(S[k, j] * pulled[j] for j in range(n_nodes))
        flowed = flow(u0.data - 1j * CUBIC.beta * duhamel, k)
        want = rotate_pattern(grid, flowed, CUBIC.omega * times[k], out=np.empty_like(flowed))
        err = np.linalg.norm(res.fields[k].data - want) / np.linalg.norm(want)
        assert err < 1e-12


@pytest.mark.parametrize("params", [CUBIC, LINEAR])
def test_picard_rotates_each_returned_node_once(monkeypatch, params):
    calls = []
    real_rotate = solver_module.rotate_pattern

    def counting(*args, **kwargs):
        calls.append(1)
        return real_rotate(*args, **kwargs)

    monkeypatch.setattr(solver_module, "rotate_pattern", counting)
    cfg = SolverConfig(scheme="picard", t_end=0.3, m=4, picard=PicardConfig(quad_nodes=9))
    res = picard_solve(ground_state(GRID, params), 0.3, cfg, params)
    assert res.iterations >= (5 if params.beta else 1)
    assert len(calls) == 9


def test_corotating_picard_distance_meets_the_lab_frame_distance_under_refinement():
    # picard_solve measures its distances on co-rotating node differences.
    # The lab-frame distance of the rotated differences (the returned
    # iterates 3 and 2) differs by the shear rotation's band-limit gap
    # alone, which falls with n: measured 3.2e-3, 2.5e-7 and 2.3e-11.
    T, nodes = np.pi / 8.0, 9
    weights = collocation_rule(nodes, T)[1][-1]  # Clenshaw-Curtis
    gaps = []
    for n in (16, 32, 48):
        u0 = ground_state(GridSpec(n, 5.0), CUBIC)
        runs = [
            picard_solve(
                u0,
                T,
                SolverConfig(scheme="picard", t_end=T, picard=PicardConfig(quad_nodes=nodes, max_iter=k)),
                CUBIC,
            )
            for k in (2, 3)
        ]
        lab = distance(runs[1].fields, runs[0].fields, weights, runs[1].times)
        gaps.append(abs(runs[1].distances[-1] - lab) / lab)
    assert gaps[1] < 1e-4
    assert gaps[0] > gaps[1] > gaps[2]


def test_picard_holds_at_most_the_guarded_fields_per_node():
    # The working-set guard counts config.PICARD_NODE_FIELDS per node;
    # the tracemalloc peak's slope in the node count must not exceed it
    # (measured 2.00 fields per node at n = 16: the iterate and G).
    from rotor_gpe.config import PICARD_NODE_FIELDS

    u0 = ground_state(GRID, CUBIC)
    peaks = {}
    for nodes in (17, 33):
        cfg = SolverConfig(scheme="picard", t_end=0.3, picard=PicardConfig(quad_nodes=nodes))
        picard_solve(u0, np.pi / 8.0, cfg, CUBIC)  # builds the plan outside the measurement
        tracemalloc.start()
        try:
            res = picard_solve(u0, np.pi / 8.0, cfg, CUBIC)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.iterations == 7
        peaks[nodes] = peak / u0.data.nbytes
    slope = (peaks[33] - peaks[17]) / 16
    assert 1.0 < slope <= PICARD_NODE_FIELDS


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


def distance(u, v, weights, times):
    """:func:`workspace_distance` of the node differences of two field lists."""
    nodes = [(a.data - b.data, t, w) for a, b, w, t in zip(u, v, weights, times)]
    return workspace_distance(u[0].grid, nodes, CUBIC)


def node_l4(data: np.ndarray, grid: GridSpec) -> float:
    """``||data||_4`` by the textbook sum: the reference for the closed-form norms."""
    return float((np.sum(np.abs(data) ** 4.0) * grid.cell_volume) ** 0.25)


def test_workspace_distance_takes_one_gradient_per_node(monkeypatch):
    # J and H share the node's gradient, three partials taken in turn into
    # one workspace array; each built from its own gradient, as the dressed
    # operators do when given none, the distance is the same bit for bit.
    rng = np.random.default_rng(63)
    times = (0.0, 0.05, 0.1)
    weights = (0.025, 0.05, 0.025)
    u = [random_smooth_field(GRID, rng, width=GRID.extent / 6.0) for _ in times]
    v = [random_smooth_field(GRID, rng, width=GRID.extent / 6.0) for _ in times]
    gamma = strichartz_exponent(4.0)
    sums = [0.0, 0.0, 0.0]
    for u_i, v_i, w_i, t_i in zip(u, v, weights, times):
        delta = Field(GRID, u_i.data - v_i.data)
        mags = [
            delta.data,
            np.sqrt(sum(np.abs(c.data) ** 2 for c in galilean_momentum(delta, t_i, CUBIC))),
            np.sqrt(sum(np.abs(c.data) ** 2 for c in galilean_position(delta, t_i, CUBIC))),
        ]
        for k, mag in enumerate(mags):
            sums[k] += w_i * node_l4(mag, GRID) ** gamma
    want = sum(s ** (1.0 / gamma) for s in sums)

    calls = []
    real_partial = solver_module._partial

    def counting(grid, data, axis, out=None):
        calls.append(axis)
        return real_partial(grid, data, axis, out=out)

    monkeypatch.setattr(solver_module, "_partial", counting)
    got = distance(u, v, weights, times)
    assert calls == [0, 1, 2] * len(times)
    assert got == want


def test_workspace_distance_is_a_homogeneous_metric():
    rng = np.random.default_rng(62)
    times = (0.0, 0.05, 0.1)
    weights = (0.025, 0.05, 0.025)
    mk = lambda: random_smooth_field(GRID, rng, width=GRID.extent / 6.0)
    u = [mk() for _ in times]
    v = [mk() for _ in times]
    w = [mk() for _ in times]
    d = lambda a, b: distance(a, b, weights, times)
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
