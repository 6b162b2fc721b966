"""Nonlinear stepping: splitting, windowed bookkeeping, fixed-point solver."""

import tracemalloc
import warnings
from dataclasses import astuple, replace

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
    energy_e0,
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
    assert res.final.e0_window == a.e0


def test_a_bare_initial_field_takes_one_moments_pass(monkeypatch):
    # The energy reference of window 0 is the opening record's e0, so the
    # initial field is not passed over once more for energy_e0 (a one-step
    # run took three passes with it: energy, t = 0 record, end record).
    u = off_axis_state(GRID)
    e0 = energy_e0(u, CUBIC)
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
    assert res.final.e0_window == e0
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
        out[start + t_local] = (corotating, rotate_pattern(grid, corotating, theta))
    return out


def test_every_observed_field_is_the_rotated_phased_frame():
    # Records and snapshots at off-step cadences, across a seam: each
    # record must read the co-rotating field N(tau) w at its own time, and
    # each field handed out must be R(theta) N(tau) w, never a field left
    # over from an earlier observation.
    u = off_axis_state(GRID)
    dt, t_end = 0.05, 1.3 * CUBIC.window
    cfg = SolverConfig(dt=dt, t_end=t_end, diagnostics_every=3)
    res = evolve(u, cfg, CUBIC, snapshot_every=2)
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
    handed = [(t, f.data) for t, f in res.snapshots]
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
    :func:`nonlinear_phase` and the allocating forms of ``harmonic_flow``
    and ``rotate_pattern``, and every record is :func:`record` of a fresh
    co-rotating field; the clock arithmetic is ``evolve``'s, so that each
    step uses the same plan.  An observation takes ``(N(tau) w, N(tau)
    N(tau) w)`` from :func:`phased_twice` and reads the first; the next
    step's input is the second if its half-step is ``tau``, and otherwise
    the observed field phased by that half-step.  The frame runs on
    across the seam, whose two records read the same field.  Returns
    ``(records, snapshots, final lab array)``.
    """
    grid, window = u.grid, params.window
    phased = lambda data, tau: nonlinear_phase(Field(grid, data), tau, params).data
    records = [record(u, 0.0, params, energy_e0(u, params), t_local=0.0)]
    e0 = records[0].e0
    snapshots = [(0.0, u.data)]
    w, theta, tau, ahead = u.data, 0.0, 0.0, None
    k, t_local, t_global, steps = 0, 0.0, 0.0, 0
    while t_global < cfg.t_end - 1e-13:
        if window - t_local <= 1e-13:  # seam: bookkeeping only
            k, t_local = k + 1, 0.0
            e0 = records[-1].e0
            records.append(record(Field(grid, w), t_global, params, e0, t_local=0.0))
            continue
        unclipped = t_local + cfg.dt
        next_local = min(unclipped, window)
        end_local = cfg.t_end - k * window
        if next_local > end_local - 1e-13 and end_local <= window + 1e-13:
            next_local = min(end_local, window)
        dt_step = cfg.dt if abs(next_local - unclipped) <= 1e-13 else next_local - t_local
        mat = splitting_plan(grid, params, dt_step, cfg.m)
        half = 0.5 * dt_step
        if ahead is None:  # no observation since the last step: w owes tau
            step_input = phased(w, tau + half)
        else:
            step_input = ahead if half == tau else phased(w, half)
        w = harmonic_flow(mat, step_input)
        theta += params.omega * dt_step
        tau, ahead = half, None
        at_seam = next_local >= window - 1e-13
        t_global = k * window + next_local
        t_local = window if at_seam else next_local
        steps += 1
        done = t_global >= cfg.t_end - 1e-13
        record_hit = at_seam or done or steps % cfg.diagnostics_every == 0
        snapshot_hit = steps % snapshot_every == 0 or done
        if record_hit or snapshot_hit:
            w, ahead = phased_twice(w, tau, params)
            if record_hit:
                records.append(record(Field(grid, w), t_global, params, e0, t_local=t_local))
            if snapshot_hit:
                snapshots.append((t_global, rotate_pattern(grid, w, theta)))
    return records, snapshots, rotate_pattern(grid, w, theta)


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
    observed = evolve(u, replace(cfg, diagnostics_every=1), CUBIC, snapshot_every=2)
    assert len(observed.records) == records and len(observed.snapshots) == snapshots
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
    res = evolve(u, cfg, CUBIC, snapshot_every=4)
    assert res.final.window_index == 2
    seam = window - 26 * dt
    end = 0.1 * window - 2 * dt
    assert calls == [dt, pytest.approx(seam), dt, pytest.approx(seam), dt, pytest.approx(end)]
    assert max(calls) <= dt
    records, snapshots, final = allocating_evolve(u, cfg, CUBIC, 4)
    assert res.records == tuple(records)
    assert [t for t, _ in res.snapshots] == [t for t, _ in snapshots]
    for (_, got), (_, want) in zip(res.snapshots, snapshots):
        assert np.array_equal(got.data, want)
    assert np.array_equal(res.final.field.data, final)


def test_evolve_streams_snapshots_to_a_callback():
    cfg = SolverConfig(scheme="strang", dt=1e-2, t_end=0.1)
    u = off_axis_state(GRID)
    collected = evolve(u, cfg, CUBIC, snapshot_every=3)
    streamed = []
    res = evolve(
        u, cfg, CUBIC, snapshot_every=3, on_snapshot=lambda t, f: streamed.append((t, f))
    )
    assert res.snapshots == ()
    assert [t for t, _ in streamed] == [t for t, _ in collected.snapshots]
    for (_, a), (_, b) in zip(streamed, collected.snapshots):
        assert np.array_equal(a.data, b.data)


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
        want = rotate_pattern(
            grid, flow(u0.data - 1j * CUBIC.beta * duhamel, k), CUBIC.omega * times[k]
        )
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
