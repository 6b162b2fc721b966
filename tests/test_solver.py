"""Nonlinear stepping: splitting, windowed bookkeeping, fixed-point solver."""

import tracemalloc
import warnings
from dataclasses import astuple, replace

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
    coherent_state,
    energy_e0,
    evolve,
    galilean_momentum,
    galilean_position,
    ground_state,
    nonlinear_phase,
    picard_solve,
    propagate_fast,
    random_smooth_field,
    record,
    strang_step,
    workspace_distance,
)
import rotor_gpe.diagnostics as diagnostics_module
import rotor_gpe.solver as solver_module
from rotor_gpe.propagator import harmonic_flow, rotate_pattern, splitting_plan
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


def test_evolve_resume_is_bitwise_identical():
    u = ground_state(GRID, CUBIC)
    full = evolve(u, SolverConfig(scheme="strang", dt=2.0**-9, t_end=0.125), CUBIC)
    half = evolve(u, SolverConfig(scheme="strang", dt=2.0**-9, t_end=0.0625), CUBIC)
    resumed = evolve(
        half.final, SolverConfig(scheme="strang", dt=2.0**-9, t_end=0.125), CUBIC
    )
    assert np.array_equal(resumed.final.field.data, full.final.field.data)
    assert resumed.final.t_global == full.final.t_global


def off_axis_state(grid, params=CUBIC):
    """Coherent state off the x3 axis, so the frame rotation is visible."""
    return coherent_state(grid, params, center=(1.0, 0.5, 0.2), kick=(0.3, -0.5, 0.2))


def test_evolve_resume_after_a_seam_is_bitwise_identical():
    # The split point lies in the second window, so the handed-over state
    # carries a frame that has run on across the seam (past pi/4).
    u = off_axis_state(GRID)
    dt = 2.0**-6
    full = evolve(u, SolverConfig(dt=dt, t_end=1.5 * CUBIC.window), CUBIC)
    half = evolve(u, SolverConfig(dt=dt, t_end=CUBIC.window + 0.25), CUBIC)
    assert half.final.window_index == 1
    assert half.final.frame_angle > 0.0 and half.final.pending_phase > 0.0
    resumed = evolve(
        half.final, SolverConfig(dt=dt, t_end=1.5 * CUBIC.window), CUBIC
    )
    assert np.array_equal(resumed.final.field.data, full.final.field.data)
    assert resumed.final.t_global == full.final.t_global


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


def allocating_evolve(u, cfg, params, snapshot_every):
    """``evolve``'s step and observation sequence with allocating calls only.

    Every step and observation builds fresh arrays through the allocating
    forms of ``_phased``, ``harmonic_flow`` and
    ``rotate_pattern``, and every record is :func:`record` of a fresh
    co-rotating field; the clock arithmetic is ``evolve``'s, so that each
    step uses the same plan.  The frame runs on across the seam, whose two
    records read the same field.  Returns ``(records, snapshots, final lab
    array)``.
    """
    grid, window, beta = u.grid, params.window, params.beta
    phased = solver_module._phased
    records = [record(u, 0.0, params, energy_e0(u, params), t_local=0.0)]
    e0 = records[0].e0
    snapshots = [(0.0, u.data)]
    w, theta, tau = u.data, 0.0, 0.0
    corotating = u.data
    k, t_local, t_global, steps = 0, 0.0, 0.0, 0
    while t_global < cfg.t_end - 1e-13:
        if window - t_local <= 1e-13:  # seam: bookkeeping only
            k, t_local = k + 1, 0.0
            e0 = records[-1].e0
            records.append(record(Field(grid, corotating), t_global, params, e0, t_local=0.0))
            continue
        next_local = min(t_local + cfg.dt, window)
        end_local = cfg.t_end - k * window
        if next_local > end_local - 1e-13 and end_local <= window + 1e-13:
            next_local = min(end_local, window)
        dt_step = next_local - t_local
        mat = splitting_plan(grid, params, dt_step, cfg.m)
        w = harmonic_flow(mat, phased(w, tau + 0.5 * dt_step, beta))
        theta += params.omega * dt_step
        tau = 0.5 * dt_step
        at_seam = next_local >= window - 1e-13
        t_global = k * window + next_local
        t_local = window if at_seam else next_local
        steps += 1
        done = t_global >= cfg.t_end - 1e-13
        record_hit = at_seam or done or steps % cfg.diagnostics_every == 0
        snapshot_hit = steps % snapshot_every == 0 or done
        if record_hit or snapshot_hit:
            corotating = phased(w, tau, beta)
            if record_hit:
                records.append(
                    record(Field(grid, corotating), t_global, params, e0, t_local=t_local)
                )
            if snapshot_hit:
                snapshots.append((t_global, rotate_pattern(grid, corotating, theta)))
    return records, snapshots, rotate_pattern(grid, corotating, theta)


def test_workspace_evolve_is_bit_equal_to_allocating_steps_and_aliases_nothing():
    # Cadences 3 and 2 and a seam: records, snapshots and the final field
    # must equal the allocating loop bit for bit; nothing the loop was
    # given or has handed out may change afterwards.
    u = off_axis_state(GRID)
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

    # Resume from a state inside the second window: bit-identical, and the
    # state resumed from keeps its co-rotating array.
    half = evolve(u, replace(cfg, t_end=CUBIC.window + 0.25), CUBIC, snapshot_every=2)
    corotating = half.final.corotating.copy()
    resumed = evolve(half.final, cfg, CUBIC, snapshot_every=2)
    assert np.array_equal(half.final.corotating, corotating)
    assert np.array_equal(resumed.final.field.data, res.final.field.data)
    assert np.array_equal(resumed.final.corotating, res.final.corotating)


def _evolve_peak(cfg):
    """``tracemalloc`` peak of an ``evolve`` call at n = 32, in fields."""
    grid = GridSpec(32, 8.0)
    u = off_axis_state(grid)
    evolve(u, cfg, CUBIC)  # builds the plans outside the measurement
    tracemalloc.start()
    try:
        res = evolve(u, cfg, CUBIC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return res, peak / u.data.nbytes


def test_evolve_recording_every_step_peaks_at_two_point_six_fields():
    # Two complex workspace arrays and a real one, the end state built in
    # the workspace: measured 2.61 fields at n = 32 (4.8 with a third
    # complex array and a fresh end field, 8.1 when every record rotated
    # a fresh lab field and built a conjugate copy).
    res, peak = _evolve_peak(SolverConfig(dt=1e-3, t_end=20e-3, diagnostics_every=1))
    assert len(res.records) == 21
    assert peak <= 1.1 * 2.61


def test_a_record_free_evolve_peaks_at_two_and_a_half_fields():
    # The workspace is 2.5 fields, and the end state lives in it.
    res, peak = _evolve_peak(SolverConfig(dt=1e-3, t_end=20e-3))
    assert len(res.records) == 2
    assert peak <= 2.6


def test_evolve_reports_its_largest_phase_and_its_guard_margin():
    u = off_axis_state(GRID)
    cfg = SolverConfig(dt=1e-3, t_end=5e-3)
    res = evolve(u, cfg, CUBIC)
    # The first step phases the bare field over dt/2, every later step
    # over dt; the largest angle is beta dt max|w|^2 of some step.
    peak_sq = np.max(np.abs(u.data)) ** 2
    assert 0.5 * cfg.dt * peak_sq <= res.max_phase_per_step <= 1.01 * cfg.dt * peak_sq
    guard = cfg.blowup_factor * np.max(np.abs(u.data))
    assert res.guard_margin == pytest.approx(np.max(np.abs(res.final.corotating)) / guard, rel=1e-14)
    assert evolve(u, cfg, PhysicsParams(omega=1.0)).max_phase_per_step == 0.0
    zero = evolve(Field(GRID, np.zeros(GRID.shape)), cfg, CUBIC)  # a zero guard
    assert (zero.max_phase_per_step, zero.guard_margin) == (0.0, 0.0)


def test_corotating_evolution_meets_lab_frame_steps_under_refinement():
    # evolve steps in the co-rotating frame and fuses the half-phases;
    # a chain of lab-frame strang_step calls applies every rotation.  The
    # two agree up to the grid's commutator of rotation and harmonic flow,
    # which must vanish under n-refinement (measured 1.9e-5 at n = 32,
    # 2.3e-8 at n = 48).
    dt, steps = 2e-3, 100
    gaps = {}
    for n in (32, 48):
        u = off_axis_state(GridSpec(n, 8.0))
        res = evolve(u, SolverConfig(dt=dt, t_end=steps * dt), CUBIC)
        lab = u
        for _ in range(steps):
            lab = strang_step(lab, dt, CUBIC)
        gap = res.final.field.data - lab.data
        gaps[n] = float(np.linalg.norm(gap) / np.linalg.norm(lab.data))
    assert gaps[48] < 1e-6
    assert gaps[48] < 1e-2 * gaps[32]


def test_evolve_fetches_a_plan_only_when_the_step_length_changes(monkeypatch):
    calls = []
    real_plan = solver_module.splitting_plan

    def counting(grid, params, t, *args):
        calls.append(t)
        return real_plan(grid, params, t, *args)

    monkeypatch.setattr(solver_module, "splitting_plan", counting)
    # A dyadic dt advances the window-local clock exactly, so 512 steps
    # across a seam have three lengths: dt, the clipped step, dt again.
    dt = 2.0**-9
    cfg = SolverConfig(dt=dt, t_end=CUBIC.window + 109 * dt, diagnostics_every=1)
    res = evolve(ground_state(GRID, CUBIC), cfg, CUBIC)
    assert res.final.window_index == 1
    assert len(res.records) == 1 + 512 + 1  # a record per step, two at the seam
    assert calls == [dt, pytest.approx(CUBIC.window - 402 * dt), dt]
    # Otherwise the clock's rounding moves the step length in its last
    # bits now and then; each change, and only a change, fetches the plan
    # of that length, so the steps are the parent's bit for bit.
    calls.clear()
    evolve(ground_state(GRID, CUBIC), SolverConfig(dt=1e-3, t_end=0.512), CUBIC)
    assert 2 <= len(calls) < 20
    assert all(a != b for a, b in zip(calls, calls[1:]))
    assert calls == pytest.approx([1e-3] * len(calls), rel=1e-12)


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


def test_evolve_rejects_non_advancing_targets():
    u = ground_state(GRID, CUBIC)
    st = evolve(u, SolverConfig(scheme="strang", dt=0.05, t_end=0.5), CUBIC).final
    assert st.t_global == pytest.approx(0.5)
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
    # The iteration runs in the co-rotating frame, so the reference is
    # u_k = R(omega t_k)[H^k u0 - i beta sum_j w_kj H^(k-j) |H^j u0|^2 H^j u0]
    # with H the harmonic flow over one node gap, every H^(k-j) applied
    # afresh as k - j gap flows.
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
    mat = splitting_plan(grid, CUBIC, delta, m)

    def flow(data, gaps):
        for _ in range(gaps):
            data = harmonic_flow(mat, data)
        return data

    free = [flow(u0.data, k) for k in range(n_nodes)]
    cubic = [np.abs(f) ** 2 * f for f in free]
    for k in range(n_nodes):
        duhamel = np.zeros(grid.shape, dtype=complex)
        if k > 0:  # the trapezoid sum over [0, t_0] is empty
            for j in range(k + 1):
                w = 0.5 * delta if j in (0, k) else delta
                duhamel += w * flow(cubic[j], k - j)
        want = rotate_pattern(
            grid, free[k] - 1j * CUBIC.beta * duhamel, CUBIC.omega * k * delta
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
    # alone, which falls with n: measured 3.3e-3, 1.9e-7 and 2.8e-11.
    T, nodes = np.pi / 8.0, 9
    delta = T / (nodes - 1)
    weights = [0.5 * delta] + [delta] * (nodes - 2) + [0.5 * delta]
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
        lab = workspace_distance(
            runs[1].fields, runs[0].fields, 4.0, weights, times=runs[1].times, params=CUBIC
        )
        gaps.append(abs(runs[1].distances[-1] - lab) / lab)
    assert gaps[1] < 1e-4
    assert gaps[0] > gaps[1] > gaps[2]


def test_picard_holds_at_most_the_guarded_fields_per_node():
    # The working-set guard counts config.PICARD_NODE_FIELDS per node;
    # the tracemalloc peak's slope in the node count must not exceed it
    # (measured 2.01 fields per node at n = 16).
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


def node_lp(data: np.ndarray, grid: GridSpec, rho: float) -> float:
    """``||data||_rho`` by the textbook sum: the reference for the closed-form norms."""
    return float((np.sum(np.abs(data) ** rho) * grid.cell_volume) ** (1.0 / rho))


def test_workspace_distance_takes_one_gradient_per_node(monkeypatch):
    # J and H share the node's gradient, three partials taken in turn into
    # one workspace array; each built from its own gradient, as the dressed
    # operators do when given none, the distance is the same bit for bit.
    rng = np.random.default_rng(63)
    times = (0.0, 0.05, 0.1)
    weights = (0.025, 0.05, 0.025)
    u = [random_smooth_field(GRID, rng, width=GRID.extent / 6.0) for _ in times]
    v = [random_smooth_field(GRID, rng, width=GRID.extent / 6.0) for _ in times]
    gamma = admissible_gamma(4.0)
    sums = [0.0, 0.0, 0.0]
    for u_i, v_i, w_i, t_i in zip(u, v, weights, times):
        delta = Field(GRID, u_i.data - v_i.data)
        mags = [
            delta.data,
            np.sqrt(sum(np.abs(c.data) ** 2 for c in galilean_momentum(delta, t_i, CUBIC))),
            np.sqrt(sum(np.abs(c.data) ** 2 for c in galilean_position(delta, t_i, CUBIC))),
        ]
        for k, mag in enumerate(mags):
            sums[k] += w_i * node_lp(mag, GRID, 4.0) ** gamma
    want = sum(s ** (1.0 / gamma) for s in sums)

    calls = []
    real_partial = solver_module._partial

    def counting(grid, data, axis, out=None):
        calls.append(axis)
        return real_partial(grid, data, axis, out=out)

    monkeypatch.setattr(solver_module, "_partial", counting)
    got = workspace_distance(u, v, 4.0, weights, times=times, params=CUBIC)
    assert calls == [0, 1, 2] * len(times)
    assert got == want


@pytest.mark.parametrize("rho", [2.5, 3.0, 5.5])
def test_workspace_distance_matches_the_dressed_construction_off_rho_4(rho):
    # The closed-form moduli hold for every admissible exponent, not only
    # the rho = 4 of the picard runs.
    rng = np.random.default_rng(64)
    times = (0.0, 0.05, 0.1)
    weights = (0.025, 0.05, 0.025)
    u = [random_smooth_field(GRID, rng, width=GRID.extent / 6.0) for _ in times]
    v = [random_smooth_field(GRID, rng, width=GRID.extent / 6.0) for _ in times]
    gamma = admissible_gamma(rho)
    sums = [0.0, 0.0, 0.0]
    for u_i, v_i, w_i, t_i in zip(u, v, weights, times):
        delta = Field(GRID, u_i.data - v_i.data)
        mags = [
            delta.data,
            np.sqrt(sum(np.abs(c.data) ** 2 for c in galilean_momentum(delta, t_i, CUBIC))),
            np.sqrt(sum(np.abs(c.data) ** 2 for c in galilean_position(delta, t_i, CUBIC))),
        ]
        for k, mag in enumerate(mags):
            sums[k] += w_i * node_lp(mag, GRID, rho) ** gamma
    want = sum(s ** (1.0 / gamma) for s in sums)
    got = workspace_distance(u, v, rho, weights, times=times, params=CUBIC)
    assert got == pytest.approx(want, rel=1e-13)


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
