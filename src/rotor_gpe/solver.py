"""Nonlinear time evolution by two independent schemes.

The equation combines the one-window linear flow (solved exactly by the
propagator backends) with the cubic phase nonlinearity.  Two schemes are
implemented so each can falsify the other:

* **Strang splitting** — ``N(dt/2) o S(dt) o N(dt/2)`` per step, where
  ``N(tau) v = exp(-i beta |v|^2 tau) v`` is the exact flow of the
  nonlinear part (the modulus is pointwise invariant, so the phase uses
  the initial modulus) and ``S`` is the fast spectral propagator.  Mass
  is conserved to machine precision; the global error is second order
  in ``dt``.

* **Duhamel fixed-point iteration** — the integral form
  ``u(t) = S(t) u0 - i beta Int_0^t S(t-s) |u|^2 u(s) ds`` is iterated
  on a trapezoid node set within one window, starting from the free
  evolution, until the workspace distance (the triple space-time norm
  of the difference, plain + J-dressed + H-dressed) stops moving.

Both schemes run in the frame co-rotating with the trap.  The linear
flow is ``S(t) = R(omega t) H(t)``, the harmonic flow ``H`` followed by
the rotation ``R`` about x3, and ``R`` commutes with ``H`` and with
``|u|^2``.  So ``u(t) = R(omega t) v(t)`` where ``v`` solves the
non-rotating equation.  Every diagnostics quadrature is invariant under
``R`` (see :mod:`rotor_gpe.diagnostics`), so a record reads the
co-rotating field (its ``linf`` is that field's grid maximum), and the
rotation is applied only to a field that is handed out (a snapshot, the
end state).  Between observations the Strang loop also fuses the
trailing half-phase of one step with the leading half-phase of the
next, ``N(dt/2) N(dt/2) = N(dt)``, which is exact because ``|v|`` is
invariant under the phase.

The linear kernel is only valid on ``(0, pi/(4 omega)]``, so long
evolutions proceed window by window: steps are clipped at seams, and at
each seam only bookkeeping restarts — the window-local clock returns to
zero and the energy reference for the pseudo-conformal balance is
re-captured.  The field and the co-rotating frame run on unchanged, so
the frame angle grows without bound.
"""

from __future__ import annotations

import logging
import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .diagnostics import DiagnosticsRecord, record_from_moments
from .errors import (
    BlowupDetected,
    BoundaryTruncation,
    ConfigInvalid,
    InvalidExponent,
    NoContraction,
    WindowViolation,
)
from .grid import (
    Field,
    GridSpec,
    PhysicsParams,
    _moments,
    _Moments,
    _partial,
    boundary_mass_fraction,
    lp_norm,
)
from .propagator import (
    harmonic_flow,
    propagate_fast,
    rotate_pattern,
    splitting_plan,
    strichartz_exponent,
)

__all__ = [
    "PicardConfig",
    "SolverConfig",
    "TrajectoryState",
    "EvolveResult",
    "PicardResult",
    "nonlinear_phase",
    "strang_step",
    "evolve",
    "picard_solve",
    "workspace_distance",
    "admissible_gamma",
]

logger = logging.getLogger(__name__)

#: Time-comparison slack for seam and end-point bookkeeping.
_TIME_EPS = 1e-13


def admissible_gamma(rho: float) -> float:
    """Time exponent paired with ``rho`` on the open range ``(2, 6)``.

    The pairing is :func:`~rotor_gpe.propagator.strichartz_exponent`;
    this only rejects ``rho = 2``, which that function admits.
    """
    if not 2.0 < rho < 6.0:
        raise InvalidExponent(f"rho must lie in (2, 6), got {rho}")
    return strichartz_exponent(rho)


@dataclass(frozen=True)
class PicardConfig:
    """Knobs of the Duhamel fixed-point iteration."""

    rho: float = 4.0
    tol: float = 1e-10
    max_iter: int = 25
    quad_nodes: int = 33

    def __post_init__(self) -> None:
        if not 2.0 < self.rho < 6.0:
            raise ConfigInvalid(f"picard.rho: must lie in (2, 6), got {self.rho}")
        if self.tol <= 0:
            raise ConfigInvalid(f"picard.tol: must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigInvalid(f"picard.max_iter: must be >= 1, got {self.max_iter}")
        if self.quad_nodes < 8:
            raise ConfigInvalid(
                f"picard.quad_nodes: must be >= 8, got {self.quad_nodes}"
            )

    @property
    def gamma(self) -> float:
        """Derived time exponent; 8/3 for the default ``rho = 4``."""
        return admissible_gamma(self.rho)


@dataclass(frozen=True)
class SolverConfig:
    """Scheme selection and stepping parameters for :func:`evolve`."""

    scheme: str = "strang"
    dt: float = 1e-3
    t_end: float = 0.0
    m: int | None = None
    picard: PicardConfig = field(default_factory=PicardConfig)
    diagnostics_every: int = 0
    blowup_factor: float = 1e3

    def __post_init__(self) -> None:
        if self.scheme not in ("strang", "picard"):
            raise ConfigInvalid(
                f"scheme: must be 'strang' or 'picard', got {self.scheme!r}"
            )
        if self.dt <= 0:
            raise ConfigInvalid(f"dt: must be > 0, got {self.dt}")
        if self.t_end <= 0:
            raise ConfigInvalid(f"t_end: must be > 0, got {self.t_end}")
        if self.m is not None and self.m < 1:
            raise ConfigInvalid(f"m: must be >= 1 when given, got {self.m}")
        if self.diagnostics_every < 0:
            raise ConfigInvalid(
                f"diagnostics_every: must be >= 0, got {self.diagnostics_every}"
            )
        if self.blowup_factor <= 1.0:
            raise ConfigInvalid(
                f"blowup_factor: must be > 1, got {self.blowup_factor}"
            )


@dataclass(frozen=True)
class TrajectoryState:
    """Field plus window bookkeeping at one instant of a trajectory.

    ``t_global = window_index * window + t_local`` with
    ``t_local in [0, window]``; ``e0_window`` is the energy captured at
    the start of the current window (the reference of the
    pseudo-conformal balance).

    The last three fields carry :func:`evolve`'s co-rotating frame, so a
    resumed call continues with the very same arithmetic:
    ``field = R(frame_angle) N(pending_phase) corotating``.  The frame
    runs on across seams, so ``frame_angle`` is ``omega`` times the time
    since the frame started and may take any value.  ``None`` (a bare
    field) means the frame starts here, at angle and phase 0.
    """

    field: Field
    t_global: float
    window_index: int
    t_local: float
    e0_window: float
    corotating: np.ndarray | None = field(default=None, compare=False, repr=False)
    frame_angle: float = field(default=0.0, compare=False)
    pending_phase: float = field(default=0.0, compare=False)


def _modulus_sq(
    data: np.ndarray, real: np.ndarray | None, scratch: np.ndarray | None
) -> np.ndarray:
    """``|data|^2`` as ``re^2 + im^2``, written into ``real``.

    ``scratch`` is a float array of the field's shape (the real view of
    a complex array will do) that is overwritten.
    """
    abs2 = np.multiply(data.real, data.real, out=real)
    abs2 += np.multiply(data.imag, data.imag, out=scratch)
    return abs2


def _apply_phase(
    data: np.ndarray, abs2: np.ndarray, tau: float, beta: float, out: np.ndarray
) -> np.ndarray:
    """``exp(-i beta abs2 tau) data`` into ``out``, with ``abs2 = |data|^2``.

    The phase is assembled from a real cosine and sine, which costs less
    than a complex exponential of a purely imaginary argument; they are
    written straight into ``out.real`` and ``out.imag``.  ``abs2`` is
    overwritten by the angle.  ``out`` must not be ``data``.
    """
    if beta == 0.0 or tau == 0.0:
        np.copyto(out, data)
        return out
    abs2 *= -beta * tau
    np.cos(abs2, out=out.real)
    np.sin(abs2, out=out.imag)
    out *= data
    return out


def _phased(
    data: np.ndarray,
    tau: float,
    beta: float,
    out: np.ndarray | None = None,
    real: np.ndarray | None = None,
) -> np.ndarray:
    """``exp(-i beta |data|^2 tau) data``, written into ``out``.

    ``real`` (a float array of the field's shape) holds the modulus and
    then the angle.  Fresh arrays stand in for ``out`` and ``real`` when
    they are not given, and without ``out`` a trivial phase returns
    ``data`` itself.  ``out`` must not be ``data``.
    """
    if beta == 0.0 or tau == 0.0:
        if out is None:
            return data
        np.copyto(out, data)
        return out
    if out is None:
        out = np.empty_like(data)
    return _apply_phase(data, _modulus_sq(data, real, out.real), tau, beta, out)


def nonlinear_phase(u: Field, tau: float, params: PhysicsParams) -> Field:
    """Exact nonlinear factor ``N(tau) v = exp(-i beta |v|^2 tau) v``."""
    out = _phased(u.data, tau, params.beta)
    return Field(u.grid, out.copy() if out is u.data else out)


def strang_step(
    u: Field, dt: float, params: PhysicsParams, m: int | None = None
) -> Field:
    """One lab-frame splitting step ``N(dt/2) o R(omega dt) o H(dt) o N(dt/2)``.

    The single-step reference for :func:`evolve`, which composes the same
    pieces in the co-rotating frame.  ``dt`` must fit inside one window.
    With ``beta = 0`` the two nonlinear factors are identities and the
    step is exactly the fast linear flow.
    """
    if not 0.0 < dt <= params.window + _TIME_EPS:
        raise WindowViolation(
            f"strang_step: dt = {dt} outside (0, {params.window}]; "
            "split the step at the window seam"
        )
    if params.beta == 0.0:
        return propagate_fast(u, dt, params, m)
    half = nonlinear_phase(u, 0.5 * dt, params)
    drift = propagate_fast(half, dt, params, m)
    return nonlinear_phase(drift, 0.5 * dt, params)


@dataclass(frozen=True)
class EvolveResult:
    """Final state, diagnostics stream, and the snapshots not streamed to a callback.

    Two health figures of the loop: ``max_phase_per_step`` is the largest
    nonlinear angle a step applied, ``beta (tau + dt/2) max |w|^2`` (a
    step whose angle is far above 1 resolves nothing of the phase), and
    ``guard_margin`` is the final ``max |w|`` over the blow-up guard (1
    is the guard).
    """

    final: TrajectoryState
    records: tuple[DiagnosticsRecord, ...]
    snapshots: tuple[tuple[float, Field], ...]
    max_phase_per_step: float
    guard_margin: float


def evolve(
    u0: Field | TrajectoryState,
    config: SolverConfig,
    params: PhysicsParams,
    *,
    snapshot_every: int = 0,
    on_snapshot: Callable[[float, Field], None] | None = None,
) -> EvolveResult:
    """Advance to ``config.t_end`` window by window with Strang steps.

    The loop runs in the co-rotating frame (see the module docstring).
    It carries the array ``w``, which still owes its trailing half-phase,
    the frame angle ``theta`` and that pending phase time ``tau``; one
    step is ``w <- H(dt) N(tau + dt/2) w``, then ``tau = dt/2``.  A
    record takes the moments of the co-rotating field ``N(tau) w``, so
    its ``linf`` is the co-rotating grid maximum.  A field is built in
    the lab frame, ``R(theta) N(tau) w``, only where it is handed out: at
    a snapshot and at the end, where the record is taken from the same
    array before it is rotated.

    The loop writes only a workspace allocated once per call: two
    complex arrays and one real one, each of the field's shape.  The
    phase goes into one complex array, the harmonic flow into the other
    with the first as its scratch, and ``|w|^2`` into the real one; a
    record phases into the first and takes its moments through the real
    one.  So a step, and a step that only records, allocates nothing.
    The end state is phased, recorded and rotated in the first complex
    array, and ``w`` (the second) becomes its ``corotating``; a mid-run
    snapshot is a fresh array.  The loop never writes into the caller's
    field, into a field it has handed to ``on_snapshot`` before the end,
    or into the returned state's ``corotating``: after the last step the
    workspace belongs to the returned state alone.
    The harmonic flow's matrix is fetched only when the step length
    changes: at the first step, at a clipped one and after it, and where
    the rounding of the window-local clock moves the length in its last
    bits.

    Steps never straddle window seams: the last step of each window is
    clipped, the window-local clock is re-based to zero and the energy
    reference is re-captured, and nothing else changes.  Two records are
    emitted at a seam from one moments pass: the closing one at the
    window's end, and the opening one at window-local time 0, whose
    energy becomes the new reference.

    Accepts either a bare field (trajectory starts at ``t = 0``) or a
    :class:`TrajectoryState` from a previous call, which resumes with
    identical stepping and frame — evolving for ``2T`` in one call or in
    two is the same sequence of operations, bit for bit.

    Snapshots (every ``snapshot_every`` steps, plus the first and the
    last field) go to ``on_snapshot(t, field)`` as they are produced;
    without a callback they are collected in :attr:`EvolveResult.snapshots`.

    Raises :class:`BlowupDetected` when ``max |u|`` exceeds
    ``config.blowup_factor`` times its initial value (a numerical-health
    guard; the defocusing-type problem should stay bounded) and warns
    :class:`BoundaryTruncation` when the initial field keeps more than
    1e-10 of its mass within two cells of the box boundary.  The guard
    reads the ``|w|^2`` that the next phase computes anyway, so a field
    is checked before it is stepped on or handed out; the same maximum
    gives :attr:`EvolveResult.max_phase_per_step` and
    :attr:`EvolveResult.guard_margin`.
    """
    window = params.window
    bare = not isinstance(u0, TrajectoryState)
    if bare:
        # A bare field opens window 0 at t = 0.  Its energy reference is
        # the e0 of its own opening record, set below, so the initial
        # field takes one moments pass, not an extra one for the energy.
        state = TrajectoryState(u0, 0.0, 0, 0.0, e0_window=np.nan)
    else:
        state = u0
    if config.t_end <= state.t_global + _TIME_EPS:
        raise ConfigInvalid(
            f"t_end: must exceed the start time {state.t_global}, got {config.t_end}"
        )

    truncated = boundary_mass_fraction(state.field, cells=2)
    if truncated > 1e-10:
        warnings.warn(
            f"initial field keeps {truncated:.3e} of its mass within two cells "
            "of the box boundary; the periodic box is too small for it",
            BoundaryTruncation,
            stacklevel=2,
        )

    snapshots: list[tuple[float, Field]] = []
    if on_snapshot is None:
        on_snapshot = lambda t, f: snapshots.append((t, f))  # noqa: E731
    grid, beta = state.field.grid, params.beta
    guard = config.blowup_factor * lp_norm(state.field, np.inf)
    if snapshot_every > 0:
        on_snapshot(state.t_global, state.field.copy())

    if state.corotating is None:
        w, theta, tau = state.field.data, 0.0, 0.0
    else:
        w, theta, tau = state.corotating, state.frame_angle, state.pending_phase
    window_index, t_local = state.window_index, state.t_local
    t_global, e0_window = state.t_global, state.e0_window

    # The workspace: a step phases w into ``phased``, then the harmonic
    # flow takes it into ``ahead`` (with ``phased`` as its scratch), and w
    # becomes ``ahead``; a record phases into ``phased`` and takes its
    # moments through ``real``.  Only these three arrays are ever written;
    # w may also be the caller's field or a returned ``corotating``,
    # which are only read.
    ahead = np.empty(grid.shape, dtype=np.complex128)
    phased = np.empty_like(ahead)
    real = np.empty(grid.shape)
    step_count = 0
    mat, mat_dt = None, None
    peak_sq, max_phase = 0.0, 0.0

    def phase(tau_: float, out: np.ndarray) -> np.ndarray:
        """``N(tau_) w`` into ``out``, once ``max |w|`` has passed the guard."""
        nonlocal peak_sq
        abs2 = _modulus_sq(w, real, out.real)
        peak_sq = float(abs2.max())
        if peak_sq > guard * guard:
            raise BlowupDetected(
                f"max |u| = {np.sqrt(peak_sq):.3e} exceeded the guard {guard:.3e} at "
                f"t = {t_global:.6f} (step {step_count}); the run is "
                "numerically unstable (aliasing or too-large dt), not physics"
            )
        return _apply_phase(w, abs2, tau_, beta, out)

    records: list[DiagnosticsRecord] = []
    moments: _Moments | None = None

    def take_record(data: np.ndarray) -> None:
        nonlocal moments
        moments = _moments(grid, data, real=real)
        records.append(
            record_from_moments(moments, t_global, params, e0_window, t_local=t_local)
        )

    def open_window() -> None:
        """The opening record of a window, from the last moments pass."""
        nonlocal e0_window
        records.append(record_from_moments(moments, t_global, params, None, t_local=0.0))
        e0_window = records[-1].e0

    def handed_out(record_it: bool, end: bool) -> TrajectoryState:
        """The lab field; the end state is built in ``phased``, a snapshot fresh."""
        lab = phase(tau, phased if end else np.empty_like(ahead))
        if record_it:
            take_record(lab)
        rotate_pattern(grid, lab, theta, out=lab)
        return TrajectoryState(
            Field(grid, lab), t_global, window_index, t_local, e0_window, w, theta, tau
        )

    if bare:
        moments = _moments(grid, phase(tau, phased), real=real)
        open_window()
        state = replace(state, e0_window=e0_window)
    else:
        take_record(phase(tau, phased))
    while t_global < config.t_end - _TIME_EPS:
        if window - t_local <= _TIME_EPS:
            # Seam: bookkeeping only.  The opening record reads the
            # closing record's moments, and its energy is the new
            # reference of the balance law.
            window_index += 1
            t_local = 0.0
            open_window()
            continue

        next_local = min(t_local + config.dt, window)
        end_local = config.t_end - window_index * window
        if next_local > end_local - _TIME_EPS and end_local <= window + _TIME_EPS:
            next_local = min(end_local, window)
        dt_step = next_local - t_local
        if dt_step <= _TIME_EPS:
            break

        if dt_step != mat_dt:  # the first step, a clipped one, or a last-bit change
            mat, mat_dt = splitting_plan(grid, params, dt_step, config.m), dt_step
        phase(tau + 0.5 * dt_step, phased)
        max_phase = max(max_phase, beta * (tau + 0.5 * dt_step) * peak_sq)
        w = harmonic_flow(mat, phased, out=ahead, scratch=phased)
        theta += params.omega * dt_step
        tau = 0.5 * dt_step
        at_seam = next_local >= window - _TIME_EPS
        t_global = window_index * window + next_local
        t_local = window if at_seam else next_local
        step_count += 1

        done = t_global >= config.t_end - _TIME_EPS
        record_hit = at_seam or done or (
            config.diagnostics_every > 0
            and step_count % config.diagnostics_every == 0
        )
        snapshot_hit = snapshot_every > 0 and (step_count % snapshot_every == 0 or done)
        if snapshot_hit or done:
            state = handed_out(record_hit, end=done)
            if snapshot_hit:
                on_snapshot(t_global, state.field)
        elif record_hit:
            take_record(phase(tau, phased))

    if state.t_global != t_global:  # left by a final step too short to take
        state = handed_out(False, end=True)
    return EvolveResult(
        final=state,
        records=tuple(records),
        snapshots=tuple(snapshots),
        max_phase_per_step=max_phase,
        guard_margin=float(np.sqrt(peak_sq)) / guard if guard > 0.0 else 0.0,
    )


# --------------------------------------------------------------------------
# Duhamel fixed-point iteration
# --------------------------------------------------------------------------


def _lp_from_sq(sq: np.ndarray, grid: GridSpec, rho: float) -> float:
    """``||f||_rho`` from ``sq = |f|^2``, which is overwritten.

    ``abs`` drops the rounding-level negatives of the closed-form dressed
    moduli; at ``rho = 4`` the in-place power is NumPy's exact square.
    """
    np.abs(sq, out=sq)
    sq **= 0.5 * rho
    return float((sq.sum() * grid.cell_volume) ** (1.0 / rho))


def _node_norms(
    grid: GridSpec,
    d: np.ndarray,
    t: float,
    params: PhysicsParams,
    rho: float,
    work: np.ndarray,
    dj: np.ndarray,
) -> tuple[float, float, float]:
    """``||d||_rho``, ``||J(t) d||_rho`` and ``||H(t) d||_rho`` of one node.

    The transverse mix of the dressed operators
    (:mod:`rotor_gpe.galilean`) rotates the vectors ``x d`` and
    ``grad d`` and so leaves their pointwise magnitudes alone.  With
    ``c, s = cos, sin(omega t)`` and ``X = sum_j x_j Im(conj(d) d_j d)``::

        |J(t) d|^2 = |omega s x d - i c grad d|^2
                   = (omega s)^2 |x|^2 |d|^2 + c^2 |grad d|^2 + 2 omega s c X
        |H(t) d|^2 = |omega c x d + i s grad d|^2
                   = (omega c)^2 |x|^2 |d|^2 + s^2 |grad d|^2 - 2 omega s c X

    All three squared moduli come from one gradient of ``d``, its
    partials taken in turn into ``dj`` (a complex array of the field's
    shape), and are written into ``work``, five real arrays of that
    shape; no ``Field`` and no dressed component is built.  ``d`` is
    only read.
    """
    abs2, grad2, cross, tmp, tmp2 = work
    _modulus_sq(d, abs2, tmp)
    grad2.fill(0.0)
    cross.fill(0.0)
    for axis, xj in enumerate((grid.x1, grid.x2, grid.x3)):
        _partial(grid, d, axis, out=dj)
        grad2 += _modulus_sq(dj, tmp, tmp2)
        np.multiply(d.real, dj.imag, out=tmp)
        tmp -= np.multiply(d.imag, dj.real, out=tmp2)
        tmp *= xj
        cross += tmp
    np.multiply(grid.r2, abs2, out=tmp)
    plain = _lp_from_sq(abs2, grid, rho)
    w = params.omega
    c, s = np.cos(w * t), np.sin(w * t)
    mixed = 2.0 * w * s * c
    np.multiply(tmp, (w * s) ** 2, out=abs2)
    abs2 += np.multiply(grad2, c * c, out=tmp2)
    abs2 += np.multiply(cross, mixed, out=tmp2)
    dressed_j = _lp_from_sq(abs2, grid, rho)
    np.multiply(tmp, (w * c) ** 2, out=abs2)
    abs2 += np.multiply(grad2, s * s, out=tmp2)
    abs2 -= np.multiply(cross, mixed, out=tmp2)
    return plain, dressed_j, _lp_from_sq(abs2, grid, rho)


def _distance(
    grid: GridSpec,
    nodes: Iterable[tuple[np.ndarray, float, float]],
    rho: float,
    params: PhysicsParams,
) -> float:
    """The workspace distance of ``(difference, time, weight)`` nodes."""
    gamma = admissible_gamma(rho)
    work = np.empty((5,) + grid.shape)
    dj = np.empty(grid.shape, dtype=np.complex128)
    sums = [0.0, 0.0, 0.0]
    for d, t, weight in nodes:
        for k, norm in enumerate(_node_norms(grid, d, t, params, rho, work, dj)):
            sums[k] += weight * norm**gamma
    inv = 1.0 / gamma
    return sums[0] ** inv + sums[1] ** inv + sums[2] ** inv


def workspace_distance(
    u_traj: Sequence[Field],
    v_traj: Sequence[Field],
    rho: float,
    time_weights: Sequence[float],
    *,
    times: Sequence[float],
    params: PhysicsParams,
) -> float:
    """Triple space-time norm of the difference of two node trajectories.

    ``(sum_i w_i ||d_i||_rho^gamma)^(1/gamma)`` for the plain difference
    ``d_i = u_i - v_i`` plus the same expression with ``d_i`` replaced by
    the pointwise magnitude of ``J(t_i) d_i`` and of ``H(t_i) d_i``;
    ``gamma`` is the admissible exponent paired with ``rho``.  The
    dressed operators are evaluated at the (window-local) node times.
    Their squared magnitudes come from one gradient of ``d_i`` in closed
    form (:func:`_node_norms`), so no dressed component is built.

    Each magnitude is a rotation covariant: for ``d = d_co o R`` it is
    the rotated pattern of the co-rotating one.  So in the continuum the
    distance is the same in the lab and in the co-rotating frame, and
    :func:`picard_solve` measures it on co-rotating nodes.  On the grid
    the two differ by the shear rotation's band-limit gap.
    """
    if not len(u_traj) == len(v_traj) == len(time_weights) == len(times):
        raise ValueError("workspace_distance: trajectories must share one node set")
    if not u_traj:
        return 0.0
    grid = u_traj[0].grid
    diff = np.empty(grid.shape, dtype=np.complex128)
    nodes = (
        (np.subtract(u_i.data, v_i.data, out=diff), t_i, w_i)
        for u_i, v_i, w_i, t_i in zip(u_traj, v_traj, time_weights, times)
    )
    return _distance(grid, nodes, rho, params)


@dataclass(frozen=True)
class PicardResult:
    """Converged node trajectory of the Duhamel iteration."""

    times: tuple[float, ...]
    fields: tuple[Field, ...]
    distances: tuple[float, ...]
    iterations: int
    sup_l2: float


def picard_solve(
    u0: Field,
    T: float,
    config: SolverConfig,
    params: PhysicsParams,
) -> PicardResult:
    """Solve the integral form on ``[0, T]`` by fixed-point iteration.

    Trapezoid nodes ``t_i = i T/(N-1)``.  The iteration runs in the
    co-rotating frame, where the kernel over a node gap is the harmonic
    flow ``H(T/(N-1))`` alone, and it measures the workspace distance
    between consecutive iterates on the co-rotating node differences:
    the distance is a rotation invariant up to the shear rotation's
    band-limit gap (see :func:`workspace_distance`).  Only the returned
    nodes are rotated, node ``i`` once by ``omega t_i``, into the lab
    fields of the result.

    The Duhamel sum is carried from node to node by a linear recurrence,
    so one iteration costs ``N - 1`` applications of ``H``, i.e.
    ``O(N)``.  An iteration sweeps the nodes once: it proposes node
    ``k``, adds its difference to the distance and overwrites the
    current node in place, so it holds the free evolution and the
    current iterate (two fields per node) and a fixed workspace.  The
    initial iterate is the free evolution.  Raises :class:`NoContraction`
    after three consecutive non-decreasing distances (the smallness
    condition on ``T`` and the data is violated), :class:`WindowViolation`
    if ``T`` exceeds one window.
    """
    if not 0.0 < T <= params.window + _TIME_EPS:
        raise WindowViolation(
            f"picard_solve: T = {T} outside the window (0, {params.window}]"
        )
    pc = config.picard
    n_nodes = pc.quad_nodes
    delta = T / (n_nodes - 1)
    times = tuple(i * delta for i in range(n_nodes))
    weights = tuple(
        0.5 * delta if i in (0, n_nodes - 1) else delta for i in range(n_nodes)
    )
    grid = u0.grid
    step = partial(harmonic_flow, splitting_plan(grid, params, delta, config.m))

    def result(nodes: list[np.ndarray], distances: Sequence[float]) -> PicardResult:
        fields = tuple(
            Field(grid, rotate_pattern(grid, v, params.omega * t, out=v))
            for v, t in zip(nodes, times)
        )
        return PicardResult(
            times=times,
            fields=fields,
            distances=tuple(distances),
            iterations=len(distances),
            sup_l2=max(lp_norm(f, 2) for f in fields),
        )

    # Free evolution H(t_i) u0, built incrementally along the node set.
    free: list[np.ndarray] = [u0.data.copy()]
    for _ in range(n_nodes - 1):
        free.append(step(free[-1]))
    if params.beta == 0.0:
        return result(free, (0.0,))

    # Node 0 never moves (its Duhamel sum is empty), so it is shared.
    current = [free[0]] + [v.copy() for v in free[1:]]
    proposed = np.empty_like(free[0])
    carried = np.empty_like(proposed)
    scratch = np.empty_like(proposed)
    cubic = (np.empty_like(proposed), np.empty_like(proposed))
    real = np.empty(grid.shape)

    def sweep():
        """Propose every node in turn; yield its change for the distance.

        ``duhamel[k] = sum_{j <= k} w_kj H((k-j) delta) cubic_j`` with
        trapezoid weights over ``[0, t_k]``.  The ``j < k`` part is
        carried as ``A_k = H(delta)(A_{k-1} + w_{k-1} cubic_{k-1})``,
        ``A_0 = 0``, which is the same sum by linearity of ``H``.  Node
        ``k``'s cubic term is taken before the node is overwritten.
        """
        nonlocal proposed
        carried.fill(0.0)
        for k in range(n_nodes):
            cub = cubic[k % 2]
            abs2 = np.abs(current[k], out=real)
            abs2 *= abs2
            np.multiply(abs2, current[k], out=cub)
            if k == 0:
                continue
            np.multiply(0.5 * delta if k == 1 else delta, cubic[(k - 1) % 2], out=scratch)
            np.add(carried, scratch, out=scratch)
            step(scratch, out=carried, scratch=scratch)
            np.multiply(0.5 * delta, cub, out=scratch)
            np.add(carried, scratch, out=scratch)
            np.multiply(1j * params.beta, scratch, out=scratch)
            np.subtract(free[k], scratch, out=proposed)
            yield np.subtract(proposed, current[k], out=scratch), times[k], weights[k]
            current[k], proposed = proposed, current[k]

    distances: list[float] = []
    rising = 0
    for iteration in range(1, pc.max_iter + 1):
        dist = _distance(grid, sweep(), pc.rho, params)
        distances.append(dist)
        logger.debug("fixed-point iteration %d: distance %.3e", iteration, dist)
        if len(distances) >= 2 and distances[-1] >= distances[-2]:
            rising += 1
        else:
            rising = 0
        if dist < pc.tol:
            break
        if rising >= 3:
            raise NoContraction(
                f"workspace distance failed to decrease for 3 consecutive "
                f"iterations (last {distances[-4:]}); T = {T} is too large "
                "for this data size"
            )
    return result(current, distances)
