"""Nonlinear time evolution by two independent schemes.

The equation combines the one-window linear flow (solved exactly by the
propagator backends) with the cubic phase nonlinearity.  Two schemes are
implemented so each can falsify the other:

* **Strang splitting** — ``N(dt/2) o S(dt) o N(dt/2)`` per step, where
  ``N(tau) v = exp(-i beta |v|^2 tau) v`` is the exact flow of the
  nonlinear part (the modulus is pointwise invariant, so the phase uses
  the initial modulus) and ``S`` is the fast spectral propagator.  Mass
  is conserved to machine precision; the global error is second order
  in ``dt``.  The phase is one kernel that walks the field in slabs of
  a few ``x1`` planes, takes cos and sin from Taylor polynomials where
  a slab's angles are small and from libm otherwise, and returns
  ``max |v|^2``: the peak the blow-up guard reads.

* **Duhamel fixed-point iteration** — the integral form
  ``u(t) = S(t) u0 - i beta Int_0^t S(t-s) |u|^2 u(s) ds`` is collocated
  on Chebyshev-Lobatto nodes within one window, in the interaction
  picture of the linear flow, and iterated from the free evolution
  until the workspace distance (the triple space-time norm of the
  difference, plain + J-dressed + H-dressed) stops moving.

Both schemes run in the frame co-rotating with the trap.  The linear
flow is ``S(t) = R(omega t) H(t)``, the harmonic flow ``H`` followed by
the rotation ``R`` about x3, and ``R`` commutes with ``H`` and with
``|u|^2``.  So ``u(t) = R(omega t) v(t)`` where ``v`` solves the
non-rotating equation.  Every diagnostics quadrature is invariant under
``R`` (see :mod:`rotor_gpe.diagnostics`), so a record reads the
co-rotating field (its ``linf`` is that field's grid maximum), and the
rotation is applied only to a field that is handed out (a snapshot, the
end state).  The Strang loop also fuses the trailing half-phase of one
step with the leading half-phase of the next, ``N(dt/2) N(dt/2) =
N(dt)``, which is exact because ``|v|`` is invariant under the phase;
an observation takes one kernel pass that leaves the observed field and
the same factor applied once more, the next step's input when that step
is as long as the last.

The linear kernel is only valid on ``(0, pi/(4 omega)]``, so long
evolutions proceed window by window: steps are clipped at seams, and at
each seam only bookkeeping restarts — the window-local clock returns to
zero and the energy reference for the pseudo-conformal balance is
re-captured.  The field and the co-rotating frame run on unchanged, so
the frame angle grows without bound.
"""

from __future__ import annotations

import logging
import math
import warnings
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from dataclasses import astuple, dataclass, field
from functools import lru_cache

import numpy as np

from .diagnostics import DiagnosticsRecord, record_from_moments
from .errors import (
    BlowupDetected,
    BoundaryTruncation,
    ConfigInvalid,
    NoContraction,
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
    _check_window,
    harmonic_flow,
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
    "evolve",
    "picard_solve",
    "workspace_distance",
]

logger = logging.getLogger(__name__)

#: Time-comparison slack for seam and end-point bookkeeping.
_TIME_EPS = 1e-13


@dataclass(frozen=True)
class PicardConfig:
    """Knobs of the Duhamel fixed-point iteration."""

    tol: float = 1e-10
    max_iter: int = 25
    quad_nodes: int = 17

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ConfigInvalid(f"picard.tol: must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigInvalid(f"picard.max_iter: must be >= 1, got {self.max_iter}")
        if self.quad_nodes < 3:  # the first level of the picard convergence study
            raise ConfigInvalid(
                f"picard.quad_nodes: must be >= 3, got {self.quad_nodes}"
            )


@dataclass(frozen=True)
class SolverConfig:
    """Scheme selection and stepping parameters for :func:`evolve`.

    ``m`` is the harmonic flow's Strang substep count; ``None`` (the
    default, and the only value a configuration file can give) takes
    the exact flow (:func:`~rotor_gpe.propagator.splitting_plan`).
    """

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
        for name in ("dt", "t_end"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigInvalid(f"{name}: must be > 0, got {value}")
            if value <= _TIME_EPS:  # the stepping loop's time slack would swallow it
                raise ConfigInvalid(
                    f"{name}: must exceed the time slack {_TIME_EPS}, got {value}"
                )
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
    """Field at one instant of a trajectory, and the window it lies in.

    ``window_index`` counts the seams crossed before ``t_global``.
    """

    field: Field
    t_global: float
    window_index: int


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


#: Largest slab angle ``|beta tau| max |d|^2`` that the phase takes from
#: Taylor polynomials; a larger one, NaN or inf takes libm's cos and sin.
#: The two tie near 0.1 at n = 16, where the slabs are small and every
#: Horner pass costs mostly its call; from n = 24 on the polynomials are
#: faster up to 0.5.
_TAYLOR_REACH = 0.1
#: Bytes of complex field in one phase slab.  A slab's passes, over it,
#: its output and two float slabs of scratch, then stay in a 2 MB L2.
_SLAB_BYTES = 2**18


def _taylor(offset: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coefficients in ``x = theta^2`` of ``cos`` (offset 0) or ``sin(theta)/theta`` (1).

    ``sum_k (-1)^k x^k / (2k + offset)!``, and its reach table:
    ``reaches[k - 1]`` is the largest ``|theta|`` at which ``k`` terms
    leave out a first term below ``2^-54``.  The table runs until it
    covers :data:`_TAYLOR_REACH`.
    """
    coefs: list[float] = []
    reaches: list[float] = []
    while not reaches or reaches[-1] < _TAYLOR_REACH:
        k = len(coefs)
        coefs.append((-1) ** k / math.factorial(2 * k + offset))
        reaches.append((math.factorial(2 * k + 2 + offset) * 2.0**-54) ** (0.5 / (k + 1)))
    return tuple(coefs), tuple(reaches)


_COS, _SINC = _taylor(0), _taylor(1)


def _horner(
    x: np.ndarray, coefs: Sequence[float], acc: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``sum_k coefs[k] x^k`` into ``out`` by Horner's rule, accumulating in ``acc``."""
    if len(coefs) == 1:
        out.fill(coefs[0])
        return out
    np.multiply(x, coefs[-1], out=acc)
    for c in coefs[-2:0:-1]:
        acc += c
        acc *= x
    return np.add(acc, coefs[0], out=out)


def _slab_size(shape: tuple[int, ...]) -> int:
    """Elements of one phase slab: whole ``x1`` planes, at most half the field.

    A function of the shape alone, so every caller cuts the same slabs.
    The half lets the two float slabs of scratch fit in one real array
    of the field's shape.
    """
    plane = math.prod(shape[1:])
    return max(1, min(_SLAB_BYTES // (16 * plane), shape[0] // 2)) * plane


def _phase_into(
    data: np.ndarray,
    tau: float,
    beta: float,
    out: np.ndarray,
    scratch: np.ndarray,
    twice: bool = False,
) -> float:
    """``exp(-i beta tau |data|^2) data`` into ``out``; returns ``max |data|^2``.

    ``data`` and ``out`` are C-contiguous complex arrays of one shape, and
    ``out`` is not ``data``.  ``scratch`` is a C-contiguous float array of
    at least ``2 * _slab_size(shape)`` elements, and is overwritten.

    With ``twice`` the factor ``f = exp(-i beta tau |d|^2)`` is applied
    twice from one evaluation: ``data`` is left holding ``f d = N(tau)
    data``, bit for bit what ``out`` gets without ``twice``, and ``out``
    gets ``f (f d)``.  As ``|f d| = |d|``, that is ``N(tau) N(tau) data =
    N(2 tau) data`` up to rounding.  :func:`evolve` observes this way:
    ``data`` becomes the observed field, and ``out`` is the next step's
    input if that step's half-step is ``tau``.

    The field goes slab by slab (:func:`_slab_size`), so that each slab's
    passes stay in cache.  A slab takes ``|d|^2`` as ``re^2 + im^2`` and
    its maximum, and puts the angle ``theta = -beta tau |d|^2`` in
    ``out.imag``.  If the slab's largest ``|theta|`` is at most
    :data:`_TAYLOR_REACH`, ``cos theta`` and ``sin theta`` are Taylor
    polynomials in ``theta^2``, cut at the fewest terms whose first
    omitted one is below ``2^-54`` (:func:`_taylor`); otherwise, NaN and
    inf included, they are libm's.  They are written straight into
    ``out.real`` and ``out.imag``, then ``out *= d`` (with ``twice``,
    ``d = out * d`` first).  ``beta tau = 0`` copies ``data`` bit for bit
    and leaves it as it is.  The returned peak is the maximum over the
    whole field, NaN if any ``|d|^2`` is NaN.
    """
    size = _slab_size(data.shape)
    flat, flat_out, scratch = data.reshape(-1), out.reshape(-1), scratch.reshape(-1)
    scale = -beta * tau
    peak = 0.0
    for lo in range(0, flat.size, size):
        d, o = flat[lo : lo + size], flat_out[lo : lo + size]
        x, acc = scratch[: d.size], scratch[size : size + d.size]
        slab_max = float(_modulus_sq(d, x, acc).max())
        if slab_max > peak or slab_max != slab_max:  # a NaN peak stays NaN
            peak = slab_max
        if scale == 0.0:
            np.copyto(o, d)
            continue
        theta = np.multiply(x, scale, out=o.imag)
        reach = abs(scale) * slab_max
        if reach <= _TAYLOR_REACH:
            np.multiply(theta, theta, out=x)
            cos, sinc = (c[: bisect_left(r, reach) + 1] for c, r in (_COS, _SINC))
            _horner(x, cos, acc, o.real)
            theta *= _horner(x, sinc, acc, acc)
        else:
            np.cos(theta, out=o.real)
            np.sin(theta, out=theta)
        if twice:
            np.multiply(o, d, out=d)  # o * d, the operand order of the product below
        o *= d
    return peak


def nonlinear_phase(u: Field, tau: float, params: PhysicsParams) -> Field:
    """Exact nonlinear factor ``N(tau) v = exp(-i beta |v|^2 tau) v``, in a fresh field."""
    out = np.empty_like(u.data)
    _phase_into(u.data, tau, params.beta, out, np.empty(2 * _slab_size(out.shape)))
    return Field(u.grid, out)


@dataclass(frozen=True)
class EvolveResult:
    """Final state and diagnostics stream; snapshots go to ``evolve``'s callback.

    Two health figures of the loop: ``max_phase_per_step`` is the largest
    nonlinear angle a step applied, ``beta (tau + dt/2) max |w|^2`` (a
    step whose angle is far above 1 resolves nothing of the phase), and
    ``guard_margin`` is the final ``max |w|`` over the blow-up guard (1
    is the guard).
    """

    final: TrajectoryState
    records: tuple[DiagnosticsRecord, ...]
    max_phase_per_step: float
    guard_margin: float


def _opening_record(u0: Field, params: PhysicsParams) -> DiagnosticsRecord:
    """The record of ``u0`` at ``t = 0``, through a real array of its own.

    It is the first pass to square the field, so a field too large to
    square, one whose record is not finite, ends here as
    :class:`ConfigInvalid` under ``initial``, before any pass warns of
    its overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        opening = record_from_moments(_moments(u0.grid, u0.data), 0.0, params, None)
    if not all(map(math.isfinite, astuple(opening))):
        raise ConfigInvalid(
            f"initial: the field (max |u| = {lp_norm(u0, np.inf):.3e}) is too large"
            f" to square; its opening record is not finite (mass {opening.mass:.3e},"
            f" e0 {opening.e0:.3e})"
        )
    return opening


def evolve(
    u0: Field,
    config: SolverConfig,
    params: PhysicsParams,
    *,
    snapshot_every: int = 0,
    on_snapshot: Callable[[float, Field], None] | None = None,
) -> EvolveResult:
    """Strang steps from ``u0`` at ``t = 0`` to ``config.t_end``, window by window.

    The loop runs in the co-rotating frame (see the module docstring).
    It carries the array ``w``, which still owes its trailing half-phase,
    the frame angle ``theta`` and that pending phase time ``tau``; one
    step is ``w <- H(dt) N(tau + dt/2) w``, then ``tau = dt/2``.  A
    record takes the moments of the co-rotating field ``N(tau) w``, so
    its ``linf`` is the co-rotating grid maximum.  A field is built in
    the lab frame, ``R(theta) N(tau) w``, only where it is handed out: at
    a snapshot and at the end, where the record is taken from the same
    array before it is rotated.

    Every observation (a record or a snapshot) after ``t = 0`` takes one
    phase pass (``_phase_into`` with ``twice``): the observed field
    ``N(tau) w`` is left in ``w``'s own array, which then owes no phase,
    and ``N(tau) N(tau) w`` goes into the other.  A next step whose
    half-step is ``tau`` takes that as its input, as ``N(tau) N(tau) w =
    N(tau + dt/2) w`` because ``|N(tau) w| = |w|``; any other step
    phases the observed field by its own half-step.  Either way the step
    applies the angle ``tau + dt/2``.  The record at ``t = 0`` reads
    ``u0`` as it is.

    The loop writes only a workspace allocated once per call: two
    complex arrays and one real one, each of the field's shape.  The
    phase goes into one complex array, with its slabs of scratch in the
    real one, and the harmonic flow into the other with the first as its
    scratch; a record takes its moments through the real one.  So a
    step, and a step that only records, allocates nothing.  The opening
    record at ``t = 0`` comes before the workspace and takes its moments
    through a real array of its own, freed before the workspace is made.
    The end state is rotated in place in the array that holds the
    observed field, the harmonic flow's output and the only one of the
    workspace that outlives the call; a mid-run snapshot is a fresh
    array, rotated from the observed field into it, that the loop does
    not keep: it lives only as long as ``on_snapshot`` keeps it.  The
    loop holds the initial field for its first step only (after that
    only the caller does).  It never writes into the caller's field or
    into a field it has handed to ``on_snapshot`` before the end.
    Every step that is not clipped is ``config.dt`` long, whatever the
    rounding of the window-local clock, and so is a step whose clip to
    a seam or to the end would move its end by no more than the time
    slack: a run of a whole number of steps ends on a ``dt``-long step.
    So the harmonic flow's matrix is fetched only at the first step, at
    a step clipped to a seam or to the end, and after it.

    Steps never straddle window seams: the last step of each window is
    clipped, the window-local clock is re-based to zero and the energy
    reference is re-captured, and nothing else changes.  Two records are
    emitted at a seam from one moments pass: the closing one at the
    window's end, and the opening one at window-local time 0, whose
    energy becomes the new reference.

    Snapshots (every ``snapshot_every`` steps, plus the first and the
    last field) go to ``on_snapshot(t, field)`` as they are produced;
    nothing keeps them, so ``snapshot_every > 0`` needs a callback.

    Raises ``ValueError`` for ``snapshot_every > 0`` without a callback,
    :class:`ConfigInvalid` (under ``initial``) when the opening record of
    ``u0`` is not finite, a field too large to square, and
    :class:`BlowupDetected` when ``max |u|`` exceeds
    ``config.blowup_factor`` times its initial value or is not finite (a
    numerical-health guard; the defocusing-type problem should stay
    bounded), and warns
    :class:`BoundaryTruncation` when the initial field keeps more than
    1e-10 of its mass within two cells of the box boundary.  The guard
    reads the peak ``max |w|^2`` that the phase kernel returns.  The
    check follows the phase into the workspace, but comes before the
    flow steps on that array and before any field is handed out (an
    observed step's one pass is checked before its record and its
    snapshot); the same peak gives :attr:`EvolveResult.max_phase_per_step`
    and :attr:`EvolveResult.guard_margin`.
    """
    if snapshot_every > 0 and on_snapshot is None:
        raise ValueError("evolve: snapshot_every > 0 needs an on_snapshot callback")
    window = params.window
    # Window 0's energy reference is the e0 of its own opening record, so
    # the initial field takes one moments pass, not an extra one for the
    # energy.
    opening = _opening_record(u0, params)
    truncated = boundary_mass_fraction(u0)
    if truncated > 1e-10:
        warnings.warn(
            f"initial field keeps {truncated:.3e} of its mass within two cells "
            "of the box boundary; the periodic box is too small for it",
            BoundaryTruncation,
            stacklevel=2,
        )

    grid, beta = u0.grid, params.beta
    guard = config.blowup_factor * opening.linf  # max |u0|, from the opening pass
    if snapshot_every > 0:
        on_snapshot(0.0, u0.copy())

    # The loop reads the initial field through w alone, which the first
    # step rebinds to the workspace: from then on only the caller holds it.
    w, theta, tau = u0.data, 0.0, 0.0
    del u0
    window_index, t_local, t_global = 0, 0.0, 0.0
    e0_window = opening.e0

    # The workspace: a step phases w into ``phased`` (with ``real`` as the
    # phase's scratch), then the harmonic flow takes it into ``ahead``
    # (with ``phased`` as its scratch), and w becomes ``ahead``; a record
    # takes its moments through ``real``.  Only these three arrays are
    # ever written; w may also be the caller's field, which is only read
    # (no observation, so no in-place phase, comes before the first step).
    ahead = np.empty(grid.shape, dtype=np.complex128)
    phased = np.empty_like(ahead)
    real = np.empty(grid.shape)
    step_count = 0
    mat, mat_dt = None, None
    peak_sq, max_phase = 0.0, 0.0

    def phase(tau_: float, out: np.ndarray, twice: bool = False) -> None:
        """``N(tau_) w`` into ``out`` (see ``_phase_into``); then ``max |w|`` must pass the guard."""
        nonlocal peak_sq
        peak_sq = _phase_into(w, tau_, beta, out, real, twice)
        if not math.isfinite(peak_sq) or peak_sq > guard * guard:
            raise BlowupDetected(
                f"max |u| = {np.sqrt(peak_sq):.3e} exceeded the guard {guard:.3e} at "
                f"t = {t_global:.6f} (step {step_count}); the run is "
                "numerically unstable (aliasing or too-large dt), not physics"
            )

    records: list[DiagnosticsRecord] = [opening]
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

    def handed_out(lab: np.ndarray) -> Field:
        """The lab field ``R(theta) w``, written into ``lab`` (may be ``w``)."""
        return Field(grid, rotate_pattern(grid, w, theta, out=lab))

    def end_state() -> TrajectoryState:
        """The end state, rotated in place in ``w``'s array."""
        return TrajectoryState(handed_out(w), t_global, window_index)

    state: TrajectoryState | None = None
    cached = None  # after an observation: ``phased`` holds N(cached) of the observed w
    while t_global < config.t_end - _TIME_EPS:
        if window - t_local <= _TIME_EPS:
            # Seam: bookkeeping only.  The opening record reads the
            # closing record's moments, and its energy is the new
            # reference of the balance law.
            window_index += 1
            t_local = 0.0
            open_window()
            continue

        unclipped = t_local + config.dt
        next_local = min(unclipped, window)
        end_local = config.t_end - window_index * window
        if next_local > end_local - _TIME_EPS and end_local <= window + _TIME_EPS:
            next_local = min(end_local, window)
        # A step whose clip moves its end by no more than the time slack is
        # dt long: the clock's rounding makes no clipped step of its own.
        dt_step = config.dt if abs(next_local - unclipped) <= _TIME_EPS else next_local - t_local
        if dt_step <= _TIME_EPS:
            break

        if dt_step != mat_dt:  # the first step, a clipped one, or the one after it
            mat, mat_dt = splitting_plan(grid, params, dt_step, config.m), dt_step
        half = 0.5 * dt_step
        if half != cached:  # an observed w owes no phase; an unobserved one owes tau
            phase(half if cached else tau + half, phased)
        max_phase = max(max_phase, beta * (tau + half) * peak_sq)
        w = harmonic_flow(mat, phased, out=ahead, scratch=phased)
        theta += params.omega * dt_step
        tau, cached = half, None
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
        if not (record_hit or snapshot_hit):
            continue
        # One pass leaves the observed field N(tau) w in w's array and
        # N(tau) of it in ``phased``.
        phase(tau, phased, twice=True)
        cached = tau
        if record_hit:
            take_record(w)
        if done:
            state = end_state()
        if snapshot_hit:
            # Nothing here keeps a mid-run hand-out: it lives only as long
            # as the callback keeps it.
            on_snapshot(t_global, state.field if done else handed_out(np.empty_like(ahead)))

    if state is None:  # left by a step too short to take
        if cached is None:
            phase(tau, phased, twice=True)
        state = end_state()
    return EvolveResult(
        final=state,
        records=tuple(records),
        max_phase_per_step=max_phase,
        guard_margin=float(np.sqrt(peak_sq)) / guard if guard > 0.0 else 0.0,
    )


# --------------------------------------------------------------------------
# Duhamel fixed-point iteration
# --------------------------------------------------------------------------


def _l4_from_sq(sq: np.ndarray, grid: GridSpec) -> float:
    """``||f||_4`` from ``sq = |f|^2``, which is overwritten by its square.

    Squaring also takes care of the rounding-level negatives of the
    closed-form dressed moduli.
    """
    sq *= sq
    return float((sq.sum() * grid.cell_volume) ** 0.25)


def _node_norms(
    grid: GridSpec,
    d: np.ndarray,
    t: float,
    params: PhysicsParams,
    work: np.ndarray,
    dj: np.ndarray,
) -> tuple[float, float, float]:
    """``||d||_4``, ``||J(t) d||_4`` and ``||H(t) d||_4`` of one node.

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
    plain = _l4_from_sq(abs2, grid)
    w = params.omega
    c, s = np.cos(w * t), np.sin(w * t)
    mixed = 2.0 * w * s * c
    np.multiply(tmp, (w * s) ** 2, out=abs2)
    abs2 += np.multiply(grad2, c * c, out=tmp2)
    abs2 += np.multiply(cross, mixed, out=tmp2)
    dressed_j = _l4_from_sq(abs2, grid)
    np.multiply(tmp, (w * c) ** 2, out=abs2)
    abs2 += np.multiply(grad2, s * s, out=tmp2)
    abs2 -= np.multiply(cross, mixed, out=tmp2)
    return plain, dressed_j, _l4_from_sq(abs2, grid)


def workspace_distance(
    grid: GridSpec,
    nodes: Iterable[tuple[np.ndarray, float, float]],
    params: PhysicsParams,
) -> float:
    """Triple space-time norm of node differences ``(d_i, t_i, w_i)``.

    ``(sum_i w_i ||d_i||_4^gamma)^(1/gamma)`` for the plain difference
    ``d_i`` plus the same expression with ``d_i`` replaced by the
    pointwise magnitude of ``J(t_i) d_i`` and of ``H(t_i) d_i``, in the
    Strichartz pair ``rho = 4``, ``gamma = 8/3``
    (:func:`~rotor_gpe.propagator.strichartz_exponent`) of the paper's
    contraction.  The dressed operators are evaluated at the
    (window-local) node times.  Their
    squared magnitudes come from one gradient of ``d_i`` in closed form
    (:func:`_node_norms`), so no dressed component is built, and each
    ``d_i`` is only read (it may be a workspace the node iterator
    overwrites for the next node).

    Each magnitude is a rotation covariant: for ``d = d_co o R`` it is
    the rotated pattern of the co-rotating one.  So in the continuum the
    distance is the same in the lab and in the co-rotating frame, and
    :func:`picard_solve` measures it on co-rotating nodes.  On the grid
    the two differ by the shear rotation's band-limit gap.
    """
    gamma = strichartz_exponent(4.0)
    work = np.empty((5,) + grid.shape)
    dj = np.empty(grid.shape, dtype=np.complex128)
    sums = [0.0, 0.0, 0.0]
    for d, t, weight in nodes:
        for k, norm in enumerate(_node_norms(grid, d, t, params, work, dj)):
            sums[k] += weight * norm**gamma
    inv = 1.0 / gamma
    return sums[0] ** inv + sums[1] ** inv + sums[2] ** inv


@dataclass(frozen=True)
class PicardResult:
    """Node trajectory of the Duhamel iteration, converged or not.

    ``converged`` is whether the last distance fell below the tolerance;
    a run that spent ``max_iter`` iterations without it returns its last
    iterate with ``converged`` false.
    """

    times: tuple[float, ...]
    fields: tuple[Field, ...]
    distances: tuple[float, ...]
    iterations: int
    converged: bool


@lru_cache(maxsize=8)
def _lobatto_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto nodes on ``[0, 1]`` and their integration matrix.

    Nodes ``x_k = sin^2(pi k / (2 (N - 1)))``, from 0 to 1, and
    ``A[k, j] = Int_0^{x_k} l_j``, with ``l_j`` the Lagrange polynomial
    of node ``j``: ``A f`` integrates the interpolant of the node values
    ``f`` from 0 to every node.  Row 0 is zero, and the last row holds
    the Clenshaw-Curtis weights, which are positive.  The interpolant is
    expanded in Chebyshev polynomials of ``y = 2x - 1`` and integrated
    term by term.  Both arrays are read-only.
    """
    from numpy.polynomial import chebyshev as cheb

    k = np.arange(n_nodes)
    y = -np.cos(np.pi * k / (n_nodes - 1))
    coef = np.linalg.inv(cheb.chebvander(y, n_nodes - 1))  # column j: l_j
    integ = 0.5 * (cheb.chebvander(y, n_nodes) @ cheb.chebint(coef, lbnd=-1))
    integ[0] = 0.0
    nodes = np.sin(0.5 * np.pi * k / (n_nodes - 1)) ** 2
    nodes.flags.writeable = integ.flags.writeable = False
    return nodes, integ


def picard_solve(
    u0: Field,
    T: float,
    config: SolverConfig,
    params: PhysicsParams,
) -> PicardResult:
    """Solve the integral form on ``[0, T]`` by fixed-point iteration.

    The iteration runs in the co-rotating frame and in the interaction
    picture ``v(t) = H(-t) u(t)`` of the harmonic flow ``H``, where
    ``v(t) = u0 - i beta Int_0^t H(-s) F(H(s) v(s)) ds`` with ``F(u) =
    |u|^2 u``.  That integrand is smooth in ``s``, so it is collocated on
    ``N`` Chebyshev-Lobatto nodes ``t_k`` (:func:`_lobatto_rule`), and the
    error falls geometrically in ``N``.  The node flows are chained gap by
    gap, ``M_k = P(t_k - t_{k-1}) M_{k-1}`` with ``P`` the cached
    :func:`~rotor_gpe.propagator.splitting_plan` matrix, so ``config.m``
    counts substeps per node gap; ``M_k^H`` is the inverse flow.  Each
    pass multiplies the chain afresh, so no call holds all ``N`` of them.

    One sweep takes ``G_k = M_k^H F(u_k)`` at every node, then ``V = A G``
    as one product, in place through a field of scratch, then ``u_k =
    M_k(u0 - i beta T V_k)`` node by node: it adds the change to the
    workspace distance, with the Clenshaw-Curtis weights, and overwrites
    the node.  So it holds two fields per node, the iterate and ``G``.
    Node 0 is ``u0`` and never moves.  The initial iterate is the free
    evolution ``M_k u0``.  The distance is taken on the co-rotating node
    differences, a rotation invariant up to the shear rotation's
    band-limit gap (see :func:`workspace_distance`); only the returned
    nodes are rotated, node ``k`` once by ``omega t_k``.

    The iteration stops when the distance falls below ``tol`` or after
    ``max_iter`` iterations, which :attr:`PicardResult.converged` tells
    apart.  Raises :class:`NoContraction` after three consecutive
    non-decreasing distances (the smallness condition on ``T`` and the
    data is violated) and at once on a distance that is not finite (a
    sweep overflowed), :class:`WindowViolation` if ``T`` exceeds one
    window, and :class:`ConfigInvalid` for a field too large to square
    (as :func:`evolve` does).
    """
    _check_window(T, params)
    _opening_record(u0, params)  # a field too large to square ends here
    pc = config.picard
    n_nodes = pc.quad_nodes
    unit_nodes, integ = _lobatto_rule(n_nodes)
    grid = u0.grid

    def node_matrices():
        """``(k, M_k)`` for ``k >= 1``, chained gap by gap."""
        mat = None
        for k in range(1, n_nodes):
            dt = T * (unit_nodes[k] - unit_nodes[k - 1])
            gap = splitting_plan(grid, params, dt, config.m)
            mat = gap if mat is None else gap @ mat
            yield k, mat

    # Nodes 1..N-1 of the iterate, starting from the free evolution; node 0 is u0.
    current = np.empty((n_nodes - 1,) + grid.shape, dtype=np.complex128)
    scratch = np.empty(grid.shape, dtype=np.complex128)
    for k, mat in node_matrices():
        harmonic_flow(mat, u0.data, out=current[k - 1], scratch=scratch)

    def result(distances: Sequence[float]) -> PicardResult:
        times = tuple(float(T * x) for x in unit_nodes)
        fields = tuple(
            Field(grid, rotate_pattern(grid, v, params.omega * t, out=v))
            for v, t in zip((u0.data.copy(), *current), times)
        )
        return PicardResult(
            times=times,
            fields=fields,
            distances=tuple(distances),
            iterations=len(distances),
            converged=distances[-1] < pc.tol,
        )

    if params.beta == 0.0:
        return result((0.0,))

    proposed = np.empty_like(scratch)
    real = np.empty(grid.shape)
    cubic = np.empty((n_nodes,) + grid.shape, dtype=np.complex128)  # G, then V
    np.multiply(_modulus_sq(u0.data, real, scratch.real), u0.data, out=cubic[0])
    # V = A G in place, through the float views: a block of columns of G
    # goes through ``scratch`` and back, so row 0 (node 0's G) is kept.
    flat = cubic.reshape(n_nodes, -1).view(np.float64)
    rows, width = n_nodes - 1, flat.shape[1]
    block = max(1, width // rows)
    buffer = scratch.reshape(-1).view(np.float64)
    if rows * block > buffer.size:  # more nodes than a field has floats
        buffer = np.empty(rows * block)
    kick = -1j * params.beta * T

    def sweep():
        """One collocation sweep; yields each node's change for the distance."""
        for k, mat in node_matrices():
            abs2 = _modulus_sq(current[k - 1], real, scratch.real)
            np.multiply(abs2, current[k - 1], out=proposed)
            harmonic_flow(mat.conj().T, proposed, out=cubic[k], scratch=proposed)
        for lo in range(0, width, block):
            hi = min(lo + block, width)
            out = buffer[: rows * (hi - lo)].reshape(rows, hi - lo)
            np.matmul(integ[1:], flat[:, lo:hi], out=out)
            flat[1:, lo:hi] = out
        for k, mat in node_matrices():
            np.multiply(cubic[k], kick, out=scratch)
            np.add(scratch, u0.data, out=scratch)
            harmonic_flow(mat, scratch, out=proposed, scratch=scratch)
            diff = np.subtract(proposed, current[k - 1], out=scratch)
            yield diff, float(T * unit_nodes[k]), float(T * integ[-1, k])
            np.copyto(current[k - 1], proposed)

    distances: list[float] = []
    rising = 0
    for iteration in range(1, pc.max_iter + 1):
        # An overflowing sweep shows in its distance, checked below.
        with np.errstate(over="ignore", invalid="ignore"):
            dist = workspace_distance(grid, sweep(), params)
        distances.append(dist)
        logger.debug("fixed-point iteration %d: distance %.3e", iteration, dist)
        if not math.isfinite(dist):
            raise NoContraction(
                f"workspace distance is {dist} at iteration {iteration}: the "
                f"iteration overflowed; T = {T} is too large for this data size"
            )
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
    return result(distances)
