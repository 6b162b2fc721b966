"""Conserved-quantity diagnostics: closed forms, balance law, CSV schema."""

import numpy as np
import pytest

from rotor_gpe import (
    CSV_HEADER,
    Field,
    GridSpec,
    PhysicsParams,
    SolverConfig,
    coherent_state,
    drift_report,
    evolve,
    ground_state,
    propagate_oracle,
    random_smooth_field,
    record,
    vortex_state,
    write_csv,
)
from rotor_gpe.diagnostics import format_csv_rows
from rotor_gpe.galilean import _dressed_component
from rotor_gpe.propagator import rotate_pattern

GRID = GridSpec(24, 6.0)
LINEAR = PhysicsParams(omega=1.0, beta=0.0)
CUBIC = PhysicsParams(omega=1.0, beta=1.0)
#: Record columns that are field quadratures (pc_residual is a difference).
QUADRATURE_COLUMNS = (
    "mass", "e0", "e0_kin", "e0_pot", "e0_int", "lz_expect", "pc_lhs",
    "sigma_norm", "j_norm_sq", "h_norm_sq",
)


# ---------------------------------------------------------------------------
# closed-form energies of the ground state
# ---------------------------------------------------------------------------


def test_ground_state_energy_split_matches_closed_forms():
    u = ground_state(GRID, CUBIC)
    rec = record(u, 0.0, CUBIC, None)
    assert rec.mass == pytest.approx(1.0, abs=1e-10)
    kin, pot, inter = rec.e0_kin, rec.e0_pot, rec.e0_int
    # Width-1/sqrt(omega) Gaussian: kinetic = potential = 3*omega/4, and
    # ||u||_4^4 = (omega/(2 pi))^(3/2).
    assert kin == pytest.approx(0.75, rel=1e-9)
    assert pot == pytest.approx(0.75, rel=1e-9)
    assert inter == pytest.approx(0.5 * (2.0 * np.pi) ** -1.5, rel=1e-7)
    assert rec.e0 == pytest.approx(kin + pot + inter, abs=1e-14)
    # beta = 0 drops only the interaction term.
    assert record(u, 0.0, LINEAR, None).e0 == pytest.approx(kin + pot, abs=1e-14)


def test_energy_scales_with_trap_frequency():
    params = PhysicsParams(omega=2.0, beta=0.0)
    grid = GridSpec(24, 6.0 / np.sqrt(2.0))
    rec = record(ground_state(grid, params), 0.0, params, None)
    assert rec.e0_kin == pytest.approx(1.5, rel=1e-8)
    assert rec.e0_pot == pytest.approx(1.5, rel=1e-8)


def test_record_components_scale_quadratically_and_quartically():
    rng = np.random.default_rng(41)
    u = random_smooth_field(GRID, rng, width=1.0)
    doubled = Field(GRID, 2.0 * u.data)
    r1 = record(u, 0.0, CUBIC, 0.0)
    r2 = record(doubled, 0.0, CUBIC, 0.0)
    assert r2.mass == pytest.approx(4.0 * r1.mass, rel=1e-12)
    assert r2.e0_kin == pytest.approx(4.0 * r1.e0_kin, rel=1e-12)
    assert r2.e0_pot == pytest.approx(4.0 * r1.e0_pot, rel=1e-12)
    assert r2.e0_int == pytest.approx(16.0 * r1.e0_int, rel=1e-12)
    assert r2.lz_expect == pytest.approx(4.0 * r1.lz_expect, rel=1e-10)
    assert r2.j_norm_sq == pytest.approx(4.0 * r1.j_norm_sq, rel=1e-12)
    assert r2.linf == pytest.approx(2.0 * r1.linf, rel=1e-12)


# ---------------------------------------------------------------------------
# angular momentum
# ---------------------------------------------------------------------------


def test_lz_expectation_on_reference_states():
    def lz(u):
        return record(u, 0.0, LINEAR, 0.0).lz_expect

    assert lz(vortex_state(GRID, LINEAR, +1)) == pytest.approx(1.0, abs=1e-8)
    assert lz(vortex_state(GRID, LINEAR, -1)) == pytest.approx(-1.0, abs=1e-8)
    assert abs(lz(ground_state(GRID, LINEAR))) < 1e-10
    rec = record(vortex_state(GRID, LINEAR, +1), 0.0, LINEAR, 0.0)
    assert rec.lz_imag_defect < 1e-10


# ---------------------------------------------------------------------------
# pseudo-conformal balance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t_local", [0.0, 0.3, np.pi / 4])
def test_balance_law_equals_twice_the_energy(t_local):
    # The balance law's axial terms cancel, and the transverse mix of the
    # dressed norms sums to gradient and trap moments at every window-local
    # time, so pc_lhs = 2 E0 as an algebraic identity for any field and any
    # interaction strength.
    rng = np.random.default_rng(42)
    for beta in (0.0, 1.0, 2.3):
        params = PhysicsParams(omega=1.0, beta=beta)
        u = random_smooth_field(GRID, rng, width=1.0)
        rec = record(u, t_local, params, None)
        assert rec.pc_lhs == pytest.approx(2.0 * rec.e0, rel=1e-12)
        assert abs(rec.pc_residual) < 1e-12 * max(abs(rec.pc_lhs), 1.0)


def _direct_dressed_quantities(u, t_local, params):
    """The dressed fields J(t)u, H(t)u built and integrated point by point.

    Derivatives come from one 3D transform per partial, independently of
    ``gradient_arrays``; the balance law is assembled from the fields'
    own quadratures.
    """
    grid = u.grid
    vol = grid.cell_volume
    n = grid.n
    u_hat = np.fft.fftn(u.data)
    derivs = tuple(
        np.fft.ifftn(1j * grid.freq_odd.reshape(shape) * u_hat)
        for shape in ((n, 1, 1), (1, n, 1), (1, 1, n))
    )

    def sq(a):
        return float(np.sum(np.abs(a) ** 2)) * vol

    def dressed(position):
        return [
            _dressed_component(
                u, t_local, params, axis, derivs, position, np.empty_like(u.data), np.empty_like(u.data)
            )
            for axis in range(3)
        ]

    j_fields, h_fields = dressed(False), dressed(True)
    j2 = sum(sq(a) for a in j_fields)
    h2 = sum(sq(a) for a in h_fields)
    j3, h3 = sq(j_fields[2]), sq(h_fields[2])
    cos_t = np.cos(params.omega * t_local)
    breve = 2.0 * cos_t - 1.0
    cross = 4.0 * cos_t * (1.0 - cos_t) * (
        params.omega**2 * sq(grid.x3 * u.data) + sq(derivs[2])
    )
    l4_4 = float(np.sum(np.abs(u.data) ** 4)) * vol
    pc_lhs = (
        (j2 - j3 + breve**2 * j3)
        + (h2 - h3 + breve**2 * h3)
        + cross
        + params.beta * l4_4
    )
    grad_sq = sum(sq(d) for d in derivs)
    sigma = np.sqrt(sq(u.data) + grad_sq) + np.sqrt(
        float(np.sum(grid.r2 * np.abs(u.data) ** 2)) * vol
    )
    return {"j_norm_sq": j2, "h_norm_sq": h2, "pc_lhs": pc_lhs, "sigma_norm": sigma}


@pytest.mark.parametrize("t_local", [0.0, 0.3, np.pi / 4])
@pytest.mark.parametrize("state", ["kicked_coherent", "vortex_plus"])
def test_record_moment_identities_match_the_dressed_fields(state, t_local):
    # record() reads ||J u||^2, ||H u||^2 and the balance law off grid
    # moments; the referee builds the six dressed fields and integrates.
    if state == "kicked_coherent":
        u = coherent_state(GRID, CUBIC, (1.0, 0.5, 0.3), (0.4, -0.3, 0.2))
    else:
        u = vortex_state(GRID, CUBIC, +1)
    rec = record(u, 7.0, CUBIC, None, t_local=t_local)
    for name, expected in _direct_dressed_quantities(u, t_local, CUBIC).items():
        measured = getattr(rec, name)
        assert abs(measured - expected) <= 1e-12 * abs(expected), name


@pytest.mark.parametrize("n", [48, 64])
def test_records_are_rotation_invariant_once_the_grid_resolves_the_field(n):
    # Every quadrature column is built from transverse rotation invariants,
    # so record(R(theta) v) equals record(v) up to the grid's resolution of
    # v (measured 4.7e-9 to 8.9e-9 at n = 32, <= 1.9e-15 at n = 48 and
    # <= 8e-16 at n = 64).  linf, a grid-sampled maximum, is left out.
    grid = GridSpec(n, 8.0)
    v = coherent_state(grid, CUBIC, (1.0, 0.5, 0.2), (0.3, -0.5, 0.2))
    want = record(v, 0.3, CUBIC, 1.0, t_local=0.3)
    for theta in (0.1, 0.4, np.pi / 4):
        turned = rotate_pattern(grid, v.data, theta, out=np.empty_like(v.data))
        got = record(Field(grid, turned), 0.3, CUBIC, 1.0, t_local=0.3)
        for name in QUADRATURE_COLUMNS:
            expected = getattr(want, name)
            assert abs(getattr(got, name) - expected) <= 1e-12 * abs(expected), (theta, name)
        assert abs(got.pc_residual - want.pc_residual) <= 1e-12 * want.pc_lhs


def test_balance_law_is_conserved_along_the_linear_flow():
    # The dressed-norm combination with the reflected axial twist stays at
    # 2 E0 along the flow; verified against the quadrature backend at times
    # where that backend is trustworthy.
    rng = np.random.default_rng(43)
    u0 = random_smooth_field(GRID, rng, width=1.0)
    e0 = record(u0, 0.0, LINEAR, None).e0
    for t in (0.55, LINEAR.window):
        ut = propagate_oracle(u0, t, LINEAR)
        rec = record(ut, t, LINEAR, e0)
        assert abs(rec.pc_residual) / (2.0 * e0) < 1e-5


def test_balance_law_is_conserved_for_the_ground_state():
    u0 = ground_state(GRID, LINEAR)
    e0 = record(u0, 0.0, LINEAR, None).e0
    ut = propagate_oracle(u0, 0.6, LINEAR)
    rec = record(ut, 0.6, LINEAR, e0)
    assert abs(rec.pc_residual) / (2.0 * e0) < 1e-6


# ---------------------------------------------------------------------------
# drift report
# ---------------------------------------------------------------------------


def test_drift_report_handles_short_streams():
    assert drift_report([]) == {"mass": 0.0, "e0": 0.0, "lz_expect": 0.0}
    u = ground_state(GRID, LINEAR)
    one = [record(u, 0.0, LINEAR, None)]
    assert all(v == 0.0 for v in drift_report(one).values())


def test_drift_report_measures_relative_drift():
    u = ground_state(GRID, CUBIC)
    r0 = record(u, 0.0, CUBIC, None)
    e0 = r0.e0
    bumped = Field(GRID, u.data * (1.0 + 1e-6))
    r1 = record(bumped, 0.1, CUBIC, e0)
    rep = drift_report([r0, r1])
    # mass drifts by (1 + 1e-6)^2 - 1 ~ 2e-6 relative (|mass(0)| = 1).
    assert rep["mass"] == pytest.approx(2e-6, rel=1e-3)
    assert rep["e0"] > 0.0


# ---------------------------------------------------------------------------
# CSV schema
# ---------------------------------------------------------------------------


def test_csv_header_is_frozen():
    assert CSV_HEADER == "t,mass,e0,e0_kin,e0_pot,e0_int,lz,pc_lhs,pc_residual,sigma,j2,h2,linf"


def test_csv_rows_round_trip_at_full_precision():
    u = vortex_state(GRID, CUBIC, +1)
    rec = record(u, 0.125, CUBIC, None)
    row = rec.csv_row()
    cells = row.split(",")
    assert len(cells) == len(CSV_HEADER.split(","))
    # 17 significant digits reproduce the doubles exactly.
    assert float(cells[0]) == rec.t
    assert float(cells[1]) == rec.mass
    assert float(cells[2]) == rec.e0
    assert float(cells[7]) == rec.pc_lhs
    assert float(cells[12]) == rec.linf


def test_write_csv_writes_the_formatted_rows_to_a_path(tmp_path):
    u = ground_state(GRID, CUBIC)
    recs = [record(u, 0.0, CUBIC, None)]
    path = tmp_path / "diag.csv"
    write_csv(recs, path)
    text = path.read_text()
    assert text == format_csv_rows(recs)
    assert text.startswith(CSV_HEADER + "\n")
    assert text.endswith("\n")
    assert len(text.strip().splitlines()) == 2


# ---------------------------------------------------------------------------
# drift under the nonlinear stepper
# ---------------------------------------------------------------------------


def run_drift(dt: float) -> float:
    # Geometry with negligible boundary mass, so the splitting error is the
    # only visible contribution to the energy drift.
    u0 = ground_state(GRID, CUBIC)
    cfg = SolverConfig(scheme="strang", dt=dt, t_end=0.6, m=1, diagnostics_every=25)
    res = evolve(u0, cfg, CUBIC)
    return drift_report(res.records)["e0"]


def test_strang_energy_drift_shrinks_at_second_order():
    coarse = run_drift(8e-3)
    fine = run_drift(4e-3)
    order = np.log2(coarse / fine)
    assert 1.8 < order < 2.2
