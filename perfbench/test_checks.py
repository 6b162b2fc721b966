"""Each benchmark check passes on a right answer and fails on a wrong one.

Run from the repository root: ``python3 -m pytest perfbench/test_checks.py``.
"""

import math

import numpy as np
import pytest

import checks as ck

N, EXTENT, OMEGA, BETA = 48, 8.0, 1.0, 1.0
X0, P0 = (1.2, 0.3, 0.2), (0.3, -0.6, 0.2)
T = 0.05


def coherent_field(x0, p0):
    """Closed-form coherent state ``exp(i p0.x) phi0(x - x0)`` on the grid."""
    x1, x2, x3 = np.meshgrid(*[ck.axis(N, EXTENT)] * 3, indexing="ij")
    shifted = (x1 - x0[0]) ** 2 + (x2 - x0[1]) ** 2 + (x3 - x0[2]) ** 2
    phase = p0[0] * x1 + p0[1] * x2 + p0[2] * x3
    return (OMEGA / np.pi) ** 0.75 * np.exp(-0.5 * OMEGA * shifted + 1j * phase)


def centre_at(position):
    field = coherent_field(position, (0.0, 0.0, 0.0))
    return ck.moments(field, EXTENT, OMEGA, BETA)["centre"]


def test_moments_of_the_coherent_state_match_the_closed_forms():
    field = coherent_field(X0, P0)
    measured = ck.moments(field, EXTENT, OMEGA, BETA)
    for key, value in ck.initial_closed_form(X0, P0, OMEGA, BETA).items():
        assert measured[key] == pytest.approx(value, abs=1e-10), key
    assert measured["centre"] == pytest.approx(list(X0), abs=1e-10)


def test_kohn_orbit_turns_clockwise_at_first_order():
    # d<x>/dt = <p> + omega (x2, -x1) at t = 0 for -omega Lz with Lz = -i d_phi.
    h = 1e-6
    slope = (ck.kohn_centre(X0, P0, OMEGA, h) - ck.kohn_centre(X0, P0, OMEGA, -h)) / (2 * h)
    expected = [P0[0] + OMEGA * X0[1], P0[1] - OMEGA * X0[0], P0[2]]
    assert slope == pytest.approx(expected, abs=1e-8)


def test_kohn_check_rejects_the_opposite_sense():
    right = ck.kohn_centre(X0, P0, OMEGA, T)
    wrong = ck.kohn_centre(X0, P0, OMEGA, T, sense=+1)
    assert ck.check_kohn([(0.0, centre_at(X0)), (T, centre_at(right))], X0, P0, OMEGA).passed
    check = ck.check_kohn([(0.0, centre_at(X0)), (T, centre_at(wrong))], X0, P0, OMEGA)
    assert not check.passed
    assert check.value > 0.05


def test_kohn_check_rejects_a_late_snapshot_a_nan_and_no_samples():
    late = ck.kohn_centre(X0, P0, OMEGA, T + 5e-4)
    assert not ck.check_kohn([(T, centre_at(late))], X0, P0, OMEGA).passed
    nan = [math.nan] * 3
    assert not ck.check_kohn([(0.0, centre_at(X0)), (T, nan)], X0, P0, OMEGA).passed
    assert not ck.check_kohn([], X0, P0, OMEGA).passed


def test_drift_checks_pass_on_a_conserved_series_and_catch_perturbations():
    field = coherent_field(X0, P0)
    base = ck.moments(field, EXTENT, OMEGA, BETA)
    assert all(c.passed for c in ck.check_drifts([base, dict(base)]))

    heavier = ck.moments(field * (1 + 1e-9), EXTENT, OMEGA, BETA)
    by_name = {c.name: c for c in ck.check_drifts([base, heavier])}
    assert not by_name["drift-mass"].passed

    x = ck.axis(N, EXTENT).reshape(1, N, 1)
    kicked = ck.moments(field * np.exp(1e-5j * x), EXTENT, OMEGA, BETA)
    by_name = {c.name: c for c in ck.check_drifts([base, kicked])}
    assert by_name["drift-mass"].passed
    assert not by_name["drift-e0"].passed
    assert not by_name["drift-lz"].passed

    assert not any(c.passed for c in ck.check_drifts([base]))
    broken = dict(base, mass=math.nan)
    assert not ck.check_drifts([base, broken, base])[0].passed


def csv_text(**changes):
    row = ck.initial_closed_form(X0, P0, OMEGA, BETA)
    row = {"t": 0.0, "mass": row["mass"], "e0": 0.0, "e0_kin": row["e0_kin"],
           "e0_pot": row["e0_pot"], "e0_int": row["e0_int"], "lz": row["lz"], **changes}
    return ",".join(row) + "\n" + ",".join(f"{v:.17g}" for v in row.values()) + "\n"


def test_csv_first_row_check():
    assert ck.check_csv_first_row(csv_text(), X0, P0, OMEGA, BETA).passed
    kin = ck.initial_closed_form(X0, P0, OMEGA, BETA)["e0_kin"]
    assert not ck.check_csv_first_row(csv_text(e0_kin=kin + 1e-6), X0, P0, OMEGA, BETA).passed
    assert not ck.check_csv_first_row(csv_text(t=5e-4), X0, P0, OMEGA, BETA).passed
    assert not ck.check_csv_first_row(csv_text(lz=math.nan), X0, P0, OMEGA, BETA).passed
    assert not ck.check_csv_first_row("t,mass\n0,1\n", X0, P0, OMEGA, BETA).passed
    assert not ck.check_csv_first_row("", X0, P0, OMEGA, BETA).passed


def verify_table(rows):
    lines = [f"{'check':<25}{'measured':>12}  {'tolerance':>10}  status"]
    for name, measured, tol, status in rows:
        lines.append(f"{name:<25}{measured:>12.3e}  {tol:>10.1e}  {status}")
    return "\n".join(lines) + "\n"


GOOD_ROWS = [(name, 1e-7, 1e-5, "PASS") for name in ck.VERIFY_ROWS]


def test_verify_table_check_passes_a_clean_battery():
    found, margin = ck.check_verify_table(verify_table(GOOD_ROWS), 0)
    assert all(c.passed for c in found)
    assert len(found) == 1 + len(ck.VERIFY_ROWS)
    assert margin == pytest.approx(2.0)


@pytest.mark.parametrize(
    "rows, code, margin",
    [
        (GOOD_ROWS, 3, 2.0),
        (GOOD_ROWS[:-1], 0, 0.0),
        (GOOD_ROWS[:-1] + [("nonlinear-referee", 2e-4, 1e-4, "FAIL")], 0, 0.0),
        (GOOD_ROWS[:-1] + [("nonlinear-referee", 2e-4, 1e-4, "PASS")], 0, -math.log10(2.0)),
    ],
    ids=["exit-code", "missing-row", "fail-row", "measured-over-tolerance"],
)
def test_verify_table_check_catches_a_bad_battery(rows, code, margin):
    found, measured_margin = ck.check_verify_table(verify_table(rows), code)
    assert sum(not c.passed for c in found) == 1
    assert measured_margin == pytest.approx(margin)


def test_snapshot_reader_follows_the_documented_layout(tmp_path):
    data = coherent_field(X0, P0)
    interleaved = np.stack([data.real, data.imag], axis=-1).astype("<f8")
    stem = tmp_path / "snap"
    stem.with_suffix(".bin").write_bytes(interleaved.tobytes())
    stem.with_suffix(".json").write_text(f'{{"n": {N}, "extent": {EXTENT}, "t": 0.0}}')
    decoded, sidecar = ck.read_snapshot(stem)
    assert np.array_equal(decoded, data)
    assert sidecar["t"] == 0.0

    # x varying fastest instead of z swaps x1 and x3 of the centre.
    stem.with_suffix(".bin").write_bytes(interleaved.transpose(2, 1, 0, 3).copy().tobytes())
    swapped, _ = ck.read_snapshot(stem)
    centre = ck.moments(swapped, EXTENT, OMEGA, BETA)["centre"]
    assert not ck.check_kohn([(0.0, centre)], X0, P0, OMEGA).passed

    stem.with_suffix(".bin").write_bytes(interleaved.tobytes()[:-8])
    with pytest.raises(ValueError):
        ck.read_snapshot(stem)


def test_a_failed_check_is_never_a_pass():
    assert not ck.Check("nan", math.nan, 1.0).passed
    assert not ck.Check("inf", math.inf, 1.0).passed
    assert ck.digits(1e-8) == pytest.approx(8.0)
