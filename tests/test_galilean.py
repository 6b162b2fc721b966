"""Dressed symmetry operators: reductions, chirp routes, commutator defects."""

import numpy as np
import pytest

from rotor_gpe import (
    Field,
    GridSpec,
    PhysicsParams,
    QFactorizationSingular,
    chirp_pair,
    galilean_momentum,
    galilean_momentum_chirped,
    galilean_position,
    galilean_position_chirped,
    ground_state,
    lp_norm,
    momentum_defect,
    position_defect,
    propagate_fast,
    random_smooth_field,
    spectral_gradient,
    vortex_state,
)

GRID = GridSpec(24, 6.0)
PARAMS = PhysicsParams(omega=1.0, beta=0.0)


def rel_l2(f: Field, g: Field) -> float:
    return float(np.linalg.norm(f.data - g.data) / np.linalg.norm(g.data))


def smooth(rng, grid=GRID) -> Field:
    return random_smooth_field(grid, rng, width=grid.extent / 6.0)


# ---------------------------------------------------------------------------
# zero-time reductions
# ---------------------------------------------------------------------------


def test_momentum_reduces_to_gradient_at_zero_time():
    rng = np.random.default_rng(31)
    f = smooth(rng)
    j1, j2, j3 = galilean_momentum(f, 0.0, PARAMS)
    d1, d2, d3 = spectral_gradient(f)
    for jf, df in zip((j1, j2, j3), (d1, d2, d3)):
        assert np.max(np.abs(jf.data - (-1j) * df.data)) < 1e-13


def test_position_reduces_to_trap_coordinate_at_zero_time():
    rng = np.random.default_rng(32)
    f = smooth(rng)
    h1, h2, h3 = galilean_position(f, 0.0, PARAMS)
    for hf, slab in zip((h1, h2, h3), (GRID.x1, GRID.x2, GRID.x3)):
        assert np.max(np.abs(hf.data - PARAMS.omega * slab * f.data)) < 1e-13


# ---------------------------------------------------------------------------
# chirp factorization
# ---------------------------------------------------------------------------


def test_chirps_are_unimodular_and_q_is_singular_at_zero():
    m, q = chirp_pair(GRID, PARAMS, 0.5)
    assert np.max(np.abs(np.abs(m) - 1.0)) < 1e-14
    assert np.max(np.abs(np.abs(q) - 1.0)) < 1e-14
    with pytest.raises(QFactorizationSingular):
        chirp_pair(GRID, PARAMS, 0.0)


def test_chirped_route_agrees_with_direct_application():
    # The chirp-conjugated derivative form must reproduce the direct dressed
    # operators.  The box is sized so the chirp stays resolved at both times.
    grid = GridSpec(64, 8.0)
    params = PhysicsParams(omega=1.0, beta=0.0)
    for state in (ground_state(grid, params), vortex_state(grid, params, +1)):
        for t in (0.7, params.window):
            direct_j = galilean_momentum(state, t, params)
            chirped_j = galilean_momentum_chirped(state, t, params)
            for a, b in zip(chirped_j, direct_j):
                assert rel_l2(a, b) < 1e-10
            direct_h = galilean_position(state, t, params)
            chirped_h = galilean_position_chirped(state, t, params)
            for a, b in zip(chirped_h, direct_h):
                assert rel_l2(a, b) < 1e-10


# ---------------------------------------------------------------------------
# commutator defects
# ---------------------------------------------------------------------------


def test_defects_are_proportional_to_the_axial_components():
    # O_J = 2i*omega*sin(theta) * J3 and O_H = 2i*omega*sin(theta) * H3,
    # as operator identities (same arithmetic, so near machine exact).
    rng = np.random.default_rng(33)
    for t in (0.2, 0.5, PARAMS.window):
        f = smooth(rng)
        theta = PARAMS.omega * t
        scale = 2j * PARAMS.omega * np.sin(theta)
        j3 = galilean_momentum(f, t, PARAMS)[2]
        oj = momentum_defect(f, t, PARAMS)
        assert rel_l2(oj, Field(GRID, scale * j3.data)) < 1e-12
        h3 = galilean_position(f, t, PARAMS)[2]
        oh = position_defect(f, t, PARAMS)
        assert rel_l2(oh, Field(GRID, scale * h3.data)) < 1e-12


def test_defect_norm_ratio_is_uniformly_bounded():
    # ||O_J u|| / (omega*t*||J3 u||) = 2 sin(theta)/theta <= 2, well below
    # the window-uniform constant 2/(sqrt(2)-1).
    rng = np.random.default_rng(34)
    f = smooth(rng)
    cap = 2.0 / (np.sqrt(2.0) - 1.0) + 1e-6
    for t in np.linspace(0.05, PARAMS.window, 20):
        theta = PARAMS.omega * t
        j3 = galilean_momentum(f, t, PARAMS)[2]
        oj = momentum_defect(f, t, PARAMS)
        ratio = lp_norm(oj, 2) / (PARAMS.omega * t * lp_norm(j3, 2))
        assert ratio == pytest.approx(2.0 * np.sin(theta) / theta, rel=1e-10)
        assert ratio <= 2.0
        assert ratio <= cap


def test_dressed_operators_satisfy_the_pythagorean_identity():
    # sum_j ||J_j u||^2 + ||H_j u||^2 = ||grad u||^2 + omega^2 || |x| u ||^2
    # for every t: the dressing is a rotation in phase space.
    rng = np.random.default_rng(35)
    f = smooth(rng)
    grads = spectral_gradient(f)
    grad_sq = sum(lp_norm(g, 2) ** 2 for g in grads)
    x_sq = float(np.sum(GRID.r2 * np.abs(f.data) ** 2) * GRID.cell_volume)
    target = grad_sq + PARAMS.omega**2 * x_sq
    for t in (0.1, 0.4, PARAMS.window):
        js = galilean_momentum(f, t, PARAMS)
        hs = galilean_position(f, t, PARAMS)
        total = sum(lp_norm(g, 2) ** 2 for g in js) + sum(lp_norm(g, 2) ** 2 for g in hs)
        assert total == pytest.approx(target, rel=1e-12)


# ---------------------------------------------------------------------------
# intertwining with the flow
# ---------------------------------------------------------------------------


def test_dressed_momentum_intertwines_with_the_flow():
    # J(t) S(t) u = S(t) J(0) u -- the dressed operator is the conserved
    # image of the gradient.  Geometry chosen so box truncation of the
    # coordinate-weighted components stays below the tolerance.
    grid = GridSpec(32, 7.0)
    params = PhysicsParams(omega=1.0, beta=0.0)
    u = ground_state(grid, params)
    t, m = 0.6, 128
    ut = propagate_fast(u, t, params, m)
    lhs = galilean_momentum(ut, t, params)
    rhs = [propagate_fast(g, t, params, m) for g in galilean_momentum(u, 0.0, params)]
    defect = np.sqrt(
        sum(np.linalg.norm(a.data - b.data) ** 2 for a, b in zip(lhs, rhs))
    )
    assert defect < 1e-5
