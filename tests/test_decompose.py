import math

import numpy as np
import pytest

from formdec import calculus, cohomology, decompose, fields
from formdec.calculus import sign_D
from formdec.decompose import (
    compact_assemble,
    cross_relation_check,
    dual_decompose,
    hodge_decompose,
    norm_decompose,
    sigma1,
    sigma2,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def setup(t2_flat):
    basis = cohomology.build_basis(t2_flat, 1)
    E, P = cohomology.matrix_E(basis, basis)
    T = cohomology.matrix_T(basis, basis)
    return t2_flat, basis, E, P, T


def test_basis_element_decomposition(setup):
    grid, basis, E, P, T = setup
    dec = hodge_decompose(basis.gammas[0], basis)
    assert np.allclose(dec.u, [1.0, 0.0], atol=1e-12)
    assert dec.alpha.norm_inf() < 1e-12
    assert dec.beta.norm_inf() < 1e-12
    assert dec.residue.norm_inf() < 1e-12


def test_constructed_mixed_form(setup):
    grid, basis, E, P, T = setup
    phi = fields.mixed_t2(grid, basis)
    dec = hodge_decompose(phi, basis)
    assert np.allclose(dec.u, [3.0, 4.0], atol=1e-10)
    # exact part recovered: d(alpha) = cos(u) du
    da = calculus.d(dec.alpha)
    assert float(np.max(np.abs(da.components[(0,)] - np.cos(grid.coords[0])))) < 1e-8
    assert dec.beta.norm_inf() < 1e-10
    assert dec.residue.norm_inf() < 1e-10


def test_flat_residue_is_zero(setup):
    # constants are spanned by the representatives on flat tori
    grid, basis, E, P, T = setup
    phi = grid.constant_form(1, {(0,): 0.4, (1,): -1.1})
    dec = hodge_decompose(phi, basis)
    assert dec.residue.norm_inf() < 1e-12


def test_dual_decompose_values(setup):
    grid, basis, E, P, T = setup
    phi = basis.gammas[0] * 3.0 + basis.gammas[1] * 4.0
    v = dual_decompose(phi, basis)
    assert np.allclose(v, [-4.0, 3.0], atol=1e-12)


def test_dual_decompose_exact_is_null(setup):
    grid, basis, E, P, T = setup
    rng = np.random.default_rng(21)
    phi = calculus.d(fields.random_trig_form(grid, 0, rng))
    v = dual_decompose(phi, basis)
    assert float(np.max(np.abs(v))) < 1e-8


def test_idempotence_on_exact_input(setup):
    grid, basis, E, P, T = setup
    rng = np.random.default_rng(22)
    phi = calculus.d(fields.random_trig_form(grid, 0, rng))
    dec = hodge_decompose(phi, basis)
    assert float(np.max(np.abs(dec.u))) < 1e-10
    assert dec.beta.norm_inf() < 1e-8


def test_cross_relations(setup):
    grid, basis, E, P, T = setup
    u = np.array([3.0, 4.0])
    v = np.array([-4.0, 3.0])
    res = cross_relation_check(u, v, T, sign_D(1, 2, 0), T_dual=T)
    assert res["max"] < 1e-12
    assert res["quadrature"] < 1e-12  # w = i T^t w
    assert cross_relation_check([0, 0], [0, 0], T, 1, T_dual=T)["max"] == 0.0


def test_round_trip_many_random(setup):
    grid, basis, E, P, T = setup
    rng = np.random.default_rng(23)
    for _ in range(10):
        phi = fields.random_trig_form(grid, 1, rng)
        dec = hodge_decompose(phi, basis)
        res = decompose.decomposition_residuals(phi, dec, basis)
        assert dec.reconstruction_error <= 1e-12
        assert res["residue_norm"] <= 1e-8
        assert res["gauge_delta_alpha"] <= 1e-8
        assert res["gauge_d_beta"] <= 1e-8
        assert res["cycle_of_exact"] <= 1e-10
        assert res["cycle_of_coexact"] <= 1e-10


def test_norm_budget_worked_case(setup):
    grid, basis, E, P, T = setup
    phi = basis.gammas[0] * 3.0 + basis.gammas[1] * 4.0
    dec = hodge_decompose(phi, basis)
    v = dual_decompose(phi, basis)
    nb = norm_decompose(phi, dec, v, E, P)
    assert abs(nb.topological_term - 25.0) < 1e-10
    assert abs(nb.direct_norm - 25.0) < 1e-10
    assert nb.budget_error < 1e-10


def test_norm_budget_exact_form(setup):
    grid, basis, E, P, T = setup
    phi = fields.exact_t2(grid)
    dec = hodge_decompose(phi, basis)
    v = dual_decompose(phi, basis)
    nb = norm_decompose(phi, dec, v, E, P)
    assert abs(nb.topological_term) < 1e-10
    assert abs(nb.exact_term - nb.direct_norm) < 1e-8 * max(1.0, abs(nb.direct_norm))


def test_norm_budget_random(setup):
    grid, basis, E, P, T = setup
    rng = np.random.default_rng(24)
    for _ in range(10):
        phi = fields.random_trig_form(grid, 1, rng)
        dec = hodge_decompose(phi, basis)
        v = dual_decompose(phi, basis)
        nb = norm_decompose(phi, dec, v, E, P)
        assert nb.budget_error <= 1e-8


def test_mutual_pairing_orthogonality(setup):
    grid, basis, E, P, T = setup
    rng = np.random.default_rng(25)
    phi = fields.random_trig_form(grid, 1, rng)
    dec = hodge_decompose(phi, basis)
    da = calculus.d(dec.alpha)
    db = calculus.delta(dec.beta)
    scale = max(1.0, phi.norm_inf()) ** 2
    assert abs(calculus.pairing(da, db)) / scale < 1e-8
    for g in basis.gammas:
        assert abs(calculus.pairing(da, g)) / scale < 1e-8
        assert abs(calculus.pairing(db, g)) / scale < 1e-8


def test_linear_independence_gram_blocks(setup):
    grid, basis, E, P, T = setup
    rng = np.random.default_rng(26)
    phi = fields.random_trig_form(grid, 1, rng)
    dec = hodge_decompose(phi, basis)
    parts = [calculus.d(dec.alpha), calculus.delta(dec.beta)] + list(basis.gammas)
    G = np.array([[calculus.pairing(a, b) for b in parts] for a in parts])
    # off-block entries vanish: exact/coexact/cohomology are pairwise orthogonal
    assert abs(G[0, 1]) < 1e-8
    assert np.max(np.abs(G[0, 2:])) < 1e-8
    assert np.max(np.abs(G[1, 2:])) < 1e-8
    # diagonal blocks are nondegenerate witnesses
    assert G[0, 0] > 0 and G[1, 1] > 0


def test_sigma_matrices():
    assert np.allclose(sigma2() @ sigma2(), -np.eye(2))
    # odd D: sigma1 = I and R(xi) = sigma1 cos + sigma2 sin is orthogonal
    s1 = sigma1(1)
    assert np.allclose(s1, np.eye(2))
    for xi in (0.3, 1.2, 2.9):
        R = s1 * math.cos(xi) + sigma2() * math.sin(xi)
        assert np.allclose(R @ R.T, np.eye(2), atol=1e-12)


def test_compact_assemble_basis_case(setup):
    grid, basis, E, P, T = setup
    zero = grid.zeros(0)
    u = np.array([1.0, 0.0])
    v = T.T @ u  # consistent dual integrals
    phi, sphi = compact_assemble(zero, zero, u, v, basis)
    assert (phi - basis.gammas[0]).norm_inf() < 1e-12
    assert (sphi - basis.gammas[1]).norm_inf() < 1e-12  # star(gamma1) = gamma2


def test_compact_assemble_zero(setup):
    grid, basis, E, P, T = setup
    zero = grid.zeros(0)
    phi, sphi = compact_assemble(zero, zero, [0.0, 0.0], [0.0, 0.0], basis)
    assert phi.norm_inf() == 0.0 and sphi.norm_inf() == 0.0


def test_compact_assemble_full(setup):
    grid, basis, E, P, T = setup
    rng = np.random.default_rng(27)
    alpha = fields.random_trig_form(grid, 0, rng)
    beta = fields.random_trig_form(grid, 0, rng)
    u = np.array([0.5, -1.5])
    v = T.T @ u
    phi, sphi = compact_assemble(alpha, beta, u, v, basis)
    assert (calculus.star(phi) - sphi).norm_inf() < 1e-8 * max(phi.norm_inf(), 1.0)


def test_compact_assemble_inconsistent_rejected(setup):
    grid, basis, E, P, T = setup
    zero = grid.zeros(0)
    with pytest.raises(ValueError):
        compact_assemble(zero, zero, [1.0, 0.0], [1.0, 0.0], basis)
