import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from formdec import GridSpec, build_grid, integrate_cycle_mean
from formdec import calculus, cohomology, decompose, fields
from formdec.cohomology import (
    build_basis,
    matrix_E,
    matrix_Lambda,
    matrix_T,
    verify_pair,
    verify_triple,
)

from test_decompose import embedded_grids_12, every_degree_basis
from test_stencil_properties import EPS, FAST, count_calls, embedded_grids, flat_grids

TWO_PI = 2.0 * math.pi
# relative bound of the embedded closed forms: over about 8,000 random tori from
# the ranges of test_embedded_matrices_and_norm_match_the_closed_form the largest
# error was 12 eps on T and Lambda (thin tori, R/r near 1.01, N near 90), and over
# about 5,000 of their decompositions 13 eps on the topological term
ORACLE_TOL = 24 * EPS


def oracle_circulation(R, r):
    """Independent quadrature of int_0^{2pi} dv/(R + r cos v)."""
    val, err = quad(lambda v: 1.0 / (R + r * math.cos(v)), 0.0, TWO_PI, epsabs=1e-13)
    assert err < 1e-6
    return val


def test_oracle_matches_closed_form():
    assert abs(oracle_circulation(2.0, 1.0) - TWO_PI / math.sqrt(3.0)) < 1e-10


def test_flat_t2_basis_exact(t2_flat):
    basis = build_basis(t2_flat, 1)
    assert basis.betti == 2
    assert np.allclose(basis.gammas[0].components[(0,)], 1.0 / TWO_PI)
    assert np.allclose(basis.gammas[0].components[(1,)], 0.0)
    assert np.allclose(basis.gammas[1].components[(1,)], 1.0 / TWO_PI)
    assert basis.normalization_residual < 1e-12
    # no projection runs on a flat metric, so the coderivative is not
    # measured: every stencil difference of the constant seeds is exactly 0
    assert basis.delta_residual is None
    for g in basis.gammas:
        assert calculus.d(g).norm_inf() == 0.0
        assert calculus.delta(g).norm_inf() == 0.0


def test_flat_t2_matrices(t2_flat):
    basis = build_basis(t2_flat, 1)
    E, P = matrix_E(basis, basis)
    T = matrix_T(basis, basis)
    L = matrix_Lambda(basis)
    assert np.allclose(E, [[0, 1], [-1, 0]], atol=1e-12)
    assert list(P) == [1, 0]
    assert np.allclose(T, [[0, 1], [-1, 0]], atol=1e-12)
    assert np.allclose(L, np.eye(2), atol=1e-12)
    # m odd: E antisymmetric
    assert np.max(np.abs(E + E.T)) < 1e-12


def test_embedded_basis_and_matrices(t2_embedded):
    basis = build_basis(t2_embedded, 1)
    # gamma_2 = sqrt(R^2-r^2) dv / (2 pi q_N (R + r cos v)), q_128 = 1; here R=2, r=1
    v = t2_embedded.coords[1]
    expected = math.sqrt(3.0) / (TWO_PI * (2.0 + np.cos(v)))
    assert float(np.max(np.abs(basis.gammas[1].components[(1,)] - expected))) <= ORACLE_TOL
    # the stencil's rounding, which scales as 1/h
    assert basis.delta_residual <= 4 * EPS / t2_embedded.steps[1]
    T = matrix_T(basis, basis)
    L = matrix_Lambda(basis)
    # tau12 = r * oracle / (2 pi) = 1/sqrt(3); tau21 = -sqrt(3)
    circ = oracle_circulation(2.0, 1.0)
    tau12 = 1.0 * circ / TWO_PI
    assert abs(T[0, 1] - tau12) <= ORACLE_TOL * tau12
    assert abs(T[1, 0] + math.sqrt(3.0)) <= ORACLE_TOL * math.sqrt(3.0)
    assert T[0, 0] == T[1, 1] == 0.0
    assert abs(T[0, 1] * T[1, 0] + 1.0) <= ORACLE_TOL
    assert np.all(np.abs(L - np.diag([1.0 / math.sqrt(3.0), math.sqrt(3.0)])) <= ORACLE_TOL * L)


def closed_form_kq(R, r, N):
    """k q_N with k = r / sqrt(R^2 - r^2) and q_N = (1 + rho^N) / (1 - rho^N),
    rho = (R - sqrt(R^2 - r^2)) / r: the N-point rectangle rule of
    r / (2 pi) int dv / (R + r cos v) in closed form (Trefethen & Weideman,
    SIAM Review 56(3), 2014)."""
    s = math.sqrt((R - r) * (R + r))
    rho = r / (R + s)  # (R - s) / r without its cancellation
    return r / s * (1.0 + rho**N) / (1.0 - rho**N)


@FAST
@given(
    ratio=st.floats(1.01, 40.0),
    r=st.floats(0.1, 1000.0).filter(lambda r: r != 1.0),  # r = 1 hides a wrong power of r
    half_n=st.integers(2, 48),
)
def test_embedded_matrices_and_norm_match_the_closed_form(ratio, r, half_n):
    # T_uv = k q_N, T_vu = -1/(k q_N), Lambda = diag(k q_N, 1/(k q_N)), and the
    # topological term of mixed_t2 (u = (3, 4)) is u^t Lambda u
    N, R = 2 * half_n, ratio * r
    grid = build_grid(GridSpec(2, (N, N), (TWO_PI, TWO_PI), (1, 1), "embedded-torus", R, r))
    basis = build_basis(grid, 1)
    kq = closed_form_kq(R, r, N)
    T, L = basis.T, basis.Lambda
    for got, want in ((T[0, 1], kq), (T[1, 0], -1.0 / kq), (L[0, 0], kq), (L[1, 1], 1.0 / kq)):
        assert abs(got - want) <= ORACLE_TOL * abs(want)
    assert T[0, 0] == T[1, 1] == L[0, 1] == L[1, 0] == 0.0
    phi = fields.mixed_t2(basis)
    dec = decompose.hodge_decompose(phi, basis)
    nb = decompose.norm_decompose(phi, dec, decompose.dual_decompose(phi, basis), basis.E, basis.P)
    want = 9.0 * kq + 16.0 / kq
    assert abs(nb.topological - want) <= ORACLE_TOL * want


def test_minkowski_2form_basis(t4_mink):
    basis = build_basis(t4_mink, 2)
    assert basis.betti == 6
    for g in basis.gammas:
        for arr in g.components.values():
            assert float(np.max(np.abs(arr - arr.flat[0]))) < 1e-12  # constants
    L = matrix_Lambda(basis)
    comps = t4_mink.components_of_degree(2)
    for a, I in enumerate(comps):
        expect = -1.0 if 0 in I else 1.0
        assert abs(L[a, a] - expect) < 1e-12


def test_minkowski_E_and_T(t4_mink):
    basis = build_basis(t4_mink, 2)
    E, P = matrix_E(basis, basis)
    T = matrix_T(basis, basis)
    comps = t4_mink.components_of_degree(2)
    i01, i23 = comps.index((0, 1)), comps.index((2, 3))
    assert abs(E[i01, i23] - 1.0) < 1e-12
    assert P[i01] == i23
    row = T[i01]
    assert abs(row[i23] + 1.0) < 1e-12
    assert float(np.sum(np.abs(row))) - 1.0 < 1e-12


@pytest.mark.parametrize("dim,p", [(2, 1), (3, 1), (4, 1), (4, 2)])
def test_matrix_identity_battery_flat(dim, p):
    n_pts = {2: 32, 3: 16, 4: 10}[dim]
    grid = build_grid(GridSpec(dim, (n_pts,) * dim, (TWO_PI,) * dim, (1,) * dim))
    bp = build_basis(grid, p)
    chk = verify_pair(bp)
    assert max(chk.tt_residual, chk.et_residual) <= 1e-10
    if 2 * p == dim:  # lel and the reality rule are middle-degree identities
        assert max(chk.lel_residual, chk.reality_residual) <= 1e-10


def test_matrix_identity_battery_embedded(t2_embedded):
    basis = build_basis(t2_embedded, 1)
    chk = verify_pair(basis)
    assert max(chk.max_residual(), chk.reality_residual) <= 1e-5


def test_verify_triple_flat(t2_flat):
    basis = build_basis(t2_flat, 1)
    E, _ = matrix_E(basis, basis)
    T = matrix_T(basis, basis)
    L = matrix_Lambda(basis)
    chk = verify_triple(E, T, L, calculus.sign_D(1, 2, 0), T)
    assert chk.max_residual() <= 1e-10
    assert chk.reality_residual <= 1e-10
    assert abs(chk.det_T - 1.0) < 1e-10  # group S2.1.3 with s = 0


def test_verify_triple_beta1_degenerate():
    # beta = 1 with odd D: a real T cannot satisfy the reality rule
    chk = verify_triple([[1.0]], [[1.0]], [[1.0]], 1, [[1.0]])
    assert chk.reality_residual > 1.0


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_verify_triple_singularity_is_scale_free(scale):
    # det E = -scale^2 under- or overflows at the extremes; E / max|E| does not
    E = scale * np.array([[0.0, 1.0], [1.0, 0.0]])
    chk = verify_triple(E, np.eye(2), E, 0, np.eye(2))
    assert chk.tt_residual == 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular E matrix"):
        verify_triple(scale * np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2), E, 0, np.eye(2))
    with pytest.raises(np.linalg.LinAlgError, match="singular E matrix"):
        verify_triple(np.zeros((2, 2)), np.eye(2), E, 0, np.eye(2))


def test_duality_error_on_bad_degrees(t2_flat):
    b1 = build_basis(t2_flat, 1)
    b0 = build_basis(t2_flat, 0)
    with pytest.raises(ValueError):
        matrix_E(b1, b0)
    with pytest.raises(ValueError):
        matrix_T(b1, b0)


@pytest.mark.parametrize("dim,p", [(2, 1), (3, 1), (3, 2), (4, 0), (4, 2)])
def test_basis_carries_its_dual_and_E(dim, p):
    grid = build_grid(GridSpec(dim, (8,) * dim, (TWO_PI,) * dim, (1,) * dim))
    basis = build_basis(grid, p)
    dual = basis.dual
    assert dual.degree == dim - p and dual.dual is basis
    assert (dual is basis) == (2 * p == dim)
    for b in (basis, dual):
        E, P = matrix_E(b, b.dual)
        assert np.array_equal(b.E, E) and np.array_equal(b.P, P)
    # the linked fields stay out of repr, which would otherwise recurse through dual.dual
    assert " dual=" not in repr(basis) and " E=" not in repr(basis)
    with pytest.raises(ValueError):
        basis.coefficients(grid.zeros(p + 1))


def check_cycle_identity(grid):
    """The cycle integrals of every basis form are the identity, unrenormalized."""
    for basis in every_degree_basis(grid):
        C = [[integrate_cycle_mean(g, z) for z in basis.cycles] for g in basis.gammas]
        assert float(np.max(np.abs(np.array(C) - np.eye(basis.betti)))) <= 1e-15, basis.degree


@FAST
@given(grid=flat_grids())
def test_cycle_integrals_are_identity_flat(grid):
    check_cycle_identity(grid)


@FAST
@given(grid=embedded_grids_12())
def test_cycle_integrals_are_identity_embedded(grid):
    check_cycle_identity(grid)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_flat_build_basis_runs_no_stencil(monkeypatch, dim):
    grid = build_grid(GridSpec(dim, (8,) * dim, (TWO_PI,) * dim, (1,) * dim))
    calls = count_calls(monkeypatch, calculus, ("d", "delta"))
    for p in range(dim + 1):
        build_basis(grid, p)
    assert calls == {}


@pytest.mark.parametrize("dim,p", [(2, 1), (3, 1), (4, 1), (4, 2)])
def test_verify_pair_reuses_E_and_builds_each_T_once(monkeypatch, dim, p):
    grid = build_grid(GridSpec(dim, (8,) * dim, (TWO_PI,) * dim, (1,) * dim))
    basis = build_basis(grid, p)
    calls = count_calls(monkeypatch, cohomology, ("matrix_E", "matrix_T", "matrix_Lambda"))
    verify_pair(basis)
    assert calls["matrix_E"] == 0
    assert calls["matrix_T"] == (1 if 2 * p == dim else 2)
    assert calls["matrix_Lambda"] == 1


@pytest.mark.parametrize("dim,p", [(2, 1), (4, 1), (4, 2)])
def test_second_verify_pair_builds_no_T(monkeypatch, dim, p):
    # T and Lambda are kept on each basis, so a second battery reads them back
    grid = build_grid(GridSpec(dim, (8,) * dim, (TWO_PI,) * dim, (1,) * dim))
    basis = build_basis(grid, p)
    first = verify_pair(basis)
    kept = basis.T, basis.dual.T, basis.Lambda
    calls = count_calls(monkeypatch, cohomology, ("matrix_E", "matrix_T", "matrix_Lambda"))
    assert verify_pair(basis) == first
    assert calls == {}
    assert all(a is b for a, b in zip(kept, (basis.T, basis.dual.T, basis.Lambda)))


@FAST
@given(grid=embedded_grids())
def test_embedded_basis_is_harmonic_to_rounding(grid):
    # the closed-form basis at every resolution down to 4 points per axis
    basis = build_basis(grid, 1)
    h_v, min_sqrt_g = grid.steps[1], float(np.min(grid.sqrt_abs_g))
    for g in basis.gammas:
        assert calculus.d(g).norm_inf() == 0.0
        # delta g is the v-partial of (star g)_u, a constant up to the rounding
        # of star, over sqrt|g|
        sg = calculus.star(g)
        assert calculus.delta(g).norm_inf() <= 16 * EPS * sg.norm_inf() / (h_v * min_sqrt_g)
    cycles = np.array([[integrate_cycle_mean(g, z) for z in basis.cycles] for g in basis.gammas])
    assert float(np.max(np.abs(cycles - np.eye(2)))) <= grid.shape[1] * EPS
    assert basis.normalization_residual <= grid.shape[1] * EPS
    T = matrix_T(basis, basis)
    for a, g in enumerate(basis.gammas):
        sg = calculus.star(g)
        recon = sum(t * b.values for t, b in zip(T[a], basis.gammas))
        assert float(np.max(np.abs(sg.values - recon))) <= 16 * EPS * sg.norm_inf()


EMBEDDED = build_grid(
    GridSpec(2, (16, 12), (TWO_PI, TWO_PI), (1, 1), metric="embedded-torus", R=1.5, r=1.0)
)


@pytest.mark.parametrize(
    "grid",
    [EMBEDDED] + [build_grid(GridSpec(n, (8,) * n, (TWO_PI,) * n, (1,) * n)) for n in (1, 2, 3)],
    ids=["embedded", "flat-1", "flat-2", "flat-3"],
)
def test_build_basis_solves_nothing_and_stores_compact_forms(monkeypatch, grid):
    calls = count_calls(monkeypatch, calculus, ("green_solve", "potentials", "_curved_symbols"))
    # flat: (C, 1, ..., 1); embedded: length 1 along u, and 1 or N_v along v
    shapes = {(1,) * grid.dim} if grid.is_flat else {(1, 1), (1, grid.shape[1])}
    for basis in every_degree_basis(grid):
        assert {g.values.shape[1:] for g in basis.gammas} <= shapes
        verify_pair(basis)
    assert calls == {}
    assert "curved" not in grid._symbol_cache
