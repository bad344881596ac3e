import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from formdec import GridSpec, build_grid, calculus, cli, cohomology, decompose, fields
from formdec.calculus import sign_D
from formdec.decompose import (
    cross_relation_check,
    dual_decompose,
    hodge_decompose,
    norm_decompose,
)

from test_stencil_properties import (
    EVEN_N,
    FAST,
    count_calls,
    flat_grids,
    light_cone_condition,
    random_form,
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
    # T T = -I holds only at the middle degree, where T_dual is T
    assert "quadrature" not in cross_relation_check(u, v, T, 1, T_dual=T.copy())
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
        # alpha is a 0-form and beta a top form: no gauge check applies
        assert "gauge_delta_alpha" not in res and "gauge_d_beta" not in res
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


# ---------------------------------------------------------------------------
# harmonic coefficients by Poincare duality, on flat and curved metrics
# ---------------------------------------------------------------------------


def embedded(points, R, r):
    return build_grid(GridSpec(2, points, (TWO_PI, TWO_PI), (1, 1), "embedded-torus", R, r))


@st.composite
def embedded_grids_12(draw):
    """Embedded tori with at least 12 points per axis."""
    points = tuple(draw(st.lists(st.sampled_from([12, 16, 20, 24]), min_size=2, max_size=2)))
    r = draw(st.floats(0.1, 2.0))
    return embedded(points, r * draw(st.floats(1.05, 4.0)), r)


def every_degree_basis(grid):
    """One basis per degree 0..n, each complementary pair built once."""
    bases = {}
    for p in range(grid.dim // 2 + 1):
        basis = cohomology.build_basis(grid, p)
        bases[p] = basis
        bases[grid.dim - p] = basis.dual
    return [bases[p] for p in range(grid.dim + 1)]


def check_coefficients(grid, seed):
    """coefficients(d(alpha) + delta(beta) + sum_a c_a gamma_a) == c at every degree."""
    rng = np.random.default_rng(seed)

    def potential(q):
        return random_form(grid, q, int(rng.integers(2**32)))

    for basis in every_degree_basis(grid):
        p = basis.degree
        c = rng.uniform(-3.0, 3.0, size=basis.betti)
        phi = grid.zeros(p)
        if p > 0:
            phi = phi + calculus.d(potential(p - 1))
        if p < grid.dim:
            phi = phi + calculus.delta(potential(p + 1))
        for a, g in enumerate(basis.gammas):
            phi = phi + g * c[a]
        assert float(np.max(np.abs(basis.coefficients(phi) - c))) <= 1e-10, p


@FAST
@given(grid=flat_grids(min_dim=2), seed=st.integers(0, 2**32 - 1))
def test_coefficients_recover_harmonic_part_flat(grid, seed):
    check_coefficients(grid, seed)


# Both examples missed 1e-10 (9.2e-10 and 1.7e-10 at p = 1) when build_basis
# projected the basis only to a coderivative of 1e-8 relative: the coexact
# part leaks into the coefficients in proportion to that residual.
@FAST
@given(grid=embedded_grids_12(), seed=st.integers(0, 2**32 - 1))
@example(grid=embedded((12, 16), 0.10625, 0.1), seed=0)
@example(grid=embedded((12, 24), 0.796875, 0.75), seed=165878)
def test_coefficients_recover_harmonic_part_embedded(grid, seed):
    check_coefficients(grid, seed)


@FAST
@given(grid=st.one_of(flat_grids(), embedded_grids_12()), seed=st.integers(0, 2**32 - 1))
def test_hodge_decompose_leaves_phi_unchanged(grid, seed):
    # curved grids decompose 1-forms only
    bases = every_degree_basis(grid) if grid.is_flat else [cohomology.build_basis(grid, 1)]
    for basis in bases:
        phi = random_form(grid, basis.degree, seed)
        before = phi.values.tobytes()
        hodge_decompose(phi, basis)
        assert phi.values.tobytes() == before


@pytest.fixture(scope="module")
def embedded64():
    grid = embedded((64, 64), 2.0, 1.0)
    basis = cohomology.build_basis(grid, 1)
    rng = np.random.default_rng(61)
    phis = [fields.random_trig_form(grid, 1, rng) for _ in range(5)]
    return grid, basis, phis, [hodge_decompose(phi, basis) for phi in phis]


def test_embedded_round_trip(embedded64):
    grid, basis, phis, decs = embedded64
    for phi, dec in zip(phis, decs):
        res = decompose.decomposition_residuals(phi, dec, basis)
        assert res["residue_norm"] <= 1e-8
        assert res["cycle_of_exact"] <= 1e-10
        assert res["cycle_of_coexact"] <= 1e-10
        assert res["residue_cycles"] <= 1e-10


def test_embedded_cross_relations(embedded64):
    grid, basis, phis, decs = embedded64
    T = cohomology.matrix_T(basis, basis)
    for phi, dec in zip(phis, decs):
        v = dual_decompose(phi, basis)
        res = cross_relation_check(dec.u, v, T, sign_D(1, 2, 0), T_dual=T)
        assert res["max"] <= 1e-8


def test_embedded_norm_budget(embedded64):
    grid, basis, phis, decs = embedded64
    for phi, dec in zip(phis, decs):
        v = dual_decompose(phi, basis)
        nb = norm_decompose(phi, dec, v, basis.E, basis.P)
        assert nb.budget_error <= 1e-8


def paper_norm_terms(phi, dec):
    """The paper's continuous terms: (alpha, delta phi), (beta, d phi) and,
    at the middle degree m, (-1)^(m+1) (beta_m, delta star phi).

    The paper writes the sign as (-1)^s; the two agree where s = m + 1
    (mod 2), as on T^2 with s = 0 and the Minkowski T^4.  The sign follows
    from (delta beta, phi) = -(star d beta_m, phi) and (star a, star b) =
    (-1)^s (a, b) with star^-1 = (-1)^(m^2 + s) star: the s cancels.
    """
    grid = phi.grid
    n, m = grid.dim, grid.dim // 2
    terms = {}
    if dec.alpha is not None:
        terms["exact"] = calculus.pairing(dec.alpha, calculus.delta(phi))
    if dec.beta is not None:
        terms["coexact"] = calculus.pairing(dec.beta, calculus.d(phi))
        if n % 2 == 0 and phi.degree == m:
            beta_m = decompose.coexact_potential(dec.beta)
            terms["coexact_middle"] = (-1.0) ** (m + 1) * calculus.pairing(
                beta_m, calculus.delta(calculus.star(phi))
            )
    return terms


def check_norm_terms(grid, p, seed):
    """norm_decompose's exact and coexact terms equal the paper's forms."""
    basis = cohomology.build_basis(grid, p)
    phi = random_form(grid, p, seed)
    dec = hodge_decompose(phi, basis)
    nb = norm_decompose(phi, dec, dual_decompose(phi, basis), basis.E, basis.P)
    bound = 1e-12 * max(1.0, abs(nb.direct_norm))
    for name, value in paper_norm_terms(phi, dec).items():
        term = nb.exact_term if name == "exact" else nb.coexact_term
        assert abs(term - value) <= bound, (name, term, value)
    return nb


@st.composite
def flat_norm_cases(draw):
    """Flat grids of dims 2-4, Euclidean or Lorentzian, and a degree 1..n-1."""
    dim = draw(st.integers(2, 4))
    points = tuple(draw(st.lists(EVEN_N, min_size=dim, max_size=dim)))
    periods = tuple(draw(st.lists(st.floats(0.5, 10.0), min_size=dim, max_size=dim)))
    signature = draw(st.sampled_from([(1,) * dim, (-1,) + (1,) * (dim - 1)]))
    grid = build_grid(GridSpec(dim, points, periods, signature))
    return grid, draw(st.integers(1, dim - 1))


def flat(dim, points, signature):
    return build_grid(GridSpec(dim, (points,) * dim, (TWO_PI,) * dim, signature))


# The terms are each up to the light-cone condition larger than phi, and so
# is their rounding (see test_flat_projection_matches_green_solves); the
# draws stay at or below 1e3.  The T^4 (s = 0) and Lorentzian T^2 examples
# are the middle degrees where the paper's (-1)^s sign is the opposite of
# (-1)^(m+1): a budget built on it missed by 0.97 and 6.2.
@FAST
@given(case=flat_norm_cases(), seed=st.integers(0, 2**32 - 1))
@example(case=(flat(4, 12, (-1, 1, 1, 1)), 2), seed=0)
@example(case=(flat(4, 8, (1, 1, 1, 1)), 2), seed=0)
@example(case=(flat(2, 8, (-1, 1)), 1), seed=0)
def test_norm_terms_match_paper_flat(case, seed):
    assume(light_cone_condition(case[0]) <= 1e3)
    assert check_norm_terms(*case, seed).budget_error <= 1e-8


@FAST
@given(grid=embedded_grids_12(), seed=st.integers(0, 2**32 - 1))
def test_norm_terms_match_paper_embedded(grid, seed):
    check_norm_terms(grid, 1, seed)


@pytest.mark.parametrize(
    "spec,p",
    [
        (GridSpec(2, (32, 32), (TWO_PI, TWO_PI), (1, 1)), 1),
        (GridSpec(2, (32, 32), (TWO_PI, TWO_PI), (1, 1), "embedded-torus", 2.0, 1.0), 1),
        (GridSpec(4, (12,) * 4, (TWO_PI,) * 4, (-1, 1, 1, 1)), 2),
    ],
)
def test_norm_decompose_runs_no_stencil(monkeypatch, spec, p):
    # the continuous terms are read off dec.exact and dec.coexact
    grid = build_grid(spec)
    basis = cohomology.build_basis(grid, p)
    phi = fields.random_trig_form(grid, p, np.random.default_rng(65))
    dec = hodge_decompose(phi, basis)
    v = dual_decompose(phi, basis)
    calls = count_calls(monkeypatch, calculus, ("partial", "d", "delta"))
    norm_decompose(phi, dec, v, basis.E, basis.P)
    assert calls == {}


def test_verify_decompose_embedded_passes(capsys):
    argv = ["verify", "--suite", "decompose", "--metric", "embedded-torus", "--grid", "64"]
    code = cli.main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == []
    for c in doc["checks"]:
        assert c["tolerance"] == (1e-10 if "cycle" in c["name"] else 1e-8)


def test_gauge_d_beta_on_t3():
    # at p = 1 on T^3, beta is a 2-form: d(beta) is a real gauge check
    grid = build_grid(GridSpec(3, (12,) * 3, (TWO_PI,) * 3, (1, 1, 1)))
    basis = cohomology.build_basis(grid, 1)
    phi = fields.random_trig_form(grid, 1, np.random.default_rng(62))
    res = decompose.decomposition_residuals(phi, hodge_decompose(phi, basis), basis)
    assert "gauge_delta_alpha" not in res
    assert 0.0 < res["gauge_d_beta"] <= 1e-8


def test_curved_hodge_decompose_refuses_other_degrees(monkeypatch):
    # curved potentials are two Green solves of a 1-form's delta and d; an
    # indefinite signature and then any other degree are refused before any
    # stencil runs
    grid = embedded((16, 16), 2.0, 1.0)
    indefinite = build_grid(
        GridSpec(2, (16, 16), (TWO_PI, TWO_PI), (-1, 1), "embedded-torus", 2.0, 1.0)
    )
    cases = [(grid, p, f"got degree {p}") for p in (0, 2)]
    cases += [(indefinite, p, "only for s = 0") for p in (0, 2)]
    for g, p, message in cases:
        basis = cohomology.build_basis(g, p)
        phi = random_form(g, p, 66)
        calls = count_calls(monkeypatch, calculus, ("partial", "green_solve"))
        with pytest.raises(NotImplementedError, match=message):
            hodge_decompose(phi, basis)
        assert calls == {}
        monkeypatch.undo()
    # no degree-1 basis exists there, so the signature error is read off potentials
    with pytest.raises(NotImplementedError, match="only for s = 0"):
        calculus.potentials(random_form(indefinite, 1, 66))
