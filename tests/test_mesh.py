import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from formdec import (
    GridSpec,
    build_grid,
    integrate_cycle_mean,
    integrate_manifold,
    wedge,
    wedge_integral,
)
from formdec import calculus
from formdec.mesh import DiscreteForm, PeriodicGrid, linear_combination
from test_stencil_properties import FAST, any_grids, random_form

TWO_PI = 2.0 * math.pi


def cycle_at_offset(f, axes, offsets):
    """Rectangle-rule integral over the cycle spanned by `axes` through the
    given offsets of the other axes: a sum over one slice of the component."""
    grid = f.grid
    index = [slice(None)] * grid.dim
    others = [a for a in range(grid.dim) if a not in axes]
    for axis, off in zip(others, offsets):
        index[axis] = off
    step = math.prod(grid.steps[a] for a in axes)
    return float(np.sum(f.components[tuple(axes)][tuple(index)])) * step


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(2, (63, 64), (TWO_PI, TWO_PI), (1, 1))  # odd N
    with pytest.raises(ValueError):
        GridSpec(2, (2, 64), (TWO_PI, TWO_PI), (1, 1))  # too few points
    with pytest.raises(ValueError):
        GridSpec(2, (64, 64), (TWO_PI, -1.0), (1, 1))  # bad period
    with pytest.raises(ValueError):
        GridSpec(2, (64, 64), (TWO_PI, TWO_PI), (1, 2))  # bad signature
    with pytest.raises(ValueError):
        GridSpec(2, (64, 64), (TWO_PI, TWO_PI), (1, 1), metric="embedded-torus", R=1.0, r=2.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(2, (8, 8), (bad, bad), (1, 1))
        with pytest.raises(ValueError, match="finite"):
            GridSpec(2, (8, 8), (TWO_PI, TWO_PI), (1, 1), metric="embedded-torus", R=bad, r=1.0)
    # finite R and r whose metric factor overflows
    spec = GridSpec(2, (8, 8), (TWO_PI, TWO_PI), (1, 1), metric="embedded-torus", R=1e300, r=1e200)
    with pytest.raises(ValueError, match="positive and finite"):
        build_grid(spec)


def test_flat_metric_arrays():
    g = build_grid(GridSpec(2, (64, 64), (TWO_PI, TWO_PI), (1, 1)))
    assert np.all(g.sqrt_abs_g == 1.0)


def test_embedded_metric_arrays(t2_embedded):
    v = t2_embedded.coords[1]
    assert np.allclose(t2_embedded.sqrt_abs_g, (2.0 + np.cos(v)) * 1.0)


def test_minkowski_signature_recorded():
    g = build_grid(GridSpec(4, (4,) * 4, (TWO_PI,) * 4, (-1, 1, 1, 1)))
    assert g.neg_count == 1
    assert np.all(g.metric_diag == 1.0)


@FAST
@given(grid=any_grids())
def test_grid_facts_are_the_spec_facts(grid):
    # set once from the frozen spec, as plain attributes
    spec = grid.spec
    assert (grid.dim, grid.signature, grid.neg_count, grid.is_flat) == (
        spec.dim, spec.signature, spec.neg_count, spec.metric == "flat"
    )
    assert not [v for v in vars(PeriodicGrid).values() if isinstance(v, property)]


def test_wedge_basis_and_antisymmetry(t2_flat):
    du = t2_flat.constant_form(1, {(0,): 1.0})
    dv = t2_flat.constant_form(1, {(1,): 1.0})
    assert np.all(wedge(du, dv).components[(0, 1)] == 1.0)
    assert np.all(wedge(dv, du).components[(0, 1)] == -1.0)


def test_wedge_constant_representatives(t2_flat):
    g1 = t2_flat.constant_form(1, {(0,): 1.0 / TWO_PI})
    g2 = t2_flat.constant_form(1, {(1,): 1.0 / TWO_PI})
    w = wedge(g1, g2)
    assert np.allclose(w.components[(0, 1)], 1.0 / TWO_PI**2)


def test_wedge_graded_anticommutativity(t2_flat):
    rng = np.random.default_rng(3)
    from formdec import fields

    a = fields.random_trig_form(t2_flat, 1, rng)
    b = fields.random_trig_form(t2_flat, 1, rng)
    lhs = wedge(a, b)
    rhs = wedge(b, a)
    # p = q = 1: a^b = -b^a pointwise exactly
    assert (lhs + rhs).norm_inf() == 0.0


def test_wedge_degree_overflow(t2_flat):
    top = t2_flat.volume_form()
    du = t2_flat.constant_form(1, {(0,): 1.0})
    with pytest.raises(ValueError):
        wedge(top, du)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_wedge_integral_matches_wedge(dim):
    grid = build_grid(GridSpec(dim, (6,) * dim, (1.5,) * dim, (1,) * dim))
    for p in range(dim + 1):
        a, b = random_form(grid, p, 3 * p), random_form(grid, dim - p, 3 * p + 1)
        top = wedge(a, b)
        scale = float(np.sum(np.abs(top.components[tuple(range(dim))]))) * grid.cell_volume
        assert abs(wedge_integral(a, b) - integrate_manifold(top)) <= 1e-13 * max(scale, 1.0)
    with pytest.raises(ValueError):
        wedge_integral(random_form(grid, 0, 0), random_form(grid, 0, 1))


@pytest.mark.parametrize("dim,p", [(1, 1), (2, 1), (3, 2), (4, 2)])
def test_linear_combination_matches_sequential_sum(dim, p):
    grid = build_grid(GridSpec(dim, (6,) * dim, (1.5,) * dim, (1,) * dim))
    forms = [random_form(grid, p, 7 * k) for k in range(5)]
    coeffs = np.random.default_rng(dim).uniform(-3.0, 3.0, size=len(forms))
    expected = grid.zeros(p)
    for f, c in zip(forms, coeffs):
        expected = expected + f * c
    got = linear_combination(forms, coeffs)
    for I in expected.components:
        assert np.array_equal(got.components[I], expected.components[I])
    with pytest.raises(ValueError):
        linear_combination(forms, coeffs[:-1])
    with pytest.raises(ValueError):
        linear_combination([forms[0], grid.zeros(p - 1)], [1.0, 1.0])


@FAST
@given(grid=any_grids(), seed=st.integers(0, 2**32 - 1))
def test_components_are_rows_of_values(grid, seed):
    first, last = (0,) * grid.dim, (-1,) * grid.dim
    for p in range(grid.dim + 1):
        keys = grid.components_of_degree(p)
        f = random_form(grid, p, seed)
        assert f.values.shape == (len(keys),) + grid.shape
        assert list(f.components) == keys
        for k, I in enumerate(keys):
            row = f.components[I]
            assert np.shares_memory(row, f.values[k])
            assert np.array_equal(row, f.values[k])
            row[first] = 1.5 + k
            assert f.values[k][first] == 1.5 + k
            f.values[k][last] = -2.5 - k
            assert row[last] == -2.5 - k
        for bad in (
            np.zeros((len(keys) + 1,) + grid.shape),
            np.zeros(grid.shape),
            f.values[..., :-1],
            dict(f.components),
        ):
            with pytest.raises(ValueError):
                DiscreteForm(grid, p, bad)


def test_norm_inf_propagates_nan(t2_flat):
    # a NaN outside the first component must not read as a finite norm
    f = t2_flat.zeros(1)
    f.components[(0,)][:] = 2.0
    f.components[(1,)][3, 5] = np.nan
    assert math.isnan(f.norm_inf())


def test_integrate_unit_form(t2_flat, t2_embedded):
    for g in (t2_flat, t2_embedded):
        assert abs(integrate_manifold(g.unit_form()) - 1.0) < 1e-12


def test_embedded_torus_area(t2_embedded):
    # area = R r (2 pi)^2 for R=2, r=1
    assert abs(integrate_manifold(t2_embedded.volume_form()) - 2.0 * TWO_PI**2) < 1e-10


def test_integrate_zero_form_rejected(t2_flat):
    du = t2_flat.constant_form(1, {(0,): 1.0})
    with pytest.raises(ValueError):
        integrate_manifold(du)


def test_cycle_integrals(t2_flat):
    g1 = t2_flat.constant_form(1, {(0,): 1.0 / TWO_PI})
    assert abs(integrate_cycle_mean(g1, (0,)) - 1.0) < 1e-12
    assert abs(integrate_cycle_mean(g1, (1,))) < 1e-12


def test_cycle_degree_mismatch(t2_flat):
    du = t2_flat.constant_form(1, {(0,): 1.0})
    with pytest.raises(ValueError):
        integrate_cycle_mean(du, (0, 1))


def test_cycle_offset_independence_for_closed_forms(t2_flat):
    # closed 1-form: d(scalar) + constants
    scalar = t2_flat.zeros(0)
    scalar.components[()][:] = np.sin(t2_flat.coords[0]) * np.cos(t2_flat.coords[1])
    phi = calculus.d(scalar) + t2_flat.constant_form(1, {(0,): 0.7, (1,): -0.3})
    vals = [cycle_at_offset(phi, (0,), (off,)) for off in (0, 17, 40)]
    assert max(vals) - min(vals) < 1e-8 * phi.norm_inf() * 64
    # the offset average is then the cycle integral
    assert abs(integrate_cycle_mean(phi, (0,)) - vals[0]) < 1e-8 * phi.norm_inf() * 64


def test_cycle_mean_annihilates_exact_and_coexact(t2_flat):
    rng = np.random.default_rng(11)
    from formdec import fields

    f0 = fields.random_trig_form(t2_flat, 0, rng)
    f2 = fields.random_trig_form(t2_flat, 2, rng)
    da = calculus.d(f0)
    db = calculus.delta(f2)
    for axes in ((0,), (1,)):
        assert abs(integrate_cycle_mean(da, axes)) < 1e-12
        assert abs(integrate_cycle_mean(db, axes)) < 1e-12


def test_stokes_annihilation_fixed_offset(t2_flat):
    # fixed-offset cycle integrals of exact forms vanish by telescoping
    rng = np.random.default_rng(13)
    from formdec import fields

    da = calculus.d(fields.random_trig_form(t2_flat, 0, rng))
    for axes in ((0,), (1,)):
        assert abs(cycle_at_offset(da, axes, (5,))) < 1e-10
