"""Compact forms, stored with length-1 axes, against their full copies.

A form whose components are constant along some grid axes may store them
with length 1 there.  Every operator must give such a form the result it
gives the same values broadcast to the full grid, within a rounding bound:
the stencil matmul and the reductions may add in another order, and the
flat potentials transform only the modes the compact form has.  On flat
grids the potentials and every term of the decomposition keep the compact
shape.  A compact form is read-only.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from formdec import calculus
from formdec.decompose import hodge_decompose
from formdec.mesh import (
    DiscreteForm,
    integrate_cycle_mean,
    linear_combination,
    wedge_integral,
)

from test_decompose import every_degree_basis
from test_stencil_properties import (
    EPS,
    FAST,
    any_grids,
    identical,
    light_cone_condition,
    random_form,
    sample,
)


def full_copy(f):
    return DiscreteForm(f.grid, f.degree, np.broadcast_to(f.values, f.full_shape).copy())


def assert_same_form(got, ref, scale=None):
    """got, broadcast, equals ref within 64 eps of scale, by default ref's largest entry."""
    assert (got is None) == (ref is None)
    if ref is None:
        return
    assert got.degree == ref.degree and ref.values.shape == ref.full_shape
    diff = np.abs(np.broadcast_to(got.values, ref.full_shape) - ref.values)
    assert float(np.max(diff)) <= 64 * EPS * (ref.norm_inf() if scale is None else scale)


def mean_over(values, axes):
    """values' mean over axes, kept with length 1.

    A plain mean of n entries rounds by up to n eps of the largest.  Where
    the entries are nearly equal, as along a compact form's length-1 axes,
    one correction from their differences to that mean removes it.
    """
    mean = values.mean(axis=axes, keepdims=True)
    return mean + (values - mean).mean(axis=axes, keepdims=True)


def abs_wedge(a, b):
    """int |a wedge b| summed term by term: the scale of wedge_integral's rounding."""
    total, full_b = 0.0, full_copy(b)
    for I, fa in full_copy(a).components.items():
        J = tuple(k for k in range(a.grid.dim) if k not in I)
        total += float(np.sum(np.abs(fa * full_b.components[J])))
    return total * a.grid.cell_volume


def assert_same_number(got, ref, scale):
    assert abs(got - ref) <= 64 * EPS * scale


@st.composite
def compact_shapes(draw, grid):
    """Each axis keeps its length or is cut to 1 at random."""
    return tuple(N if draw(st.booleans()) else 1 for N in grid.shape)


@st.composite
def compact_forms(draw):
    """A grid, a degree and a compact form of that degree on it.

    Flat and embedded grids both get forms that are constant along any set
    of axes.
    """
    grid = draw(any_grids())
    p = draw(st.integers(0, grid.dim))
    shape = draw(compact_shapes(grid))
    seed = draw(st.integers(0, 2**32 - 1))
    values = sample((math.comb(grid.dim, p),) + shape, seed)
    return DiscreteForm(grid, p, values), seed


@FAST
@given(drawn=compact_forms())
def test_compact_and_full_forms_agree(drawn):
    c, seed = drawn
    f = full_copy(c)
    grid, p, n = c.grid, c.degree, c.grid.dim
    other = random_form(grid, p, seed + 1)
    dual = random_form(grid, n - p, seed + 2)

    for op in (calculus.star, calculus.laplacian, lambda x: x * 1.7, lambda x: x + other,
               lambda x: x - other, lambda x: other - x,
               lambda x: linear_combination([other, x], [0.3, -1.2])):
        assert_same_form(op(c), op(f))
    if p < n:
        assert_same_form(calculus.d(c), calculus.d(f))
    if p > 0:
        assert_same_form(calculus.delta(c), calculus.delta(f))
    # compact + compact stays compact, and equals the full sum
    assert_same_form(c + c * 0.5, f + f * 0.5)

    pairing = calculus.pairing
    assert_same_number(
        pairing(c, other), pairing(f, other), abs_wedge(c, calculus.star(other))
    )
    assert_same_number(pairing(other, c), pairing(other, f), abs_wedge(other, calculus.star(f)))
    for a, b in ((c, dual), (dual, c)):
        full = [f if x is c else x for x in (a, b)]
        assert_same_number(wedge_integral(a, b), wedge_integral(*full), abs_wedge(a, b))
    constant = dual.values.mean(axis=tuple(range(1, n + 1)), keepdims=True)
    compact_dual = DiscreteForm(grid, n - p, constant)
    assert_same_number(
        wedge_integral(c, compact_dual),
        wedge_integral(f, full_copy(compact_dual)),
        abs_wedge(c, compact_dual),
    )
    for axes in grid.components_of_degree(p):
        scale = float(np.max(np.abs(f.components[axes]))) * math.prod(
            grid.spec.periods[a] for a in axes
        )
        assert_same_number(integrate_cycle_mean(c, axes), integrate_cycle_mean(f, axes), scale)


# On a flat grid a compact form has only the k = 0 modes along its length-1
# axes, and so have its potentials and terms.  The full copy's also carry
# the FFT's rounding in the other modes, times the Green symbol, which the
# compact path never computes.  So each reference splits in two: its mean
# over those axes, which the compact result must match within 64 eps of the
# reference's largest entry, and the rest, which is that rounding alone and
# stays within 64 eps of phi times the light-cone condition.  The exact and
# coexact parts grow by that factor over phi as they cancel in the sum (see
# test_flat_projection), so their bound does too.  The residue is phi less
# those terms, and rounds with the largest of them.
@FAST
@given(drawn=compact_forms())
def test_compact_potentials_and_decomposition_agree(drawn):
    c, _ = drawn
    f = full_copy(c)
    grid, p = c.grid, c.degree
    assume(grid.is_flat or p == 1)
    basis = every_degree_basis(grid)[p]
    got, ref = hodge_decompose(c, basis), hodge_decompose(f, basis)
    cone = light_cone_condition(grid) * f.norm_inf()
    terms = [t.norm_inf() for t in (ref.exact, ref.coexact) if t is not None]
    assert_same_form(got.residue, ref.residue, max([cone] + terms))
    # alpha and beta are calculus.potentials of phi
    names = ("alpha", "beta", "exact", "coexact")
    if not grid.is_flat:
        # curved potentials are Green solves of the full grid
        for name in names:
            assert_same_form(getattr(got, name), getattr(ref, name))
        return
    axes = tuple(1 + a for a, n in enumerate(c.values.shape[1:]) if n == 1)
    for name in names:
        term, full = getattr(got, name), getattr(ref, name)
        assert (term is None) == (full is None)
        if full is None:
            continue
        assert term.values.shape[1:] == c.values.shape[1:], name
        kept = mean_over(full.values, axes)
        scale = full.norm_inf() if name in ("alpha", "beta") else max(full.norm_inf(), cone)
        assert float(np.max(np.abs(term.values - kept))) <= 64 * EPS * scale, name
        dropped = float(np.max(np.abs(full.values - kept)))
        assert dropped <= 64 * EPS * cone, name


@FAST
@given(drawn=compact_forms(), data=st.data())
def test_linear_combination_of_compact_terms_is_compact(drawn, data):
    c, seed = drawn
    grid = c.grid
    shape = c.values.shape[:1] + data.draw(compact_shapes(grid))
    other = DiscreteForm(grid, c.degree, sample(shape, seed + 3))
    forms, coeffs = [c, other, c], [0.3, -1.2, 2.5]
    got = linear_combination(forms, coeffs)
    ref = linear_combination([full_copy(x) for x in forms], coeffs)
    assert got.values.shape == np.broadcast_shapes(c.values.shape, other.values.shape)
    assert identical(np.broadcast_to(got.values, got.full_shape), ref.values)


@FAST
@given(drawn=compact_forms())
def test_a_compact_form_is_read_only(drawn):
    c, _ = drawn
    if c.values.shape == c.full_shape:
        return
    key = next(iter(c.components))
    with pytest.raises(ValueError, match="read-only"):
        c.components[key][...] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        c.values += 1.0
    # a copy is full and writable
    copy = c.copy()
    copy.components[key][...] = 1.0
    assert copy.values.shape == c.full_shape


def test_constant_form_is_compact(t2_flat, t4_mink):
    for grid in (t2_flat, t4_mink):
        f = grid.constant_form(1, {(1,): 2.5})
        assert f.values.shape == (grid.dim,) + (1,) * grid.dim
        assert f.components[(1,)].flat[0] == 2.5 and f.components[(0,)].flat[0] == 0.0
        with pytest.raises(KeyError):
            grid.constant_form(1, {(0, 1): 1.0})


@pytest.mark.parametrize("shape", [(2, 64), (2, 1), (2, 3, 64), (1, 64, 64), (2, 64, 64, 1)])
def test_values_that_do_not_broadcast_are_refused(t2_flat, shape):
    with pytest.raises(ValueError, match="broadcast to"):
        DiscreteForm(t2_flat, 1, np.zeros(shape))
