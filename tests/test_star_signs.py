"""The Hodge star as a sign times a weight.

The grid splits each coefficient of star into the sign
sign(perm(I, Ic)) * prod_{i in I} s_i and the weight sqrt|g| * prod_{i in I}
1 / g_ii.  delta, potentials and pairings put the signs into the +- of a
term, or of a sum, and multiply only by weights that are not 1, so a flat
grid, whose weights are all 1, runs no multiply by a coefficient.  Each is
compared with a reference that multiplies by the signed coefficient rows,
as star is defined.  star, delta and pairings keep every bit.  The flat
potentials are equal up to the sign of an exact zero: their delta puts the
last star's sign into its terms, and a sum of negated terms that is
exactly 0 is +0 where the negated sum is -0.
"""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from formdec import GridSpec, build_grid, calculus
from formdec.mesh import DiscreteForm, _grid_sum, _mean_along, merge_sign

from test_compact_forms import compact_shapes
from test_in_place_paths import MINKOWSKI, bits, pair_on
from test_stencil_properties import (
    EVEN_N,
    FAST,
    TWO_PI,
    any_grids,
    flat_grids,
    identical,
    star_terms,
)

EMBEDDED = build_grid(GridSpec(2, (8, 12), (TWO_PI, TWO_PI), (1, 1), "embedded-torus", 2.0, 1.0))


@st.composite
def signed_embedded_grids(draw):
    """Embedded tori of either sign on each axis; only star, delta and pairings take s > 0."""
    points = (draw(EVEN_N), draw(EVEN_N))
    r = draw(st.floats(0.1, 2.0))
    R = r * draw(st.floats(1.05, 4.0))
    signature = tuple(draw(st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=2)))
    return build_grid(GridSpec(2, points, (TWO_PI, TWO_PI), signature, "embedded-torus", R, r))


def signed_grids():
    return st.one_of(any_grids(), signed_embedded_grids())


def coefficient_rows(grid, p):
    """The signed star coefficients of degree p, one row per component, built from the metric."""
    return np.stack([coeff for _, _, coeff in star_terms(grid, p)])


def ref_star(values, p, grid, scale=1.0):
    """scale * star as one multiply by the coefficient rows, in complement order."""
    out = np.multiply(values, coefficient_rows(grid, p) * scale)
    return out[::-1]


def ref_delta(values, p, grid, deriv):
    """(-1)^{C(p)} star d star, each star a multiply by the coefficient rows."""
    n = grid.dim
    sgn = -1.0 if calculus.sign_C(p, n, grid.neg_count) else 1.0
    dstar = calculus._d(ref_star(values, p, grid), n - p, grid, deriv)
    return ref_star(dstar, n - p + 1, grid, sgn)


def ref_potentials(phi):
    """alpha and beta with delta's stars multiplying the spectra by the coefficient rows."""
    grid, p = phi.grid, phi.degree
    if not grid.is_flat:
        delta = DiscreteForm(grid, p - 1, ref_delta(phi.values, p, grid, calculus.partial))
        return calculus.green_solve(delta)[0], calculus.green_solve(calculus.d(phi))[0]
    shape = phi.values.shape[1:]
    modes = tuple(slice(None) if m > 1 else slice(0, 1) for m in shape)
    isig, _, green, _ = calculus._rfft_symbols(grid)
    isig, green = [s[modes] for s in isig], green[modes]

    def isig_times(comp, a, _):
        return isig[a] * comp

    phat = calculus._rfftn(phi.values, grid)
    hats = {}
    if p > 0:
        hats[p - 1] = ref_delta(phat, p, grid, isig_times)
    if p < grid.dim:
        hats[p + 1] = calculus._d(phat, p, grid, isig_times)
    forms = {q: DiscreteForm(grid, q, calculus._irfftn(h * green, shape)) for q, h in hats.items()}
    return forms.get(p - 1), forms.get(p + 1)


def ref_pairing(a, b):
    """sum_I merge_sign(I, Ic) sum(a_I * (star b)_Ic), star b made by the coefficient rows."""
    grid = a.grid
    star_b = ref_star(b.values, b.degree, grid)[::-1]  # back in the order of b's components
    total = 0.0
    for (I, Ic, _), fa, fb in zip(star_terms(grid, a.degree), a.values, star_b):
        prod = _mean_along(fa, fb.shape) * _mean_along(fb, fa.shape)
        total += merge_sign(I, Ic) * _grid_sum(prod, grid)
    return total * grid.cell_volume


def same_up_to_zero_sign(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)


@st.composite
def signed_forms(draw, grids=signed_grids()):
    """A grid, a degree and a form of that degree, full or compact."""
    grid = draw(grids)
    p = draw(st.integers(0, grid.dim))
    shape = draw(compact_shapes(grid))
    (form,) = pair_on(grid, p, [shape], draw(st.integers(0, 2**32 - 1)))
    return form


@FAST
@given(grid=signed_grids())
@example(grid=MINKOWSKI)
@example(grid=EMBEDDED)
def test_signs_times_weights_are_the_star_coefficients(grid):
    # the skips of the flat paths need weights of exactly 1; a curved grid's
    # sign times weight must be the coefficient star multiplies by
    for p in range(grid.dim + 1):
        signs, weights = grid.star_signs[p], grid.star_weights[p]
        assert all(type(s) is int and s in (-1, 1) for s in signs)
        if grid.is_flat:
            assert np.all(weights == 1.0)
        column = np.reshape(signs, (-1,) + (1,) * grid.dim)
        assert identical(column * weights, coefficient_rows(grid, p))
        assert identical(grid.star_coeffs[p], coefficient_rows(grid, p))
        assert not weights.flags.writeable


@FAST
@given(phi=signed_forms())
@example(phi=pair_on(MINKOWSKI, 2, [MINKOWSKI.shape], 3)[0])
@example(phi=pair_on(EMBEDDED, 1, [(1, 12)], 4)[0])
def test_star_delta_and_pairings_equal_the_coefficient_reference(phi):
    grid, p = phi.grid, phi.degree
    assert identical(calculus.star(phi).values, ref_star(phi.values, p, grid))
    if p > 0:
        ref = ref_delta(phi.values, p, grid, calculus.partial)
        assert identical(calculus.delta(phi).values, ref)
    (other,) = pair_on(grid, p, [grid.shape], 11)
    forms = [phi, other, phi]
    got = calculus.pairings(forms, other)
    assert [bits(x) for x in got] == [bits(ref_pairing(f, other)) for f in forms]
    assert bits(calculus.pairing(other, phi)) == bits(ref_pairing(other, phi))


@FAST
@given(phi=signed_forms())
@example(phi=pair_on(MINKOWSKI, 2, [MINKOWSKI.shape], 5)[0])
@example(phi=pair_on(EMBEDDED, 1, [EMBEDDED.shape], 6)[0])
def test_potentials_equal_the_coefficient_reference(phi):
    grid = phi.grid
    if not grid.is_flat and (grid.neg_count or phi.degree != 1):
        return  # curved potentials take a Riemannian 1-form only
    try:
        got, ref = calculus.potentials(phi), ref_potentials(phi)
    except calculus.GreenSolveError:
        return  # a curved draw whose Green solve misses its tolerance on either path
    for g, r in zip(got, ref):
        assert (g is None) == (r is None)
        if g is not None:
            assert g.degree == r.degree and same_up_to_zero_sign(g.values, r.values)


@FAST
@given(phi=signed_forms(flat_grids()))
def test_flat_paths_read_no_weight_or_coefficient(phi):
    # the same grid with every weight and coefficient NaN: delta, potentials
    # and pairings on a flat grid must not notice
    spec, p = phi.grid.spec, phi.degree
    grid, poisoned = build_grid(spec), build_grid(spec)
    for name in ("star_weights", "star_coeffs"):
        setattr(poisoned, name, tuple(np.full_like(w, math.nan) for w in getattr(grid, name)))
    results = []
    for g in (grid, poisoned):
        f = DiscreteForm(g, p, phi.values)
        out = [calculus.pairings([f], f)[0]]
        out += [x.values for x in calculus.potentials(f) if x is not None]
        if p > 0:
            out.append(calculus.delta(f).values)
        results.append(out)
    for x, y in zip(*results):
        assert identical(np.asarray(x), np.asarray(y))
