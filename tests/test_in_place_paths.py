"""The paths that skip grid-sized copies, against the copies they replace.

pairing and pairings make star(b) one component at a time, hodge_decompose
writes the residue into the buffer of the reconstruction, linear_combination
adds a term of coefficient 1.0 without multiplying it, and norm_inf reads
max(max x, -min x) without an |x| copy.  Each must keep the bits of the
copying form.  The last test bounds the traced memory high-water of one op
of the flat decomposition pipeline.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from formdec import GridSpec, build_grid, calculus, cohomology, fields
from formdec.decompose import (
    decomposition_residuals,
    dual_decompose,
    hodge_decompose,
    norm_decompose,
)
from formdec.mesh import DiscreteForm, wedge_integral

from test_compact_forms import compact_shapes
from test_decompose import embedded_grids_12, every_degree_basis
from test_stencil_properties import FAST, any_grids, flat_grids, identical, sample

TWO_PI = 2.0 * math.pi
MINKOWSKI = build_grid(GridSpec(4, (4, 6, 4, 8), (1.0, 2.0, 0.7, 3.0), (-1, 1, 1, 1)))


def bits(x):
    return np.float64(x).tobytes()


def pair_on(grid, p, shapes, seed):
    """Two degree-p forms of the given grid-axis shapes, some zeros of either sign."""
    count = math.comb(grid.dim, p)
    return [DiscreteForm(grid, p, sample((count,) + shape, seed + k)) for k, shape in enumerate(shapes)]


@st.composite
def form_pairs(draw):
    """A grid, a degree, and two forms of that degree, each full or compact."""
    grid = draw(any_grids())
    p = draw(st.integers(0, grid.dim))
    shapes = [draw(compact_shapes(grid)) for _ in range(2)]
    return pair_on(grid, p, shapes, draw(st.integers(0, 2**32 - 1)))


@FAST
@given(pair=form_pairs())
@example(pair=pair_on(MINKOWSKI, 2, [MINKOWSKI.shape, MINKOWSKI.shape], 5))
@example(pair=pair_on(MINKOWSKI, 1, [(4, 1, 4, 1), MINKOWSKI.shape], 6))
def test_pairings_equal_wedge_with_star(pair):
    a, b = pair
    forms = [a, b, a]
    ref = [bits(wedge_integral(f, calculus.star(b))) for f in forms]
    assert [bits(x) for x in calculus.pairings(forms, b)] == ref
    assert bits(calculus.pairing(a, b)) == ref[0]


SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
NORM_GRID = build_grid(GridSpec(2, (4, 6), (1.0, 2.0), (1, 1)))


@FAST
@given(
    values=hnp.arrays(
        np.float64,
        st.tuples(st.just(2), st.sampled_from([1, 4]), st.sampled_from([1, 6])),
        elements=st.one_of(SPECIAL, st.floats(allow_nan=True, allow_infinity=True)),
    )
)
@example(values=np.array([[[-0.0]], [[0.0]]]))
@example(values=np.full((2, 4, 6), -0.0))
@example(values=np.array([[[-math.inf]], [[1.0]]]))
@example(values=np.array([[[1.0]], [[-math.nan]]]))
def test_norm_inf_is_the_largest_abs(values):
    got = DiscreteForm(NORM_GRID, 1, values).norm_inf()
    assert bits(got) == bits(float(np.max(np.abs(values))))


def reference_residue(phi, dec, basis):
    """phi - sum of the terms, each multiplied by its coefficient into a new array."""
    terms = [t for t in (dec.exact, dec.coexact) if t is not None]
    forms, coeffs = terms + basis.gammas, [1.0] * len(terms) + list(dec.u)
    recon = np.zeros(np.broadcast_shapes(*(f.values.shape for f in forms)))
    for f, c in zip(forms, coeffs):
        recon += f.values * c
    return phi.values - recon


@FAST
@given(grid=st.one_of(flat_grids(), embedded_grids_12()), data=st.data())
def test_in_place_residue_equals_phi_minus_reconstruction(grid, data):
    # curved grids decompose 1-forms only
    bases = every_degree_basis(grid) if grid.is_flat else [cohomology.build_basis(grid, 1)]
    seed = data.draw(st.integers(0, 2**32 - 1))
    for basis in bases:
        shape = data.draw(compact_shapes(grid))
        (phi,) = pair_on(grid, basis.degree, [shape], seed)
        dec = hodge_decompose(phi, basis)
        assert identical(dec.residue.values, reference_residue(phi, dec, basis))


def test_flat_op_memory_high_water():
    # one op of the flat pipeline keeps 8 component arrays (alpha, beta and
    # the two components each of d alpha, delta beta and the residue) and
    # peaks in the norm budget at one star(phi) component and one product
    # more; with whole star copies and a separate reconstruction it was 14
    N = 256
    grid = build_grid(GridSpec(2, (N, N), (TWO_PI, TWO_PI), (1, 1)))
    basis = cohomology.build_basis(grid, 1)
    E, P = cohomology.matrix_E(basis, basis)
    phi = fields.random_trig_form(grid, 1, np.random.default_rng(0))

    def op():
        dec = hodge_decompose(phi, basis)
        v = dual_decompose(phi, basis)
        norm_decompose(phi, dec, v, E, P)
        decomposition_residuals(phi, dec, basis)

    op()  # symbols and caches warm
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        op()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 10.5 * 8 * N * N
