"""Bit-identity of the stencil and metric kernels over generated grids.

`partial` and `d` are compared with a direct np.roll evaluation of the same
sums, and `star`, the volume and the pairing weights with the same formulas
evaluated on full grid-shaped metric arrays.  Every comparison is exact.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formdec import GridSpec, build_grid, calculus
from formdec.mesh import DiscreteForm, merge_sign

TWO_PI = 2.0 * math.pi
EVEN_N = st.sampled_from([4, 6, 8, 10, 12])
FAST = settings(max_examples=30, deadline=None)


def roll_partial(arr, axis, h):
    out = np.zeros_like(arr)
    for j, c in enumerate(calculus._STENCIL, start=1):
        out += c * (np.roll(arr, -j, axis=axis) - np.roll(arr, j, axis=axis))
    return out / h


def roll_d(f):
    grid = f.grid
    out = grid.zeros(f.degree + 1)
    for I, comp in f.components.items():
        for a in range(grid.dim):
            if a not in I:
                K = tuple(sorted(I + (a,)))
                out.components[K] += merge_sign((a,), I) * roll_partial(comp, a, grid.steps[a])
    return out


def identical(x, y):
    """Equal values, shapes and signs of zero."""
    return (
        x.shape == y.shape
        and np.array_equal(x, y)
        and np.array_equal(np.signbit(x), np.signbit(y))
    )


def sample(shape, seed):
    """Normal draws with some zeros of either sign."""
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(shape)
    arr[rng.random(shape) < 0.1] = 0.0
    arr[rng.random(shape) < 0.1] = -0.0
    return arr


def random_form(grid, p, seed):
    count = len(grid.components_of_degree(p))
    return DiscreteForm(grid, p, np.stack([sample(grid.shape, seed + k) for k in range(count)]))


@st.composite
def flat_grids(draw, min_dim=1):
    dim = draw(st.integers(min_dim, 4))
    points = tuple(draw(st.lists(EVEN_N, min_size=dim, max_size=dim)))
    periods = tuple(draw(st.lists(st.floats(0.5, 10.0), min_size=dim, max_size=dim)))
    signature = tuple(draw(st.lists(st.sampled_from([-1, 1]), min_size=dim, max_size=dim)))
    return build_grid(GridSpec(dim, points, periods, signature))


@st.composite
def embedded_grids(draw):
    points = (draw(EVEN_N), draw(EVEN_N))
    r = draw(st.floats(0.1, 2.0))
    R = r * draw(st.floats(1.05, 4.0))
    return build_grid(GridSpec(2, points, (TWO_PI, TWO_PI), (1, 1), "embedded-torus", R, r))


def any_grids():
    return st.one_of(flat_grids(), embedded_grids())


def full_metric(grid):
    """The metric as (n,) + shape arrays, built from the node coordinates."""
    if grid.is_flat:
        return np.ones((grid.dim,) + grid.shape)
    g = np.empty((2,) + grid.shape)
    g[0] = (grid.spec.R + grid.spec.r * np.cos(grid.coords[1])) ** 2
    g[1] = grid.spec.r**2
    return g


@FAST
@given(grid=flat_grids(), seed=st.integers(0, 2**32 - 1))
@example(grid=build_grid(GridSpec(4, (4, 6, 8, 4), (1.0, 2.0, 0.7, 3.0), (1,) * 4)), seed=0)
def test_partial_matches_roll(grid, seed):
    arr = sample(grid.shape, seed)
    for axis in range(grid.dim):
        ref = roll_partial(arr, axis, grid.steps[axis])
        assert identical(calculus.partial(arr, axis, grid), ref)


@FAST
@given(grid=flat_grids(), seed=st.integers(0, 2**32 - 1))
def test_d_matches_roll(grid, seed):
    for p in range(grid.dim):
        f = random_form(grid, p, seed)
        got, ref = calculus.d(f), roll_d(f)
        for K in ref.components:
            assert identical(got.components[K], ref.components[K])


@FAST
@given(grid=any_grids(), seed=st.integers(0, 2**32 - 1))
def test_star_matches_full_metric(grid, seed):
    metric = full_metric(grid)
    sqrt_g = np.sqrt(np.prod(metric, axis=0))
    n = grid.dim
    for p in range(n + 1):
        f = random_form(grid, p, seed)
        got = calculus.star(f)
        for I, comp in f.components.items():
            Ic = tuple(a for a in range(n) if a not in I)
            coeff = merge_sign(I, Ic) * sqrt_g
            for i in I:
                coeff = coeff * (grid.signature[i] / metric[i])
            assert identical(got.components[Ic], coeff * comp)


@FAST
@given(grid=any_grids())
def test_volume_and_weights_match_full_metric(grid):
    metric = full_metric(grid)
    sqrt_g = np.sqrt(np.prod(metric, axis=0))
    assert grid.volume() == float(np.sum(sqrt_g)) * grid.cell_volume
    omega = grid.volume_form().components[tuple(range(grid.dim))]
    assert identical(omega, sqrt_g)
    assert omega.flags.c_contiguous and omega.flags.writeable
    for p in range(grid.dim + 1):
        weights = calculus._component_weights(grid, p)
        for I, w in zip(grid.components_of_degree(p), weights, strict=True):
            ref = sqrt_g.copy()
            for i in I:
                ref = ref / metric[i]
            assert identical(np.broadcast_to(w, grid.shape), ref)


@FAST
@given(grid=any_grids())
def test_metric_factors_are_broadcastable(grid):
    n = grid.dim
    expected = (n,) + (1,) * n if grid.is_flat else (2, 1, grid.shape[1])
    assert grid.metric_diag.shape == expected
    assert grid.sqrt_abs_g.shape == expected[1:]
    assert not grid.metric_diag.flags.writeable
    assert not grid.sqrt_abs_g.flags.writeable


def same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@FAST
@given(grid=flat_grids(), seed=st.integers(0, 2**32 - 1))
def test_stacked_ffts_match_per_component(grid, seed):
    # a form's components are transformed in one call over axes 1..n, also
    # through the reversed view that star takes in Fourier space; each row
    # must be the transform of that component alone, bit for bit
    axes, axes_k = range(1, grid.dim + 1), range(grid.dim)
    for p in range(grid.dim + 1):
        values = random_form(grid, p, seed).values
        spectra = calculus._rfftn(values, grid)
        back = calculus._irfftn(spectra, grid)
        assert same_bits(calculus._irfftn(spectra[::-1], grid)[::-1], back)
        full = np.fft.fftn(values, axes=axes)
        full_back = np.fft.ifftn(full, axes=axes)
        for k, comp in enumerate(values):
            assert same_bits(spectra[k], np.fft.rfftn(comp))
            assert same_bits(back[k], np.fft.irfftn(spectra[k], s=grid.shape, axes=axes_k))
            assert same_bits(full[k], np.fft.fftn(comp))
            assert same_bits(full_back[k], np.fft.ifftn(full[k]))
