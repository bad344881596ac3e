"""The stencil and metric kernels over generated grids.

`partial` and `d` are compared with a direct np.roll evaluation of the
stencil sums, within a rounding bound: `partial` sums by parts, so it is not
bit-identical to them.  `partial` of an array constant along the axis is
exactly zero.  `star`, the volume and the pairing weights are compared with
the same formulas evaluated on full grid-shaped metric arrays; those
comparisons are exact.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formdec import GridSpec, build_grid, calculus, mesh
from formdec.mesh import DiscreteForm, merge_sign

TWO_PI = 2.0 * math.pi
EVEN_N = st.sampled_from([4, 6, 8, 10, 12])
# every even N in 4..32, so every block size gcd(N, 16) of partial occurs
AXIS_N = st.sampled_from(range(4, 33, 2))
FAST = settings(max_examples=30, deadline=None)
EPS = np.finfo(float).eps


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


def count_calls(monkeypatch, module, names):
    """Replace module.<name> for each name by a wrapper that counts its calls."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def laplacian_symbol(grid):
    """sum_a s_a sigma_a^2, the flat Laplacian symbol, in fftn layout."""
    return calculus._symbol_sum(grid, calculus._axis_symbols(grid))


def deflation_mask(grid):
    """Modes the Green operator deflates, in fftn layout."""
    sym = laplacian_symbol(grid)
    return np.abs(sym) <= calculus.DEFLATION_TOL * float(np.max(np.abs(sym)))


def light_cone_condition(grid):
    """max over the kept modes of sum_a sigma_a^2 / |sum_a s_a sigma_a^2|.

    1 on definite signatures.  It grows as kept modes near the discrete
    light cone, and the exact and coexact parts then grow by this factor
    over phi and cancel in the sum, so the rounding of the decomposition
    does too.
    """
    spec = grid.spec
    riemannian = build_grid(GridSpec(spec.dim, spec.points, spec.periods, (1,) * spec.dim))
    kept = ~deflation_mask(grid)
    sym = laplacian_symbol(grid)
    return float(np.max(laplacian_symbol(riemannian)[kept] / np.abs(sym[kept])))


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


@st.composite
def axis_grids(draw):
    """A flat grid and one of its axes, whose length is drawn from AXIS_N."""
    grid = draw(flat_grids())
    axis = draw(st.integers(0, grid.dim - 1))
    points = list(grid.shape)
    points[axis] = draw(AXIS_N)
    spec = grid.spec
    return build_grid(GridSpec(spec.dim, tuple(points), spec.periods, spec.signature)), axis


def within_rounding(got, ref, bound):
    """|got - ref| <= 8 eps bound everywhere, bound = max|x| / h summed over terms."""
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= 8 * EPS * bound))


# block sizes 2 and 16, then 4 and 8
BLOCK_EXAMPLES = [
    build_grid(GridSpec(2, (6, 32), (1.0, 2.0), (1, 1))),
    build_grid(GridSpec(2, (12, 24), (0.7, 3.0), (1, -1))),
]


@FAST
@given(grid_axis=axis_grids(), seed=st.integers(0, 2**32 - 1))
@example(
    grid_axis=(build_grid(GridSpec(4, (4, 6, 8, 4), (1.0, 2.0, 0.7, 3.0), (1,) * 4)), 0), seed=0
)
@example(grid_axis=(BLOCK_EXAMPLES[0], 1), seed=0)
@example(grid_axis=(BLOCK_EXAMPLES[1], 1), seed=0)
def test_partial_matches_roll(grid_axis, seed):
    grid, _ = grid_axis
    arr = sample(grid.shape, seed)
    scale = float(np.max(np.abs(arr)))
    for axis in range(grid.dim):
        ref = roll_partial(arr, axis, grid.steps[axis])
        got = calculus.partial(arr, axis, grid)
        assert within_rounding(got, ref, scale / grid.steps[axis])


@FAST
@given(grid_axis=axis_grids(), seed=st.integers(0, 2**32 - 1))
@example(grid_axis=(BLOCK_EXAMPLES[0], 1), seed=0)
@example(grid_axis=(BLOCK_EXAMPLES[1], 1), seed=0)
def test_partial_of_axis_constant_is_zero(grid_axis, seed):
    grid, _ = grid_axis
    for axis in range(grid.dim):
        shape = list(grid.shape)
        shape[axis] = 1
        arr = np.broadcast_to(sample(shape, seed), grid.shape).copy()
        assert np.all(calculus.partial(arr, axis, grid) == 0.0)


@FAST
@given(grid=flat_grids(), seed=st.integers(0, 2**32 - 1))
def test_d_matches_roll(grid, seed):
    for p in range(grid.dim):
        f = random_form(grid, p, seed)
        got, ref = calculus.d(f), roll_d(f)
        bound = dict.fromkeys(ref.components, 0.0)
        for I, comp in f.components.items():
            for a in range(grid.dim):
                if a not in I:
                    bound[tuple(sorted(I + (a,)))] += float(np.max(np.abs(comp))) / grid.steps[a]
        for K in ref.components:
            assert within_rounding(got.components[K], ref.components[K], bound[K])


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
        # _irfftn inverts its complex axes in place, so each call gets a copy
        back = calculus._irfftn(spectra.copy(), grid.shape)
        assert same_bits(calculus._irfftn(spectra.copy()[::-1], grid.shape)[::-1], back)
        full = np.fft.fftn(values, axes=axes)
        full_back = np.fft.ifftn(full, axes=axes)
        for k, comp in enumerate(values):
            assert same_bits(spectra[k], np.fft.rfftn(comp))
            assert same_bits(back[k], np.fft.irfftn(spectra[k], s=grid.shape, axes=axes_k))
            assert same_bits(full[k], np.fft.fftn(comp))
            assert same_bits(full_back[k], np.fft.ifftn(full[k]))


def star_terms(grid, p):
    """(I, Ic, coefficient) of star on each degree-p component, one at a time."""
    n = grid.dim
    for I in grid.components_of_degree(p):
        Ic = tuple(a for a in range(n) if a not in I)
        coeff = merge_sign(I, Ic) * grid.sqrt_abs_g
        for i in I:
            coeff = coeff * (grid.signature[i] / grid.metric_diag[i])
        yield I, Ic, coeff


@FAST
@given(grid=any_grids(), seed=st.integers(0, 2**32 - 1))
def test_star_matches_per_component_terms(grid, seed):
    # the stacked star is one multiply; each row must be the term of its own
    # component, also for the reversed view of `values` that delta returns
    for p in range(grid.dim + 1):
        f = random_form(grid, p, seed)
        reversed_view = DiscreteForm(grid, p, f.values[::-1].copy()[::-1])
        for form in (f, reversed_view):
            got = calculus.star(form)
            for I, Ic, coeff in star_terms(grid, p):
                assert identical(got.components[Ic], np.multiply(coeff, f.components[I]))


@FAST
@given(grid=any_grids(), seed=st.integers(0, 2**32 - 1))
def test_delta_is_signed_star_d_star(grid, seed):
    n = grid.dim
    for p in range(1, n + 1):
        f = random_form(grid, p, seed)
        sgn = -1.0 if calculus.sign_C(p, n, grid.neg_count) else 1.0
        ref = calculus.star(calculus.d(calculus.star(f))) * sgn
        assert identical(calculus.delta(f).values, ref.values)


@FAST
@given(grid=any_grids(), seed=st.integers(0, 2**32 - 1))
def test_operators_leave_their_input_unchanged(grid, seed):
    # delta and the flat potentials run a star in place on their own buffers
    n = grid.dim
    for p in range(n + 1):
        f = random_form(grid, p, seed)
        before = f.values.tobytes()
        ops = [calculus.star, calculus.laplacian]
        ops += [calculus.d] if p < n else []
        ops += [calculus.delta] if p > 0 else []
        ops += [calculus.potentials] if grid.is_flat else []
        if grid.is_flat or p in (0, n):
            ops.append(solve_past_its_residual)
        for op in ops:
            op(f)
            assert f.values.tobytes() == before, op


def solve_past_its_residual(f):
    # a random sample can miss the Green tolerance; the input must stay unchanged anyway
    try:
        calculus.green_solve(f)
    except calculus.GreenSolveError:
        pass


def test_cached_complement_signs_match_merge_sign():
    # the complements of the degree-p tuples are the degree-(n-p) tuples reversed
    for n in range(1, 5):
        for p in range(n + 1):
            keys = list(itertools.combinations(range(n), p))
            complements = [tuple(a for a in range(n) if a not in I) for I in keys]
            assert complements == list(itertools.combinations(range(n), n - p))[::-1]
            signs = [mesh.permutation_sign(I + Ic) for I, Ic in zip(keys, complements)]
            assert mesh._complement_signs(n, p) == tuple(signs)
            assert [merge_sign(I, Ic) for I, Ic in zip(keys, complements)] == signs


@FAST
@given(grid=any_grids())
def test_grid_star_coefficients_match_the_formula(grid):
    # each row is the coefficient of one component, built on its own; the
    # stack is the grid's one copy of them, so it must not be writable
    for p in range(grid.dim + 1):
        coeffs = grid.star_coeffs[p]
        assert identical(coeffs, np.stack([coeff for _, _, coeff in star_terms(grid, p)]))
        with pytest.raises(ValueError, match="read-only"):
            coeffs[...] = 0.0


@FAST
@given(grid=any_grids())
def test_cached_star_stack_matches_a_fresh_build(grid):
    for p in range(grid.dim + 1):
        calculus.star(grid.zeros(p))
        cached = grid.star_coeffs[p]
        assert identical(cached, np.stack([coeff for _, _, coeff in star_terms(grid, p)]))
        # scale is applied after the lookup and leaves the cached stack alone
        values = random_form(grid, p, 5).values
        got = calculus._star(values, p, grid, -1.0)
        assert identical(got, np.multiply(values, cached * -1.0)[::-1])
        assert identical(cached, np.stack([coeff for _, _, coeff in star_terms(grid, p)]))


def cached_arrays(value):
    if isinstance(value, tuple):
        for v in value:
            yield from cached_arrays(v)
    elif isinstance(value, np.ndarray):
        yield value


@pytest.mark.parametrize(
    "spec,kinds",
    [
        (GridSpec(2, (8, 12), (1.0, 2.0), (1, 1)), {"band", "sigma", "rfft"}),
        (
            GridSpec(2, (8, 8), (TWO_PI, TWO_PI), (1, 1), "embedded-torus", 2.0, 1.0),
            {"band", "sigma", "curved"},
        ),
    ],
)
def test_cached_symbols_are_read_only(spec, kinds):
    grid = build_grid(spec)
    f = random_form(grid, 1, 0)
    calculus.potentials(f)
    calculus.green_solve(calculus.delta(f))
    cache = grid._symbol_cache
    assert {key if isinstance(key, str) else key[0] for key in cache} == kinds
    for key, value in cache.items():
        arrays = list(cached_arrays(value))
        assert arrays, key
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
