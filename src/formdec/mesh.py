"""Periodic structured grids, discrete differential forms, wedge product,
and integration over the manifold and over coordinate cycles.

All form components are collocated at grid nodes.  The single quadrature
used everywhere is the periodic rectangle rule, which is spectrally
accurate for smooth periodic integrands.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

KNOWN_METRICS = ("flat", "embedded-torus")


def permutation_sign(seq):
    """Sign of the permutation sorting `seq` (no repeated entries)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


@functools.cache
def merge_sign(left, right):
    """Sign of merging two disjoint sorted index tuples into one sorted tuple."""
    return permutation_sign(tuple(left) + tuple(right))


@functools.cache
def _complement_signs(n, p):
    """merge_sign(I, complement of I) per sorted degree-p tuple I; the complements run reversed."""
    keys = itertools.combinations(range(n), p)
    return tuple(merge_sign(I, tuple(k for k in range(n) if k not in I)) for I in keys)


@dataclass(frozen=True)
class GridSpec:
    """Shape, periods, metric signature and metric preset of an n-torus lattice."""

    dim: int
    points: tuple
    periods: tuple
    signature: tuple
    metric: str = "flat"
    R: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        if not 1 <= self.dim <= 4:
            raise ValueError(f"dim must be in 1..4, got {self.dim}")
        object.__setattr__(self, "points", tuple(int(N) for N in self.points))
        object.__setattr__(self, "periods", tuple(float(L) for L in self.periods))
        object.__setattr__(self, "signature", tuple(int(s) for s in self.signature))
        if len(self.points) != self.dim or len(self.periods) != self.dim:
            raise ValueError("points and periods must have one entry per axis")
        if len(self.signature) != self.dim:
            raise ValueError("signature must have one entry per axis")
        for N in self.points:
            if N < 4:
                raise ValueError(f"need at least 4 points per axis, got {N}")
            if N % 2 != 0:
                raise ValueError(f"points per axis must be even, got {N}")
        for L in self.periods:
            if not (math.isfinite(L) and L > 0):
                raise ValueError(f"periods must be finite and strictly positive, got {L}")
        if any(s not in (-1, 1) for s in self.signature):
            raise ValueError("signature entries must be +1 or -1")
        if not (math.isfinite(self.R) and math.isfinite(self.r)):
            raise ValueError(f"R and r must be finite, got R={self.R}, r={self.r}")
        if self.metric not in KNOWN_METRICS:
            raise ValueError(f"unknown metric preset {self.metric!r}")
        if self.metric == "embedded-torus":
            if self.dim != 2:
                raise ValueError("embedded-torus metric requires dim=2")
            if not self.R > self.r > 0:
                raise ValueError(
                    f"embedded torus needs R > r > 0, got R={self.R}, r={self.r}"
                )

    @property
    def neg_count(self):
        """Number of -1 entries in the signature (the s of the metric)."""
        return sum(1 for s in self.signature if s == -1)


class PeriodicGrid:
    """An n-torus sampling lattice with a diagonal, position-dependent metric.

    `coords[a]` holds the node coordinates along axis a, shaped to broadcast
    against the grid: (N_a,) on axis a and length 1 on every other axis.
    `metric_diag[a]` holds the positive scale factor |g_aa|; the sign of g_aa
    is carried separately by `signature`.  `metric_diag` and
    `sqrt_abs_g` are stored with length-1 axes wherever the metric is
    constant, and broadcast against the grid shape: `metric_diag` has shape
    (n, 1, ..., 1) on flat grids and (2, 1, N_v) on the embedded torus, whose
    metric varies along v only; `sqrt_abs_g` drops the leading axis.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec  # frozen, so these copies of its facts stay true
        self.dim, self.signature, self.neg_count = spec.dim, spec.signature, spec.neg_count
        self.is_flat = spec.metric == "flat"
        self.shape = spec.points
        self.steps = tuple(L / N for L, N in zip(spec.periods, spec.points))
        axes_1d = [np.arange(N) * h for N, h in zip(spec.points, self.steps)]
        self.coords = np.meshgrid(*axes_1d, indexing="ij", sparse=True)
        self.metric_diag = self._build_metric()
        with np.errstate(all="ignore"):  # an overflow, 0 or NaN is refused below
            self.sqrt_abs_g = np.sqrt(np.prod(self.metric_diag, axis=0))
            # |coefficients| of star on every degree, in _star's order of operations
            stars, inverse = {(): self.sqrt_abs_g}, 1.0 / self.metric_diag
            for I in itertools.chain(*map(self.components_of_degree, range(1, self.dim + 1))):
                stars[I] = stars[I[:-1]] * inverse[I[-1]]
        factors = np.stack([*self.metric_diag, *stars.values()])
        tiny = np.finfo(float).tiny  # a subnormal factor has lost its precision
        if not np.all(np.isfinite(factors) & (factors >= tiny)):
            raise ValueError(
                f"degenerate metric: the scale factors, sqrt|g| and the coefficients of star must "
                f"stay positive and finite and at least {tiny:.4g}, the smallest normal float "
                f"(R={spec.R}, r={spec.r})"
            )
        self.metric_diag.flags.writeable = False
        self.sqrt_abs_g.flags.writeable = False
        self.cell_volume = float(np.prod(self.steps))
        self._symbol_cache = {}

    def _build_metric(self):
        n = self.dim
        if self.is_flat:
            return np.ones((n,) + (1,) * n)
        # embedded-torus: g_uu = (R + r cos v)^2, g_vv = r^2
        R, r = self.spec.R, self.spec.r
        v = np.arange(self.shape[1]) * self.steps[1]
        g = np.empty((2, 1, self.shape[1]))
        with np.errstate(over="ignore"):  # an overflow is refused as degenerate
            g[0] = (R + r * np.cos(v)) ** 2
            g[1] = np.float64(r) ** 2
        return g

    def volume(self):
        """Metric volume of the torus, int_M sqrt|g| dx."""
        return float(np.sum(self._full(self.sqrt_abs_g))) * self.cell_volume

    def _full(self, factor):
        """A contiguous grid-shaped copy of a broadcastable metric factor.

        Sums over the copy run in the order of a full grid array.
        """
        return np.broadcast_to(factor, self.shape).copy()

    def components_of_degree(self, p):
        """Sorted index tuples keying degree-p components."""
        if not 0 <= p <= self.dim:
            raise ValueError(f"degree {p} out of range for dim {self.dim}")
        return list(itertools.combinations(range(self.dim), p))

    def zeros(self, degree):
        count = len(self.components_of_degree(degree))
        return DiscreteForm(self, degree, np.zeros((count,) + self.shape))

    def constant_form(self, degree, values):
        """Compact form whose component I is values[I], 0 if missing; other keys raise KeyError."""
        column = dict.fromkeys(self.components_of_degree(degree), 0.0)
        for I, val in values.items():
            column[tuple(I)] += val
        return DiscreteForm(self, degree, np.reshape([*column.values()], (-1,) + (1,) * self.dim))

    def volume_form(self):
        """Top form with component sqrt|g| (the Riemannian/pseudo volume Omega)."""
        return DiscreteForm(self, self.dim, self._full(self.sqrt_abs_g)[None])

    def unit_form(self):
        """Compact top form sqrt|g| / volume, whose manifold integral is one."""
        return DiscreteForm(self, self.dim, self.sqrt_abs_g[None] * (1.0 / self.volume()))


def build_grid(spec: GridSpec) -> PeriodicGrid:
    """Construct the sampling lattice with its metric arrays."""
    return PeriodicGrid(spec)


class DiscreteForm:
    """Degree-p antisymmetric component field sampled on the grid.

    `values` stacks the C(n, p) component arrays into one float array in the
    order of grid.components_of_degree(p), of full_shape (C(n, p),) +
    grid.shape, or compact: read-only, of length 1 along grid axes where
    every component is constant.  `components` maps each strictly increasing
    index tuple to its row of `values`, a view: a write through either one
    is seen by the other.
    """

    def __init__(self, grid, degree, values):
        self.grid = grid
        self.degree = degree
        keys = grid.components_of_degree(degree)
        values = np.asarray(values)
        self.full_shape = (len(keys),) + grid.shape
        fits = [m in (1, N) for m, N in zip(values.shape[1:], grid.shape)]
        if values.shape[:1] != self.full_shape[:1] or values.ndim != grid.dim + 1 or not all(fits):
            raise ValueError(
                f"degree-{degree} form needs values that broadcast to {self.full_shape}, "
                f"got {values.shape}"
            )
        self.values = values.astype(float, copy=False)
        if self.values.shape != self.full_shape:
            self.values = self.values.view()
            self.values.flags.writeable = False
        self.components = dict(zip(keys, self.values))

    def copy(self):  # writable, of full shape
        values = np.broadcast_to(self.values, self.full_shape).copy()
        return DiscreteForm(self.grid, self.degree, values)

    def __add__(self, other):
        self._check_compatible(other)
        return DiscreteForm(self.grid, self.degree, self.values + other.values)

    def __sub__(self, other):
        self._check_compatible(other)
        return DiscreteForm(self.grid, self.degree, self.values - other.values)

    def __mul__(self, scalar):
        return DiscreteForm(self.grid, self.degree, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def _check_compatible(self, other):
        if other.grid is not self.grid or other.degree != self.degree:
            raise ValueError("forms must live on the same grid with equal degree")

    def norm_inf(self):
        """Largest |component| over the grid; NaN if any entry is NaN.

        Read as max(max x, -min x) without an |x| copy; np.maximum keeps a
        NaN, and abs clears the sign of a NaN or of the -0.0 of a zero form.
        """
        return abs(float(np.maximum(np.max(self.values), -np.min(self.values))))


def linear_combination(forms, coeffs):
    """sum_i coeffs[i] * forms[i], accumulated in place into one zeroed array.

    The array takes the broadcast shape of the terms, so compact terms give
    a compact form.  The terms are added in the given order: each entry is
    bit-equal to adding them one at a time to grid.zeros(degree).  A term
    with coefficient 1.0 is added as it is (x * 1.0 is x in IEEE
    arithmetic); the others are multiplied into one scratch array of the
    full shape, allocated at the first such full-shape term, or into a new
    array of their own compact shape.
    """
    for f in forms:
        forms[0]._check_compatible(f)
    out = np.zeros(np.broadcast_shapes(*(f.values.shape for f in forms)))
    term = None
    for f, c in zip(forms, coeffs, strict=True):
        if c == 1.0:
            out += f.values
        elif f.values.shape == out.shape:
            term = np.empty(out.shape) if term is None else term
            out += np.multiply(f.values, c, out=term)
        else:
            out += f.values * c
    return DiscreteForm(forms[0].grid, forms[0].degree, out)


def wedge(a: DiscreteForm, b: DiscreteForm) -> DiscreteForm:
    """Pointwise exterior product with standard permutation signs."""
    if a.grid is not b.grid:
        raise ValueError("wedge operands must share a grid")
    p, q = a.degree, b.degree
    n = a.grid.dim
    if p + q > n:
        raise ValueError(f"wedge degree overflow: {p} + {q} > {n}")
    out = a.grid.zeros(p + q)
    for I, fa in a.components.items():
        for J, fb in b.components.items():
            if set(I) & set(J):
                continue
            K = tuple(sorted(I + J))
            out.components[K] += merge_sign(I, J) * fa * fb
    return out


def integrate_manifold(f: DiscreteForm) -> float:
    """Periodic rectangle-rule integral of a top-degree form.

    The single component is summed as-is: any sqrt|g| factor is the
    caller's responsibility (a top form already is a density).
    """
    if f.degree != f.grid.dim:
        raise ValueError(f"manifold integration needs a degree-{f.grid.dim} form")
    top = tuple(range(f.grid.dim))
    return _grid_sum(f.components[top], f.grid) * f.grid.cell_volume


def _grid_sum(arr, grid):
    """Sum of arr broadcast to grid.shape: each entry stands for equally many points."""
    return float(np.sum(arr)) * (math.prod(grid.shape) // arr.size)


def wedge_integral(a: DiscreteForm, b: DiscreteForm) -> float:
    """int_M a wedge b for forms of complementary degrees.

    Equal to integrate_manifold(wedge(a, b)) without building the wedge: each
    component a_I meets only the complementary component b_J, so this sums
    merge_sign(I, J) * sum(a_I * b_J) over the components of a.  Each
    operand is first averaged over the axes along which the other is
    compact, so no grid-sized product is formed against a compact form.
    """
    if a.grid is not b.grid:
        raise ValueError("wedge operands must share a grid")
    n = a.grid.dim
    if a.degree + b.degree != n:
        raise ValueError(f"wedge_integral needs degrees summing to {n}")
    return _wedge_sums([a], b.values[::-1])[0]


def _wedge_sums(forms, others):
    """int_M f wedge g for each f of `forms`, all of one degree p on one grid.

    `others` yields the components of g, each complementary to the sorted
    degree-p tuple I in the order of those tuples, so a caller can make one
    component at a time.  Each form gets merge_sign(I, Ic) * sum(f_I * g_Ic)
    added in that order, with the operands of each product first averaged
    as in wedge_integral.
    """
    grid = forms[0].grid
    signs = _complement_signs(grid.dim, forms[0].degree)
    totals = [0.0] * len(forms)
    # one flat zip: an enumerate around it would pin a component in zip's cached tuple
    for sign, fb, *row in zip(signs, others, *(f.values for f in forms)):
        for k, fa in enumerate(row):
            # one expression: a named product would outlive its sum into the next one
            totals[k] += sign * _grid_sum(
                _mean_along(fa, fb.shape) * _mean_along(fb, fa.shape), grid
            )
    return [total * grid.cell_volume for total in totals]


def _mean_along(arr, other_shape):
    """arr averaged over the axes where other_shape is 1 and arr is not."""
    axes = tuple(i for i, (m, k) in enumerate(zip(arr.shape, other_shape)) if k == 1 < m)
    return np.mean(arr, axis=axes, keepdims=True) if axes else arr


def integrate_cycle_mean(f: DiscreteForm, axes) -> float:
    """Cycle integral over the coordinate sub-torus spanned by `axes`,
    averaged over all offsets of the other axes (periodic rectangle rule).

    Only closed forms are passed here (the harmonic basis, star of the basis
    and the field F): for a closed form the integral does not depend on the
    offset, so the average is its cycle integral.  For a form that is not
    closed it is only an average (on a curved metric it does not annihilate
    the coexact part), so harmonic coefficients of general forms come from
    the wedge pairing, CohomologyBasis.coefficients.
    """
    axes = tuple(axes)
    if len(axes) != f.degree:
        raise ValueError("axes count must equal the form degree")
    grid = f.grid
    comp = f.components[axes]
    step = math.prod(grid.steps[a] for a in axes)
    n_offsets = math.prod(N for a, N in enumerate(grid.shape) if a not in axes)
    return _grid_sum(comp, grid) * step / n_offsets
