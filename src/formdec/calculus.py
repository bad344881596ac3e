"""Signature-aware Hodge star, exterior derivative, coderivative,
Laplace-Beltrami operator, bilinear pairing, and a minimum-norm Green solver.

star, d and delta = +-star d star are each written once (_star, _d,
_delta), on the stacked components of a form, and run alike on grid values
and on their real-FFT spectra.  Derivatives use periodic eighth-order
central-difference stencils (coefficients c_j after Fornberg, Math. Comp.
51, 1988), summed by parts: `partial` takes the first differences along
the axis in one pass and applies the stencil to them as one matrix product
with a cached band matrix, so an array constant along the axis has an
exactly zero partial.  On flat metrics each stencil partial is circulant
with Fourier symbol i sigma_a, sigma_a = 2 sum_j c_j sin(j k_a h_a)/h_a
(Trefethen, Spectral Methods in MATLAB, 2000, ch. 3), cached per axis on
the grid.  The Laplacian is then a convolution with the symbol sum_a s_a
sigma_a^2, the same for every degree and component.  potentials gives the
Hodge potentials G(delta phi) and G(d phi) on every metric, on flat ones as
one real-FFT projection.  The curved metric (the embedded torus) depends on
v alone, so its 0-form Green solve is direct: a real FFT along u and one
cached eigendecomposition along v diagonalize the stencil Laplacian (fast
diagonalization), refined once against the stencil; top forms go through
star.  Both Green operators divide by their symbol with one deflation rule
(_masked_inverse) for its near-null modes and return the minimum-norm solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import DiscreteForm, _complement_signs, _wedge_sums, merge_sign

DEFLATION_TOL = 1e-10
GREEN_TOL = 1e-10  # largest relative residual a Green solve may leave

# eighth-order central first-derivative coefficients for offsets 1..4
_STENCIL = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)


class NumericFailure(RuntimeError):
    """A computation missed a numeric target; `stage` names the failed check."""

    def __init__(self, message, residual, tolerance):
        super().__init__(message)
        self.residual = residual
        self.tolerance = tolerance


class GreenSolveError(NumericFailure):
    """Raised when the Green solve misses its residual target."""

    stage = "green_solve"


@dataclass
class SolveReport:
    """Direct solves applied (2 on curved grids, one of them a refinement; 0
    on a zero source), the relative residual against the stencil Laplacian,
    and the deflated modes."""

    iterations: int
    relative_residual: float
    deflated_dims: int


def sign_D(p, n, s):
    """Parity of D(p) = p(n-p) + s, the double Hodge star exponent."""
    if not 0 <= p <= n:
        raise ValueError(f"degree {p} out of range for dim {n}")
    return (p * (n - p) + s) % 2


def sign_C(p, n, s):
    """Parity of C(p) = np + n + 1 + s, the coderivative sign exponent."""
    if not 0 <= p <= n:
        raise ValueError(f"degree {p} out of range for dim {n}")
    return (n * p + n + 1 + s) % 2


def partial(arr, axis, grid):
    """Periodic eighth-order central-difference partial of a real array along one axis.

    out_i = sum_{j=1..4} c_j (x_{i+j} - x_{i-j}) / h, summed by parts: with
    e_t = x_t - x_{t-1}, each x_{i+j} - x_{i-j} is e_{i-j+1} + ... + e_{i+j},
    so out_i = sum_{s=-3..4} w_s e_{i+s} / h with w_s = sum_{j >= max(s, 1-s)}
    c_j.  One pass takes the first differences e_t, t = -3..N+3, wrapped
    periodically (GridSpec keeps N >= 4); one matmul applies the banded
    matrix of _stencil_band to the overlapping windows of e, of length b + 7
    at stride b.  An array constant along the axis has e = 0, so its partial
    is exactly 0, as along a length-1 axis.  The result is a view into the
    one buffer that also held e.
    """
    N = arr.shape[axis]
    if N == 1:
        return np.zeros(arr.shape)
    band = _stencil_band(grid, N, grid.steps[axis])
    b = band.shape[1]
    x = arr.reshape(math.prod(arr.shape[:axis]), N, -1)
    A, _, L = x.shape
    # one allocation for e and out: with two per call glibc trimmed and
    # re-faulted the heap more often (embedded 256^2 op: 5% more minor faults)
    size_e = A * (N + 7) * L
    buf = np.empty(size_e + arr.size)
    # row r of e holds e_{r-3}: rows 3..N+2 are t = 0..N-1, the rest wrap
    e = buf[:size_e].reshape(A, N + 7, L)
    out = buf[size_e:].reshape(arr.shape)
    np.subtract(x[:, 1:], x[:, :-1], out=e[:, 4 : N + 3])
    np.subtract(x[:, :1], x[:, -1:], out=e[:, 3:4])
    e[:, :3] = e[:, N : N + 3]
    e[:, N + 3 :] = e[:, 3:7]
    # the windows are np.ndarray views of e, not as_strided: its read of
    # __array_interface__ makes numpy 2.4 allocate a ~1 MB table after some
    # thousands of calls, which can pin the top of the heap mid-op
    s_a, s_t, s_l = e.strides
    if L == 1:
        # along the last axis: block k of every row is one product, windows @ band
        windows = np.ndarray((N // b, A, b + 7), e.dtype, e, 0, (b * s_t, s_a, s_t))
        np.matmul(windows, band, out=out.reshape(A, N // b, b).transpose(1, 0, 2))
    else:
        windows = np.ndarray((A, N // b, b + 7, L), e.dtype, e, 0, (s_a, b * s_t, s_t, s_l))
        np.matmul(band.T, windows, out=out.reshape(A, N // b, b, L))
    return out


def _read_only(value):
    """value, an array or a tuple nesting arrays, with each array made read-only for the cache."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    for v in value if isinstance(value, tuple) else ():
        _read_only(v)
    return value


def _stencil_band(grid, N, h):
    """The (b + 7) x b band matrix of partial, b = gcd(N, 16), cached on the grid.

    Column c holds w_{-3..4} / h in rows c..c+7, so a window of e_t starting
    at a block's first t - 3 gives the block's b outputs.
    """
    cache = grid._symbol_cache
    key = ("band", N, h)
    if key not in cache:
        w = [sum(_STENCIL[max(s, 1 - s) - 1 :]) / h for s in range(-3, 5)]
        b = math.gcd(N, 16)
        band = np.zeros((b + 7, b))
        for c in range(b):
            band[c : c + 8, c] = w
        cache[key] = _read_only(band)
    return cache[key]


def d(f: DiscreteForm) -> DiscreteForm:
    """Exterior derivative via antisymmetrized partial-derivative stencils."""
    if f.degree >= f.grid.dim:
        raise ValueError("cannot take d of a top-degree form")
    return DiscreteForm(f.grid, f.degree + 1, _d(f.values, f.degree, f.grid, partial))


def star(f: DiscreteForm) -> DiscreteForm:
    """Hodge star: pointwise diagonal map for diagonal metrics.

    Component I goes to the complementary tuple with coefficient
    sign(perm(I, Ic)) * sqrt|g| * prod_{i in I}(signature_i / g_ii).
    """
    return DiscreteForm(f.grid, f.grid.dim - f.degree, _star(f.values, f.degree, f.grid))


def delta(f: DiscreteForm) -> DiscreteForm:
    """Coderivative (-1)^{C(p)} star d star."""
    if f.degree == 0:
        raise ValueError("coderivative of a 0-form is undefined")
    return DiscreteForm(f.grid, f.degree - 1, _delta(f.values, f.degree, f.grid, partial))


def _d(values, p, grid, deriv):
    """d of the stacked components of a p-form, or of their spectra, as a new stack.

    deriv(f_I, a, grid) stands for the partial of component I along axis a:
    `partial` on grid values, a multiply by i sigma_a on spectra.  The term
    goes to K = sorted(I + (a,)) with the sign of merging a into I.
    """
    out = np.zeros((math.comb(grid.dim, p + 1),) + values.shape[1:], values.dtype)
    rows = dict(zip(grid.components_of_degree(p + 1), out))
    for I, comp in zip(grid.components_of_degree(p), values):
        for a in range(grid.dim):
            if a in I:
                continue
            K = tuple(sorted(I + (a,)))
            if merge_sign((a,), I) > 0:
                rows[K] += deriv(comp, a, grid)
            else:
                rows[K] -= deriv(comp, a, grid)
    return out


def _star_coeffs(grid, p):
    """The stacked coefficients of star on degree-p components, cached on the grid.

    Row I is sign(perm(I, Ic)) * sqrt|g| * prod_{i in I}(signature_i / g_ii),
    broadcastable against the grid; _star and pairings both read it here.
    """
    key = ("star", p)
    if key not in grid._symbol_cache:
        coeffs = []
        for I, sign in zip(grid.components_of_degree(p), _complement_signs(grid.dim, p)):
            coeff = sign * grid.sqrt_abs_g
            for i in I:
                coeff = coeff * (grid.signature[i] / grid.metric_diag[i])
            coeffs.append(coeff)
        grid._symbol_cache[key] = _read_only(np.stack(coeffs))
    return grid._symbol_cache[key]


def _star(values, p, grid, scale=1.0, out=None):
    """scale * star of the stacked components of a p-form, or of their spectra.

    One multiply by the stacked coefficients of star (_star_coeffs; scale
    multiplies them after the lookup), written to `out` (a new array of
    their broadcast shape when None; `values` itself to work in place) and
    returned reversed along the component axis: the complements of the
    sorted degree-p tuples are the sorted degree-(n-p) tuples in reverse
    order.
    """
    coeffs = _star_coeffs(grid, p) * scale
    if out is None:
        out = np.empty(np.broadcast_shapes(values.shape, coeffs.shape), values.dtype)[::-1]
    np.multiply(values, coeffs, out=out)
    return out[::-1]


def _delta(values, p, grid, deriv, out=None):
    """(-1)^{C(p)} star d star of stacked components or spectra, as _d and _star.

    The first star writes to `out`; the last one carries the sign and runs
    in place on the new output of d."""
    n = grid.dim
    sgn = -1.0 if sign_C(p, n, grid.neg_count) else 1.0
    dstar = _d(_star(values, p, grid, out=out), n - p, grid, deriv)
    return _star(dstar, n - p + 1, grid, sgn, out=dstar)


def laplacian(f: DiscreteForm) -> DiscreteForm:
    """Laplace-Beltrami operator, delta d + d delta (invalid halves dropped)."""
    if f.degree == 0:
        return delta(d(f))
    if f.degree == f.grid.dim:
        return d(delta(f))
    return delta(d(f)) + d(delta(f))


def pairing(a: DiscreteForm, b: DiscreteForm) -> float:
    """Bilinear integral (a, b) = int_M a wedge star(b); symmetric.

    pairings([a], b): bit-equal to wedge_integral(a, star(b)) without a
    copy of star(b).
    """
    return pairings([a], b)[0]


def pairings(forms, b: DiscreteForm) -> list:
    """[pairing(a, b) for a in forms], with star(b) made one component at a time.

    Each component of b is multiplied by its row of _star_coeffs, paired
    with the matching component of every form and dropped, so no copy of
    star(b) is kept.  The products and sums are those of
    wedge_integral(a, star(b)), in the same order, so each result is
    bit-equal to it.
    """
    for a in forms:
        b._check_compatible(a)
    rows = zip(b.values, _star_coeffs(b.grid, b.degree))
    return _wedge_sums(forms, (comp * coeff for comp, coeff in rows))


# ---------------------------------------------------------------------------
# Green solver
# ---------------------------------------------------------------------------


def _axis_symbols(grid):
    """Per-axis sigma_a = 2 sum_j c_j sin(j k_a h_a) / h_a, in fftfreq order.

    Cached on the grid; every flat symbol is built from these arrays.
    """
    cache = grid._symbol_cache
    if "sigma" not in cache:
        sigmas = []
        for N, h in zip(grid.shape, grid.steps):
            kh = 2.0 * np.pi * np.fft.fftfreq(N)
            sigmas.append(
                2.0 * sum(c * np.sin(j * kh) for j, c in enumerate(_STENCIL, start=1)) / h
            )
        cache["sigma"] = _read_only(tuple(sigmas))
    return cache["sigma"]


def _symbol_sum(grid, sigmas):
    """sum_a s_a sigma_a^2, broadcast over the axes."""
    sym = np.zeros([len(sig) for sig in sigmas])
    for a, (sig, s) in enumerate(zip(sigmas, grid.signature)):
        sym = sym + s * (sig * sig).reshape(_axis_shape(grid.dim, a, len(sig)))
    return sym


def _axis_shape(n, axis, size):
    shape = [1] * n
    shape[axis] = size
    return shape


def _masked_inverse(sym, half_axis):
    """(deflation mask, masked inverse, deflated count) of a symbol in rfft layout.

    Modes with |sym| <= DEFLATION_TOL max|sym| are deflated (inverse 0).
    The mask is symmetric under k -> -k, so each interior plane of the
    rfft-halved axis `half_axis` stands for two modes in the count.
    """
    mask = np.abs(sym) <= DEFLATION_TOL * float(np.max(np.abs(sym)))
    green = np.where(mask, 0.0, 1.0 / np.where(mask, 1.0, sym))
    deflated = 2 * int(mask.sum()) - int(np.take(mask, [0, -1], axis=half_axis).sum())
    return mask, green, deflated


def _rfft_symbols(grid):
    """The flat symbols in rfftn layout, cached on the grid.

    Returns i sigma_a per axis, broadcastable, then _masked_inverse of the
    Laplacian symbol: the deflation mask, the masked inverse G and the
    number of deflated modes of one component.  The last axis keeps the
    first N//2 + 1 entries of its sigma.
    """
    cache = grid._symbol_cache
    if "rfft" not in cache:
        sigmas = list(_axis_symbols(grid))
        sigmas[-1] = sigmas[-1][: grid.shape[-1] // 2 + 1]
        isig = tuple(
            1j * sig.reshape(_axis_shape(grid.dim, a, len(sig))) for a, sig in enumerate(sigmas)
        )
        cache["rfft"] = _read_only((isig,) + _masked_inverse(_symbol_sum(grid, sigmas), -1))
    return cache["rfft"]


def _rfftn(values, grid):
    """rfftn of the stacked components over the grid axes, every axis in one complex array."""
    shape = values.shape[:-1] + (values.shape[-1] // 2 + 1,)
    return np.fft.rfftn(values, axes=range(1, grid.dim + 1), out=np.empty(shape, complex))


def _irfftn(spectra, shape):
    """irfftn of stacked spectra to the grid-axis shape `shape`; consumes `spectra`.

    The complex axes are inverted in place in `spectra`, in irfftn's order,
    and only the real output of the last axis is allocated.
    """
    for axis in range(1, len(shape)):
        np.fft.ifft(spectra, n=shape[axis - 1], axis=axis, out=spectra)
    return np.fft.irfft(spectra, n=shape[-1], axis=len(shape))


def _green_form(grid, degree, spectra, green, shape):
    """G(source) as a form, from the stacked rfftn spectra of the source.

    The spectra are multiplied by G in place, then inverted to the grid-axis
    shape `shape` in one _irfftn, which takes them over.
    """
    spectra *= green
    return DiscreteForm(grid, degree, _irfftn(spectra, shape))


def potentials(phi):
    """The Hodge potentials alpha = G(delta phi) and beta = G(d phi) of a p-form.

    G is the minimum-norm Green operator of green_solve.  On a flat metric
    the stencils are circulant, so this is symbol algebra on the real FFT
    of phi: the spectra go through _d and _delta with each stencil partial
    replaced by its symbol i sigma_a, and G multiplies by the masked
    inverse of the Laplacian symbol.  One rfftn of the stacked components
    of phi, one irfftn each of the stacked components of alpha and beta.
    phi is transformed as stored: along a length-1 axis only the mode
    k = 0 is present, where sigma_a = 0, so alpha and beta keep phi's
    shape.  On the curved embedded torus they are green_solve of the 0-form
    delta phi and of the top form d phi of a 1-form; other degrees and an
    indefinite signature raise NotImplementedError before any stencil runs.
    alpha is None when p = 0 and beta when p = n.
    """
    grid, p = phi.grid, phi.degree
    if not grid.is_flat:
        if grid.neg_count != 0:
            raise NotImplementedError("curved metrics are supported only for s = 0")
        if p != 1:
            raise NotImplementedError(f"curved potentials need a 1-form, got degree {p}")
        return green_solve(delta(phi))[0], green_solve(d(phi))[0]
    shape = phi.values.shape[1:]
    # the symbols at k = 0 along phi's length-1 axes, all of them along the others
    modes = tuple(slice(None) if m > 1 else slice(0, 1) for m in shape)
    isig, _, green, _ = _rfft_symbols(grid)
    isig, green = [s[modes] for s in isig], green[modes]
    term = np.empty(green.shape, complex)

    def isig_times(comp, a, _):
        return np.multiply(isig[a], comp, out=term)

    phat = _rfftn(phi.values, grid)
    beta_hat = _d(phat, p, grid, isig_times) if p < grid.dim else None
    # the first star of delta runs in place: phat is not used again
    alpha_hat = _delta(phat, p, grid, isig_times, out=phat) if p > 0 else None
    del phat
    alpha = _green_form(grid, p - 1, alpha_hat, green, shape) if p > 0 else None
    beta = _green_form(grid, p + 1, beta_hat, green, shape) if p < grid.dim else None
    return alpha, beta


def _green_solve_flat(source):
    grid = source.grid
    _, mask, green, _ = _rfft_symbols(grid)
    spectra = _rfftn(source.values, grid)
    proj = DiscreteForm(grid, source.degree, _irfftn(np.where(mask, 0.0, spectra), grid.shape))
    theta = _green_form(grid, source.degree, spectra, green, grid.shape)
    return theta, proj, 1


def _l2(form):
    return math.sqrt(sum(float(np.sum(a * a)) for a in form.components.values()))


def _curved_symbols(grid):
    """Fast diagonalization of the curved 0-form Laplacian, cached on the grid.

    The embedded-torus metric depends on v alone, so sqrt|g| times the
    stencil Laplacian is sigma_k^2 A + K on u mode k, with A = diag(sqrt|g|
    / g_uu), K = D^t diag(sqrt|g| / g_vv) D and D the v-stencil matrix.
    eigh of A^-1/2 K A^-1/2 gives V with V^t A V = I, V^t K V = diag(lambda)
    for every mode at once (Lynch, Rice & Thomas, Numer. Math. 6, 1964).
    Returns (V, the masked inverse of sigma_k^2 + lambda_j in rfft-along-u
    layout, its deflated count, and the constant-mode weight sum sqrt|g|).
    A matrix that overflows, or an eigh that does not converge, raises
    GreenSolveError with a NaN residual.
    """
    cache = grid._symbol_cache
    if "curved" not in cache:
        g_uu, g_vv = grid.metric_diag[:, 0]
        sqrt_g = grid.sqrt_abs_g[0]
        # the partial of the identity along its second axis is D^t
        Dt = partial(np.eye(grid.shape[1]), 1, grid)
        K = (Dt * (sqrt_g / g_vv)) @ Dt.T
        a_isqrt = np.sqrt(g_uu / sqrt_g)
        with np.errstate(over="ignore"):  # an overflow is the failed check below
            scaled = a_isqrt[:, None] * K * a_isqrt
        if not np.all(np.isfinite(scaled)):
            message = "fast diagonalization: A^-1/2 K A^-1/2 overflows"
            raise GreenSolveError(message, math.nan, GREEN_TOL)
        try:
            lam, W = np.linalg.eigh(scaled)
        except np.linalg.LinAlgError as exc:  # a failed check, not bad input
            raise GreenSolveError(f"fast diagonalization: {exc}", math.nan, GREEN_TOL) from exc
        V = a_isqrt[:, None] * W
        sigma_u = _axis_symbols(grid)[0][: grid.shape[0] // 2 + 1]
        _, green, deflated = _masked_inverse((sigma_u * sigma_u)[:, None] + lam, 0)
        weight = float(np.sum(grid._full(grid.sqrt_abs_g)))
        cache["curved"] = _read_only((V, green, deflated, weight))
    return cache["curved"]


def _green_solve_curved(source):
    """G of a 0-form by fast diagonalization, refined once; top forms as star G star.

    On T^2, star laplacian = laplacian star on 2-forms.  The source is
    projected off the constants under the metric pairing, the direct solve
    is refined by one step against the stencil laplacian, and theta is
    returned orthogonal to the constants under the pairing.
    """
    grid = source.grid
    if source.degree == grid.dim:
        theta, proj, solves = _green_solve_curved(star(source))
        return star(theta), star(proj), solves
    V, green, _, weight = _curved_symbols(grid)
    sqrt_g = grid.sqrt_abs_g

    def off_constants(values):
        return values - float(np.sum(values * sqrt_g)) / weight

    def solve(values):
        spectra = np.fft.rfft((values[0] * sqrt_g) @ V, axis=0) * green
        return np.fft.irfft(spectra, n=grid.shape[0], axis=0) @ V.T

    proj = DiscreteForm(grid, 0, off_constants(source.values))
    theta = DiscreteForm(grid, 0, solve(proj.values)[None])
    theta.values += solve((proj - laplacian(theta)).values)
    theta = DiscreteForm(grid, 0, off_constants(theta.values))
    return theta, proj, 2


def green_solve(source):
    """Minimum-norm solve of (laplacian theta) = source with kernel deflation.

    The source is first projected off the operator's near-kernel
    (constants and, in indefinite signature, discrete light-cone modes).
    Flat grids divide by the Laplacian symbol; curved ones solve degrees 0
    and n by fast diagonalization (_green_solve_curved) and raise
    NotImplementedError for an indefinite signature or any other degree.
    A relative residual above GREEN_TOL raises GreenSolveError.  An exactly
    zero source returns zeros and runs no solve; a compact one is broadcast.
    Each solver returns theta, the projected source and its solve count; the
    one SolveReport is built here.  Returns (theta, SolveReport).
    """
    grid, p = source.grid, source.degree
    source = DiscreteForm(grid, p, np.broadcast_to(source.values, source.full_shape))
    if grid.is_flat:
        solve, deflated = _green_solve_flat, _rfft_symbols(grid)[3] * len(source.values)
    else:
        if grid.neg_count != 0:
            raise NotImplementedError("curved metrics are supported only for s = 0")
        if p not in (0, grid.dim):
            raise NotImplementedError(
                f"curved Green solve supports degrees 0 and {grid.dim}, got {p}"
            )
        solve, deflated = _green_solve_curved, _curved_symbols(grid)[2]
    src_norm = _l2(source)
    if src_norm == 0.0:
        return grid.zeros(p), SolveReport(0, 0.0, deflated)
    theta, proj, solves = solve(source)
    res = _l2(laplacian(theta) - proj) / src_norm
    if res > GREEN_TOL:
        raise GreenSolveError(f"Green solve residual {res:.3e} > {GREEN_TOL:.3e}", res, GREEN_TOL)
    return theta, SolveReport(solves, res, deflated)
