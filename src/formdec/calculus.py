"""Signature-aware Hodge star, exterior derivative, coderivative,
Laplace-Beltrami operator, bilinear pairing, and a minimum-norm Green solver.

Derivatives use periodic eighth-order central-difference stencils.
On flat metrics each stencil partial is circulant with Fourier symbol
i sigma_a, sigma_a = 2 sum_j c_j sin(j k_a h_a)/h_a (coefficients c_j after
Fornberg, Math. Comp. 51, 1988; symbol as in Trefethen, Spectral Methods in
MATLAB, 2000, ch. 3), cached per axis on the grid.  The Laplacian is then a
convolution with the symbol sum_a s_a sigma_a^2, the same for every degree
and component.  The flat Green solve divides by that symbol exactly;
near-null modes (constants, and light-cone modes in indefinite signature)
are deflated and the minimum-norm solution returned.  flat_potentials gives
the Hodge potentials G(delta phi) and G(d phi) as one real-FFT projection,
with d and star applied to the spectra by the same bookkeeping as the
stencil operators.  On curved Riemannian metrics a MINRES iteration on the
symmetrized operator is used, preconditioned by the inverse of the flat
symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import DiscreteForm, merge_sign, wedge_integral

DEFLATION_TOL = 1e-10
MAX_MINRES_ITERS = 5000

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
    """Periodic central-difference partial derivative along one axis.

    out_i = sum_{j=1..m} c_j (x_{i+j} - x_{i-j}) / h with m = 4, summed in
    that order.  The array is padded once by wrapping m planes onto each
    end (GridSpec keeps N >= 4 = m), and every shifted x is a slice of it.
    """
    m = len(_STENCIL)
    N = arr.shape[axis]
    padded = np.concatenate(
        (_axis_slice(arr, axis, N - m, N), arr, _axis_slice(arr, axis, 0, m)), axis=axis
    )
    out = np.zeros_like(arr)
    tmp = np.empty_like(arr)
    for j, c in enumerate(_STENCIL, start=1):
        np.subtract(
            _axis_slice(padded, axis, m + j, m + j + N),
            _axis_slice(padded, axis, m - j, m - j + N),
            out=tmp,
        )
        tmp *= c
        out += tmp
    out /= grid.steps[axis]
    return out


def _axis_slice(arr, axis, start, stop):
    index = [slice(None)] * arr.ndim
    index[axis] = slice(start, stop)
    return arr[tuple(index)]


def d(f: DiscreteForm) -> DiscreteForm:
    """Exterior derivative via antisymmetrized partial-derivative stencils."""
    grid = f.grid
    if f.degree >= grid.dim:
        raise ValueError("cannot take d of a top-degree form")
    out = grid.zeros(f.degree + 1)
    _add_d(out.components, f.components, grid.dim, lambda comp, a: partial(comp, a, grid))
    return out


def _add_d(out, components, n, deriv):
    """Add the terms of d to the components `out`, keyed like a (p+1)-form.

    deriv(f_I, a) stands for the partial of component I along axis a; the
    term goes to K = sorted(I + (a,)) with the sign of merging a into I.
    Shared by the stencil d and the Fourier-space one of flat_potentials.
    """
    for I, comp in components.items():
        for a in range(n):
            if a in I:
                continue
            K = tuple(sorted(I + (a,)))
            if merge_sign((a,), I) > 0:
                out[K] += deriv(comp, a)
            else:
                out[K] -= deriv(comp, a)


def star(f: DiscreteForm) -> DiscreteForm:
    """Hodge star: pointwise diagonal map for diagonal metrics.

    Component I goes to the complementary tuple with coefficient
    sign(perm(I, Ic)) * sqrt|g| * prod_{i in I}(signature_i / g_ii).
    """
    grid = f.grid
    out = DiscreteForm(grid, grid.dim - f.degree, np.empty_like(f.values))
    for I, Ic, coeff in _star_terms(grid, f.degree):
        np.multiply(coeff, f.components[I], out=out.components[Ic])
    return out


def _star_terms(grid, p):
    """(I, Ic, coefficient) of star on each degree-p component."""
    n = grid.dim
    for I in grid.components_of_degree(p):
        Ic = tuple(a for a in range(n) if a not in I)
        coeff = merge_sign(I, Ic) * grid.sqrt_abs_g
        for i in I:
            coeff = coeff * (grid.signature[i] / grid.metric_diag[i])
        yield I, Ic, coeff


def delta(f: DiscreteForm) -> DiscreteForm:
    """Coderivative (-1)^{C(p)} star d star."""
    grid = f.grid
    if f.degree == 0:
        raise ValueError("coderivative of a 0-form is undefined")
    sgn = -1.0 if sign_C(f.degree, grid.dim, grid.neg_count) else 1.0
    return star(d(star(f))) * sgn


def laplacian(f: DiscreteForm) -> DiscreteForm:
    """Laplace-Beltrami operator, delta d + d delta (invalid halves dropped)."""
    if f.degree == 0:
        return delta(d(f))
    if f.degree == f.grid.dim:
        return d(delta(f))
    return delta(d(f)) + d(delta(f))


def pairing(a: DiscreteForm, b: DiscreteForm) -> float:
    """Bilinear integral (a, b) = int_M a wedge star(b); symmetric."""
    if a.degree != b.degree:
        raise ValueError("pairing needs forms of equal degree")
    return wedge_integral(a, star(b))


# ---------------------------------------------------------------------------
# Green solver
# ---------------------------------------------------------------------------


def laplacian_symbol(grid):
    """Fourier symbol of the flat-metric Laplacian, in fftn layout.

    The stencil partial along axis a has symbol i sigma_a (_axis_symbols).
    The stencils commute, so on a flat diagonal metric the Laplacian acts on
    every component of every degree as -sum_a s_a partial_a^2, with symbol
    sum_a s_a sigma_a^2.  Only the shape, steps and signature of the grid
    enter.
    """
    cache = grid._symbol_cache
    if "laplacian" not in cache:
        cache["laplacian"] = _symbol_sum(grid, _axis_symbols(grid))
    return cache["laplacian"]


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
        cache["sigma"] = tuple(sigmas)
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


def _rfft_symbols(grid):
    """The flat symbols in rfftn layout, cached on the grid.

    Returns (i sigma_a per axis, broadcastable; the deflation mask; the
    masked inverse G of the Laplacian symbol; the number of deflated modes
    of one component).  The last axis keeps the first N//2 + 1 entries of
    its sigma; the mask is the one of the full fftn layout, which is
    symmetric under k -> -k, so each interior plane of the last axis stands
    for two modes in the count.
    """
    cache = grid._symbol_cache
    if "rfft" not in cache:
        sigmas = list(_axis_symbols(grid))
        sigmas[-1] = sigmas[-1][: grid.shape[-1] // 2 + 1]
        isig = [
            1j * sig.reshape(_axis_shape(grid.dim, a, len(sig))) for a, sig in enumerate(sigmas)
        ]
        sym = _symbol_sum(grid, sigmas)
        mask = np.abs(sym) <= DEFLATION_TOL * float(np.max(np.abs(sym)))
        green = np.where(mask, 0.0, 1.0 / np.where(mask, 1.0, sym))
        deflated = 2 * int(mask.sum()) - int(mask[..., 0].sum()) - int(mask[..., -1].sum())
        cache["rfft"] = (isig, mask, green, deflated)
    return cache["rfft"]


def _rfftn(values, grid):
    return np.fft.rfftn(values, axes=range(1, grid.dim + 1))


def _irfftn(spectra, grid):
    return np.fft.irfftn(spectra, s=grid.shape, axes=range(1, grid.dim + 1))


def _green_form(grid, degree, spectra, green):
    """G(source) as a form, from the stacked rfftn spectra of the source.

    The spectra are multiplied by G in place, then inverted in one irfftn.
    """
    spectra *= green
    return DiscreteForm(grid, degree, _irfftn(spectra, grid))


def flat_potentials(phi):
    """alpha = G(delta phi) and beta = G(d phi) of a p-form on a flat grid.

    G is the minimum-norm Green operator of green_solve.  On a flat metric
    the stencils are circulant, so this is symbol algebra on the real FFT
    of phi: the spectra go through the index and sign bookkeeping of d and
    star (_add_d, _star_terms) with each stencil partial replaced by its
    symbol i sigma_a, and G multiplies by the masked inverse of the
    Laplacian symbol.  One rfftn of the stacked components of phi, one
    irfftn each of the stacked components of alpha and beta.  alpha is None
    when p = 0 and beta when p = n.
    """
    grid, p = phi.grid, phi.degree
    n = grid.dim
    isig, _, green, _ = _rfft_symbols(grid)
    term = np.empty(green.shape, complex)

    def keyed(spectra, q):
        return dict(zip(grid.components_of_degree(q), spectra))

    def isig_times(comp, a):
        return np.multiply(isig[a], comp, out=term)

    def d_hat(spectra, q):
        out = np.zeros((math.comb(n, q + 1),) + green.shape, complex)
        _add_d(keyed(out, q + 1), keyed(spectra, q), n, isig_times)
        return out

    def star_hat(spectra, q, scale=1.0):
        # in place: no spectrum is used again once starred; the complements of
        # the sorted degree-q tuples are the sorted degree-(n-q) ones reversed
        for spec, (_, _, coeff) in zip(spectra, _star_terms(grid, q)):
            np.multiply(spec, coeff * scale, out=spec)
        return spectra[::-1]

    phat = _rfftn(phi.values, grid)
    beta_hat = d_hat(phat, p) if p < n else None
    if p > 0:
        sgn = -1.0 if sign_C(p, n, grid.neg_count) else 1.0
        alpha_hat = star_hat(d_hat(star_hat(phat, p), n - p), n - p + 1, sgn)
    del phat
    alpha = _green_form(grid, p - 1, alpha_hat, green) if p > 0 else None
    beta = _green_form(grid, p + 1, beta_hat, green) if p < n else None
    return alpha, beta


def _component_weights(grid, p):
    """Positive diagonal weights of the metric pairing, stacked per component."""
    weights = []
    for I in grid.components_of_degree(p):
        w = grid.sqrt_abs_g
        for i in I:
            w = w / grid.metric_diag[i]
        weights.append(w)
    return np.stack(weights)


def _green_solve_flat(source, tol):
    grid = source.grid
    p = source.degree
    _, mask, green, deflated = _rfft_symbols(grid)
    deflated *= len(source.values)
    spectra = _rfftn(source.values, grid)
    proj = DiscreteForm(grid, p, _irfftn(np.where(mask, 0.0, spectra), grid))
    theta = _green_form(grid, p, spectra, green)
    src_norm = _l2(source)
    if src_norm == 0.0:
        return theta, SolveReport(0, 0.0, deflated)
    res = _l2(laplacian(theta) - proj) / src_norm
    if res > tol:
        raise GreenSolveError(f"flat Green solve residual {res:.3e} > {tol:.3e}", res, tol)
    return theta, SolveReport(1, res, deflated)


def _l2(form):
    return math.sqrt(sum(float(np.sum(a * a)) for a in form.components.values()))


def _green_solve_curved(source, tol):
    # imported here: only this solve needs it, and it is most of the import
    # time of the package
    from scipy.sparse import linalg as spla

    grid = source.grid
    if grid.neg_count != 0:
        raise NotImplementedError("curved metrics are supported only for s = 0")
    p = source.degree
    sqw = np.sqrt(_component_weights(grid, p))
    shape = source.values.shape
    size = source.values.size
    axes = range(1, grid.dim + 1)

    def to_vec(form):
        return (form.values * sqw).ravel()

    def to_form(vec):
        return DiscreteForm(grid, p, vec.reshape(shape) / sqw)

    def matvec(vec):
        return to_vec(laplacian(to_form(vec)))

    # only the constant 0-form is deflated (as a unit vector in the
    # symmetrized coordinates): the sources solved at higher degree, d or
    # delta of a form, are already orthogonal to the harmonic forms
    kvecs = []
    if p == 0:
        const = to_vec(grid.constant_form(0, {(): 1.0}))
        kvecs.append(const * (1.0 / math.sqrt(np.dot(const, const))))

    def deflate(vec):
        for k in kvecs:
            vec = vec - k * np.dot(k, vec)
        return vec

    # preconditioner: flat symbol inverse; near-null modes are clipped to
    # the smallest invertible symbol so M stays positive definite without
    # wildly amplifying the (already deflated) kernel directions
    abs_sym = np.abs(laplacian_symbol(grid))
    floor = float(np.min(abs_sym[abs_sym > DEFLATION_TOL * float(np.max(abs_sym))]))
    inv_sym = 1.0 / np.clip(abs_sym, floor, None)

    def precond(vec):
        # no deflation here: minres needs a symmetric positive definite M
        spectra = np.fft.fftn(vec.reshape(shape), axes=axes) * inv_sym
        return np.fft.ifftn(spectra, axes=axes).real.ravel()

    b = deflate(to_vec(source))
    b_norm = np.linalg.norm(b)
    src_norm = np.linalg.norm(to_vec(source))
    if src_norm == 0.0 or b_norm <= 1e-15 * max(src_norm, 1.0):
        return grid.zeros(p), SolveReport(0, 0.0, len(kvecs))

    A = spla.LinearOperator((size, size), matvec=lambda v: deflate(matvec(deflate(v))))
    M = spla.LinearOperator((size, size), matvec=precond)
    iters = [0]

    def cb(_):
        iters[0] += 1

    # minres stops on the preconditioned residual, which can undershoot
    # the true one; restart with a tighter target until the contract holds
    rtol = tol * 1e-2
    x = None
    res = math.inf
    theta = None
    for _ in range(6):
        try:
            x, _ = spla.minres(
                A, b, M=M, rtol=rtol, maxiter=MAX_MINRES_ITERS, x0=x, callback=cb
            )
        except TypeError:  # scipy < 1.12 spells the tolerance 'tol'
            x, _ = spla.minres(
                A, b, M=M, tol=rtol, maxiter=MAX_MINRES_ITERS, x0=x, callback=cb
            )
        x = deflate(x)
        theta = to_form(x)
        res = _l2(laplacian(theta) - to_form(b)) / _l2(source)
        if res <= tol or iters[0] >= MAX_MINRES_ITERS:
            break
        rtol *= 1e-2
    if res > tol:
        raise GreenSolveError(
            f"Green solve did not reach tol={tol:.1e} after {iters[0]} iterations "
            f"(best residual {res:.3e})",
            res,
            tol,
        )
    return theta, SolveReport(iters[0], res, len(kvecs))


def green_solve(source, tol=1e-10):
    """Minimum-norm solve of (laplacian theta) = source with kernel deflation.

    The source is first projected off the operator's near-kernel
    (constants and, in indefinite signature, discrete light-cone modes).
    Returns (theta, SolveReport).
    """
    if source.grid.is_flat:
        return _green_solve_flat(source, tol)
    return _green_solve_curved(source, tol)
