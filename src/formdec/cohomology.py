"""Normalized cohomology representative bases and the duality matrices.

Builds the strong-harmonic representative set for each degree, whose
cycle integrals are the identity, linked to its dual basis by the
intersection matrix E and the duality permutation P, which also read off
harmonic coefficients; then fills the star-transfer matrix T and the Gram
matrix Lambda, and checks the exact identities relating them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import calculus
from .mesh import DiscreteForm, _mean_along, integrate_cycle_mean, wedge_integral

PAIR_TOL = 1e-8
EXPANSION_TOL = 1e-6


class DualityError(calculus.NumericFailure):
    """Raised when the one-nonzero-per-row pairing structure is not resolved.

    The residual is the largest off-pairing entry of the offending row
    relative to the row maximum (1 when no single pairing can be read off).
    """

    stage = "duality"


class StarExpansionError(calculus.NumericFailure):
    """Raised when star(gamma_a) is not spanned by the dual basis."""

    stage = "star_expansion"


@dataclass
class CohomologyBasis:
    """Harmonic representatives gamma_a of degree p, one per coordinate cycle.

    build_basis also links the degree-(n-p) basis, dual, and sets
    E, P = matrix_E(self, dual).  delta_residual, the relative coderivative
    of the representatives, is None on flat metrics and at degree 0, where
    every stencil difference of the constant seeds is exactly 0.
    """

    degree: int
    betti: int
    gammas: list
    cycles: list  # axis tuple of each coordinate cycle, one per gamma
    normalization_residual: float
    delta_residual: float | None
    E: np.ndarray = field(init=False, repr=False, compare=False)
    P: np.ndarray = field(init=False, repr=False, compare=False)
    # None at the middle degree: a reference to itself would keep the basis
    # alive until the cycle collector runs
    _dual: CohomologyBasis = field(init=False, repr=False, compare=False)

    @property
    def grid(self):
        return self.gammas[0].grid

    @property
    def dual(self):
        """The degree-(n-p) basis; the basis itself at the middle degree."""
        return self if self._dual is None else self._dual

    @functools.cached_property
    def T(self):
        """T^{(n-p)} = matrix_T(self, dual), built on first read and kept."""
        return matrix_T(self, self.dual)

    @functools.cached_property
    def Lambda(self):
        """matrix_Lambda(self), built on first read and kept."""
        return matrix_Lambda(self)

    def coefficients(self, form):
        """Harmonic coefficients c of form = d(a) + delta(b) + sum_a c_a gamma_a.

        Solves E^t c = W with W_b = int form wedge dual.gammas[b] (Poincare
        duality).  The dual forms are closed, so they pair to zero with the
        exact part, and their stars are harmonic, so they pair to zero with
        the coexact part; this holds on any metric.
        """
        if form.degree != self.degree:
            raise ValueError("form degree must match the basis degree")
        # averaged once over the axes along which every dual form is constant
        dual_shape = np.broadcast_shapes(*(g.values.shape for g in self.dual.gammas))
        form = DiscreteForm(form.grid, form.degree, _mean_along(form.values, dual_shape))
        W = np.array([wedge_integral(form, g) for g in self.dual.gammas])
        return np.linalg.solve(self.E.T, W)


def build_basis(grid, p):
    """Degree-p representative basis, linked to its degree-(n-p) dual.

    Both bases are built by _harmonic_basis (the dual is the basis itself at
    the middle degree), and each gets its dual and its E, P against it.
    """
    basis = _harmonic_basis(grid, p)
    basis._dual = None
    if 2 * p != grid.dim:
        dual = _harmonic_basis(grid, grid.dim - p)
        basis._dual, dual._dual = dual, basis
        dual.E, dual.P = matrix_E(dual, basis)
    basis.E, basis.P = matrix_E(basis, basis.dual)
    return basis


def _harmonic_basis(grid, p):
    """Representative basis whose cycle integrals are the identity, in closed form.

    The forms are compact.  On flat metrics, and at degree 0, they are the
    constant forms dx^I / prod(periods).  The embedded-torus metric depends
    on v alone, so du / L_u is closed, and coclosed as its star is a
    function of v times dv; the v form is g_vv / sqrt|g| dv over its
    rectangle-rule cycle integral, closed as it does not depend on u, and
    coclosed as its star is a constant times du.  The top form is
    grid.unit_form().  On curved metrics the coderivative of each form is
    measured: the coefficients read off a dual basis are off by about that
    residual times the coexact part of the form.
    """
    cycles = grid.components_of_degree(p)
    periods = grid.spec.periods
    gammas = [grid.constant_form(p, {z: 1.0 / math.prod(periods[a] for a in z)}) for z in cycles]
    delta_res = None
    if p >= 1 and not grid.is_flat:
        if p == grid.dim:
            gammas = [grid.unit_form()]
        else:
            profile = grid.metric_diag[1] / grid.sqrt_abs_g
            profile = profile / (float(np.sum(profile)) * grid.steps[1])
            gammas[1] = DiscreteForm(grid, 1, np.stack([np.zeros_like(profile), profile]))
        delta_res = max(calculus.delta(g).norm_inf() / max(g.norm_inf(), 1e-300) for g in gammas)
    cycle_matrix = np.array([[integrate_cycle_mean(g, z) for z in cycles] for g in gammas])
    norm_res = float(np.max(np.abs(cycle_matrix - np.eye(len(cycles)))))
    return CohomologyBasis(p, len(cycles), gammas, cycles, norm_res, delta_res)


def matrix_E(basis_p, basis_q):
    """Intersection matrix E_ab = int_M gamma^p_a wedge gamma^{n-p}_b, plus P.

    P is derived from the one-nonzero-per-row rule; an unresolved row
    (two entries above PAIR_TOL relative to the row maximum) is an error.
    """
    grid = basis_p.grid
    if basis_p.degree + basis_q.degree != grid.dim:
        raise ValueError("matrix_E needs complementary degrees")
    beta = basis_p.betti
    E = np.array([[wedge_integral(ga, gb) for gb in basis_q.gammas] for ga in basis_p.gammas])
    P = np.full(beta, -1, dtype=int)
    for a in range(beta):
        row = np.abs(E[a])
        top = row.max()
        if top == 0.0:
            raise DualityError(f"row {a} of E is identically zero", 1.0, PAIR_TOL)
        big = np.flatnonzero(row > PAIR_TOL * top)
        if len(big) != 1:
            raise DualityError(
                f"duality not resolved at this resolution: row {a} has "
                f"{len(big)} entries above tolerance",
                float(np.sort(row)[-2] / top),
                PAIR_TOL,
            )
        P[a] = big[0]
    if sorted(P) != list(range(beta)):
        raise DualityError("pairing permutation is not a bijection", 1.0, PAIR_TOL)
    return E, P


def matrix_T(basis_p, basis_dual):
    """Star-transfer matrix T^{(n-p)}_ab = cycle integral of star(gamma^p_a).

    Also verifies the expansion star(gamma_a) = sum_b T_ab gamma^{n-p}_b,
    which requires the basis to be strong harmonic enough.
    """
    if basis_p.degree + basis_dual.degree != basis_p.grid.dim:
        raise ValueError("matrix_T needs complementary degrees")
    stars = [calculus.star(g) for g in basis_p.gammas]
    T = np.array(
        [[integrate_cycle_mean(sg, z) for z in basis_dual.cycles] for sg in stars]
    )
    worst = 0.0
    for a, sg in enumerate(stars):
        recon = sum(t * g.values for t, g in zip(T[a], basis_dual.gammas))  # compact
        worst = max(worst, float(np.max(np.abs(sg.values - recon))) / max(sg.norm_inf(), 1e-300))
    if worst > EXPANSION_TOL:
        raise StarExpansionError(
            f"star expansion residual {worst:.3e} exceeds {EXPANSION_TOL:.1e}: "
            "basis not strong harmonic enough",
            worst,
            EXPANSION_TOL,
        )
    return T


def matrix_Lambda(basis):
    """Gram matrix Lambda_ab = (gamma_a, gamma_b) under the metric pairing."""
    beta = basis.betti
    L = np.zeros((beta, beta))
    for a in range(beta):
        for b in range(a, beta):
            L[a, b] = calculus.pairing(basis.gammas[a], basis.gammas[b])
            L[b, a] = L[a, b]
    return L


@dataclass
class CheckReport:
    """Max-abs residuals of the matrix identities, plus the reality check (arrays for a stack)."""

    tt_residual: float
    et_residual: float
    lel_residual: float
    reality_residual: float
    det_T: float

    def max_residual(self):
        return np.maximum(np.maximum(self.tt_residual, self.et_residual), self.lel_residual)


def verify_triple(E, T, Lam, D_parity, T_p):
    """The E/T/Lambda identity battery.

      tt:  T T_p - (-1)^D I
      et:  E T^t - Lambda
      lel: Lambda E^-1 Lambda - (-1)^D E   (a middle-degree identity)
      reality: |det T|^2 - (-1)^{beta D}

    At the middle degree a single T maps the basis to itself: pass T_p = T.
    For a complementary pair, T is T^{(n-p)} and T_p is T^{(p)}.  Stacks
    (..., beta, beta) of triples are checked at once, each residual reduced
    over the last two axes; a singular E anywhere in the stack raises.
    """
    E, T, T_p, Lam = (np.asarray(M, dtype=float) for M in (E, T, T_p, Lam))
    beta = E.shape[-1]
    sgn = -1.0 if D_parity % 2 else 1.0
    tt = np.max(np.abs(T @ T_p - sgn * np.eye(beta)), axis=(-2, -1))
    et = np.max(np.abs(E @ np.swapaxes(T, -1, -2) - Lam), axis=(-2, -1))
    # scale-free: det(E / max|E|) = det(E) / max|E|^beta
    scale = np.max(np.abs(E), axis=(-2, -1), keepdims=True)
    if np.any(scale == 0.0) or np.any(np.abs(np.linalg.det(E / scale)) < 1e-300):
        raise np.linalg.LinAlgError("singular E matrix")
    lel = np.max(np.abs(Lam @ np.linalg.inv(E) @ Lam - sgn * E), axis=(-2, -1))
    det_T = np.linalg.det(T)
    reality = np.abs(det_T**2 - (-1.0) ** ((beta * D_parity) % 2))
    return CheckReport(*(float(x) if E.ndim == 2 else x for x in (tt, et, lel, reality, det_T)))


def verify_pair(basis):
    """verify_triple on a basis and its dual.

    Reads E, T = T^{(n-p)}, T_p = dual.T = T^{(p)} and Lambda off the linked
    bases, so T is built once at the middle degree, where the dual is the
    basis itself, and a second call builds no matrix.  Returns the
    CheckReport; the matrices stay on the basis.  lel is a middle-degree
    identity.  E's transpose rule E^{(p)} = (-1)^{(n-p)p} (E^{(n-p)})^t is
    not checked: every basis form has one nonzero component, so both sides
    sum the same products and it reads 0.
    """
    grid = basis.grid
    Dpar = calculus.sign_D(basis.degree, grid.dim, grid.neg_count)
    return verify_triple(basis.E, basis.T, basis.Lambda, Dpar, basis.dual.T)
