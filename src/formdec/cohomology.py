"""Normalized cohomology representative bases and the duality matrices.

Builds the strong-harmonic representative set for each degree, whose
cycle integrals are the identity, linked to its dual basis by the
intersection matrix E and the duality permutation P, which also read off
harmonic coefficients; then fills the star-transfer matrix T and the Gram
matrix Lambda, and checks the exact identities relating them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import calculus
from .mesh import integrate_cycle_mean, linear_combination, wedge_integral

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
    E, P = matrix_E(self, dual).  The closure residuals are None where no
    projection ran (flat metrics, degree 0): there every stencil difference
    of the constant seeds is exactly 0.  d_residual is None at the top degree.
    """

    degree: int
    betti: int
    gammas: list
    cycles: list  # axis tuple of each coordinate cycle, one per gamma
    normalization_residual: float
    d_residual: float | None
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

    def coefficients(self, form):
        """Harmonic coefficients c of form = d(a) + delta(b) + sum_a c_a gamma_a.

        Solves E^t c = W with W_b = int form wedge dual.gammas[b] (Poincare
        duality).  The dual forms are closed, so they pair to zero with the
        exact part, and their stars are harmonic, so they pair to zero with
        the coexact part; this holds on any metric.
        """
        if form.degree != self.degree:
            raise ValueError("form degree must match the basis degree")
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
    """Representative basis whose cycle integrals are the identity.

    Seeds are the constant coordinate forms dx^I / prod(periods), whose
    cycle integrals are the identity.  On curved metrics each seed of
    degree >= 1 is harmonically projected (seed -> seed - d(G(delta seed)))
    at most three times, until its coderivative is below 1e-12 relative;
    d(G(...)) is exact and adds no cycle integral.  The coefficients read
    off a dual basis are off by about that residual times the coexact part
    of the form, hence the tight bound.
    """
    cycles = grid.components_of_degree(p)
    project = p >= 1 and not grid.is_flat
    gammas, d_res, delta_res = [], [], []
    for z in cycles:
        scale = 1.0 / math.prod(grid.spec.periods[a] for a in z)
        gamma = grid.constant_form(p, {z: scale})
        if project:
            rough = calculus.delta(gamma)
            for _ in range(3):
                if rough.norm_inf() <= 1e-12 * max(gamma.norm_inf(), 1e-300):
                    break
                alpha, _ = calculus.green_solve(rough, tol=1e-11)
                gamma = gamma - calculus.d(alpha)
                rough = calculus.delta(gamma)
            size = max(gamma.norm_inf(), 1e-300)
            delta_res.append(rough.norm_inf() / size)
            if p < grid.dim:
                d_res.append(calculus.d(gamma).norm_inf() / size)
        gammas.append(gamma)
    cycle_matrix = np.array([[integrate_cycle_mean(g, z) for z in cycles] for g in gammas])
    norm_res = float(np.max(np.abs(cycle_matrix - np.eye(len(cycles)))))
    closure = (max(d_res, default=None), max(delta_res, default=None))
    return CohomologyBasis(p, len(cycles), gammas, cycles, norm_res, *closure)


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
        recon = linear_combination(basis_dual.gammas, T[a])
        scale = max(sg.norm_inf(), 1e-300)
        worst = max(worst, (sg - recon).norm_inf() / scale)
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
    """Max-abs residuals of the matrix identities, plus the reality check."""

    tt_residual: float
    et_residual: float
    lel_residual: float
    reality_residual: float
    det_T: float

    def max_residual(self):
        return max(self.tt_residual, self.et_residual, self.lel_residual)


def verify_triple(E, T, Lam, D_parity, T_p=None):
    """The E/T/Lambda identity battery.

      tt:  T T_p - (-1)^D I
      et:  E T^t - Lambda
      lel: Lambda E^-1 Lambda - (-1)^D E   (a middle-degree identity)
      reality: |det T|^2 - (-1)^{beta D}

    At the middle degree a single T maps the basis to itself and T_p = T.
    For a complementary pair, T is T^{(n-p)} and T_p is T^{(p)}.
    """
    E = np.asarray(E, dtype=float)
    T = np.asarray(T, dtype=float)
    T_p = T if T_p is None else np.asarray(T_p, dtype=float)
    Lam = np.asarray(Lam, dtype=float)
    beta = E.shape[0]
    sgn = -1.0 if D_parity % 2 else 1.0
    eye = np.eye(beta)
    tt = float(np.max(np.abs(T @ T_p - sgn * eye)))
    et = float(np.max(np.abs(E @ T.T - Lam)))
    if abs(np.linalg.det(E)) < 1e-300:
        raise np.linalg.LinAlgError("singular E matrix")
    lel = float(np.max(np.abs(Lam @ np.linalg.inv(E) @ Lam - sgn * E)))
    det_T = float(np.linalg.det(T))
    reality = abs(det_T**2 - (-1.0) ** ((beta * D_parity) % 2))
    return CheckReport(tt, et, lel, reality, det_T)


def verify_pair(basis):
    """verify_triple on a basis and its dual.

    Reads E and P off the linked bases; T is built once at the middle
    degree, where the dual is the basis itself.  Returns (matrices,
    residuals).  The residuals are tt, et and, at the middle degree only,
    lel from verify_triple.  E's transpose rule E^{(p)} = (-1)^{(n-p)p}
    (E^{(n-p)})^t is not checked: every basis form has one nonzero
    component, so both sides sum the same products and it reads 0.
    """
    grid, dual = basis.grid, basis.dual
    n, p = grid.dim, basis.degree
    Dpar = calculus.sign_D(p, n, grid.neg_count)
    T_dual = matrix_T(basis, dual)  # T^{(n-p)}
    T_p = T_dual if dual is basis else matrix_T(dual, basis)  # T^{(p)}
    Lam = matrix_Lambda(basis)
    chk = verify_triple(basis.E, T_dual, Lam, Dpar, T_p)
    residuals = {"tt": chk.tt_residual, "et": chk.et_residual}
    if p * 2 == n:
        residuals["lel"] = chk.lel_residual
    matrices = dict(E=basis.E, E_dual=dual.E, T_dual=T_dual, T=T_p, Lambda=Lam, P=basis.P)
    return matrices, residuals


def star_proportionality_residual(basis_p, basis_dual, E, P, Lam):
    """Orthogonal-basis corollary: star(gamma_a) = (lambda_a / eps_{a,P(a)}) gamma_{P(a)}.

    Only meaningful when Lambda is diagonal within tolerance.
    """
    worst = 0.0
    for a, g in enumerate(basis_p.gammas):
        target = basis_dual.gammas[P[a]] * (Lam[a, a] / E[a, P[a]])
        worst = max(worst, (calculus.star(g) - target).norm_inf())
    return worst
