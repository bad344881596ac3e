"""Hodge decomposition with cohomology term and residue, the dual cycle
integrals, the cross relations between them, and the quantized norm
budget.

The potentials come from calculus.potentials on every metric; the exact
and coexact terms are the stencil d and delta of the potentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus
from .calculus import sign_C
from .mesh import DiscreteForm, linear_combination, wedge_integral
# Not used here: fdbench/selftest.py checks that its tracer rebinds this name
# in every formdec namespace, decompose included.
from .mesh import integrate_cycle_mean  # noqa: F401


@dataclass
class Decomposition:
    """phi = d(alpha) + delta(beta) + sum_a u_a gamma_a + residue.

    exact and coexact are the terms the reconstruction used.
    reconstruction_error is |residue|_inf / |phi|_inf: the share of phi that
    the exact, coexact and topological terms leave unexplained.
    """

    alpha: object  # (p-1)-form or None when p = 0
    beta: object  # (p+1)-form or None when p = n
    u: np.ndarray
    residue: DiscreteForm
    reconstruction_error: float
    exact: object  # d(alpha), or None
    coexact: object  # delta(beta), or None


def hodge_decompose(phi, basis):
    """Decompose a p-form against a degree-p representative basis.

    The potentials alpha = G(delta phi) and beta = G(d phi) are
    calculus.potentials(phi); u = basis.coefficients(phi) holds the harmonic
    coefficients.  The exact and coexact terms are d(alpha) and delta(beta)
    on the stencils, so on flat grids the residue phi - d(alpha) -
    delta(beta) - sum u_a gamma_a is the part of phi on deflated
    non-constant modes plus the Green residual P phi - Delta G P phi of the
    projection against the stencil Laplacian.
    """
    if basis.degree != phi.degree:
        raise ValueError("basis degree must match the form degree")
    alpha, beta = calculus.potentials(phi)
    exact = None if alpha is None else calculus.d(alpha)
    coexact = None if beta is None else calculus.delta(beta)
    terms = [t for t in (exact, coexact) if t is not None]

    u = basis.coefficients(phi)
    recon = linear_combination(terms + basis.gammas, [1.0] * len(terms) + list(u))
    residue = phi - recon
    err = residue.norm_inf() / max(phi.norm_inf(), 1e-300)
    return Decomposition(alpha, beta, u, residue, err, exact, coexact)


def coexact_potential(beta):
    """beta_m = -(-1)^{C(q)} star(beta) for a q-form beta.

    Rewrites the coexact term as delta(beta) = -star(d(beta_m)).
    """
    grid = beta.grid
    sgn_c = -1.0 if sign_C(beta.degree, grid.dim, grid.neg_count) else 1.0
    return calculus.star(beta) * (-sgn_c)


def topological_sum(E, P, x, y):
    """Discrete duality sum sum_a eps_{a,P(a)} x_a y_{P(a)}."""
    E = np.asarray(E, dtype=float)
    P = np.asarray(P, dtype=int)
    return float(sum(E[a, P[a]] * x[a] * y[P[a]] for a in range(len(x))))


def dual_decompose(phi, basis):
    """Dual cycle integrals v_a = int_{z^{(n-p)}_a} star(phi).

    They are the harmonic coefficients of star(phi) in the dual of the
    degree-p basis.
    """
    if basis.degree != phi.degree:
        raise ValueError("basis degree must match the form degree")
    return basis.dual.coefficients(calculus.star(phi))


def decomposition_residuals(phi, dec, basis):
    """Gauge and residue residuals of a computed decomposition, normalized.

    The cycle residuals are the harmonic coefficients of the exact, coexact
    and residue terms read from `dec`.  A gauge check that cannot apply is
    left out: delta(alpha) of a 0-form alpha and d(beta) of a top form beta
    vanish identically.
    """
    scale = max(phi.norm_inf(), 1e-300)
    out = {}
    if dec.alpha is not None:
        if dec.alpha.degree > 0:
            out["gauge_delta_alpha"] = calculus.delta(dec.alpha).norm_inf() / scale
        out["cycle_of_exact"] = _max_abs(basis.coefficients(dec.exact))
    if dec.beta is not None:
        if dec.beta.degree < phi.grid.dim:
            out["gauge_d_beta"] = calculus.d(dec.beta).norm_inf() / scale
        out["cycle_of_coexact"] = _max_abs(basis.coefficients(dec.coexact))
    out["residue_norm"] = dec.reconstruction_error
    out["residue_cycles"] = _max_abs(basis.coefficients(dec.residue))
    return out


def _max_abs(x):
    return float(np.max(np.abs(x)))


def cross_relation_check(u, v, T, D_parity, T_dual):
    """Residuals of the cycle-integral cross relations.

    forward:    u_a = (-1)^D sum_b tau^{(p)}_{ba} v_b
    reciprocal: v_a = sum_b tau^{(n-p)}_{ba} u_b
    quadrature: w = i T^t w with w = u + i v      (middle degree, odd D)

    The quadrature needs T T = -I, which holds at the middle degree only:
    pass the same T object as T_dual there, and it is left out otherwise.
    Each residual is divided by max(1, max|u|, max|v|), the scale rule of
    NormBreakdown.budget_error.
    """
    quadrature = D_parity % 2 and T_dual is T
    u, v, T, T_dual = (np.asarray(x, dtype=float) for x in (u, v, T, T_dual))
    sgn = -1.0 if D_parity % 2 else 1.0
    out = {"forward": _max_abs(u - sgn * (T.T @ v)), "reciprocal": _max_abs(v - T_dual.T @ u)}
    if quadrature:
        w = u + 1j * v
        out["quadrature"] = _max_abs(w - 1j * (T.T @ w))
    scale = max(1.0, _max_abs(u), _max_abs(v))
    out = {name: res / scale for name, res in out.items()}
    out["max"] = max(out.values())
    return out


@dataclass
class NormBreakdown:
    """(phi,phi) split into exact, coexact, topological and residue terms."""

    exact_term: float
    coexact_term: float
    topological_term: float
    residue_term: float
    total: float
    direct_norm: float

    @property
    def budget_error(self):
        return abs(self.total - self.direct_norm) / max(1.0, abs(self.direct_norm))


def norm_decompose(phi, dec, v, E, P):
    """Quantized norm budget of a decomposed p-form.

    The continuous terms are (d alpha, phi) and (delta beta, phi), read off
    dec.exact and dec.coexact; star(phi) is taken once and shared with the
    direct norm (phi, phi).  The stencil d and delta are adjoint under the
    pairing on every accepted metric, so these equal the paper's
    (alpha, delta phi) and (beta, d phi).  At the middle degree m = n/2 the
    coexact term also equals (-1)^(m+1) (beta_m, delta star phi) with
    beta_m = coexact_potential(beta).  The paper's (-1)^s form agrees with
    it where s = m + 1 (mod 2), as on T^2 with s = 0 and the Minkowski T^4.
    The topological term is the discrete sum over duality pairs,
    sum_a eps_{a,P(a)} u_a v_{P(a)}.
    """
    sphi = calculus.star(phi)
    exact = 0.0 if dec.exact is None else wedge_integral(dec.exact, sphi)
    coexact = 0.0 if dec.coexact is None else wedge_integral(dec.coexact, sphi)
    topological = topological_sum(E, P, dec.u, v)
    residue_term = calculus.pairing(dec.residue, dec.residue)
    total = exact + coexact + topological + residue_term
    direct = wedge_integral(phi, sphi)
    return NormBreakdown(exact, coexact, topological, residue_term, total, direct)
