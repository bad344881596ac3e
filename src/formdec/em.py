"""Electromagnetism on a Minkowski 4-torus: topological charges,
continuous currents, the double potential, and the quantized action
budget.

Units set the vacuum permeability and the speed of light to 1 throughout;
only lambda_scale takes the SI constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calculus, decompose
from .mesh import integrate_cycle_mean

MINKOWSKI = (-1, 1, 1, 1)  # the signature, time axis first


def require_minkowski(grid):
    """Flat 4-torus with signature MINKOWSKI."""
    if grid.dim != 4 or not grid.is_flat or grid.signature != MINKOWSKI:
        raise ValueError(
            "electromagnetic field needs a flat 4-torus with signature (-1,1,1,1)"
        )


@dataclass
class ChargeSet:
    qM: np.ndarray
    qE: np.ndarray


@dataclass
class ActionBreakdown:
    electric_term: float
    magnetic_term: float
    quantized_term: float
    total: float
    lagrangian_total: float  # -(F,F) - (AE,JE) - (AM,JM)

    @property
    def cross_check_residual(self):
        return abs(self.total - self.lagrangian_total) / max(1.0, abs(self.lagrangian_total))


def charges(F, basis2):
    """Topological charges: qM_a = int_{z_a} F, qE_a = int_{z_a} *F.

    These are the cycle integrals u and dual integrals v of F at p = 2.  The
    offset average gives qM for a closed F; *F need not be closed, so qE is
    read off the wedge pairing by dual_decompose.
    """
    qM = np.array([integrate_cycle_mean(F, z) for z in basis2.cycles])
    return ChargeSet(qM, decompose.dual_decompose(F, basis2))


def currents(F):
    """Continuous sources: JE = delta(F), JM = -delta(*F)."""
    return calculus.delta(F), -calculus.delta(calculus.star(F))


def potentials(F, basis2):
    """Double potential (AE, AM) plus the underlying decomposition.

    The Hodge decomposition of F at p = 2 gives AE = alpha; its coexact
    part delta(beta) is rewritten as -star(d AM) with AM = coexact_potential(beta).
    Reconstruction: F = d AE - star(d AM) + sum_a u_a gamma_a + residue.
    """
    require_minkowski(F.grid)
    dec = decompose.hodge_decompose(F, basis2)
    return dec.alpha, decompose.coexact_potential(dec.beta), dec


def charge_relations(qM, qE, T2):
    """Residuals of qM = -T^t qE, qE = T^t qM, and the quadrature form
    q = i T^t q with q = qM + i qE.

    These are the cross relations of F at p = 2, where D(2) = 4 + s is odd.
    """
    rel = decompose.cross_relation_check(qM, qE, T2, 1, T_dual=T2)
    return {
        "magnetic_from_electric": rel["forward"],
        "electric_from_magnetic": rel["reciprocal"],
        "quadrature": rel["quadrature"],
        "max": rel["max"],
    }


def action(F, AE, AM, JE, JM, charge_set, E2, P):
    """Quantized action budget.

    S = -2(AE,JE) - 2(AM,JM) - sum_a eps_{a,P(a)} qM_a qE_{P(a)},
    cross-checked against S = -(F,F) - (AE,JE) - (AM,JM).
    """
    pe = calculus.pairing(AE, JE)
    pm = calculus.pairing(AM, JM)
    s_d = -decompose.topological_sum(E2, P, charge_set.qM, charge_set.qE)
    electric, magnetic = -2.0 * pe, -2.0 * pm
    lagrangian = -calculus.pairing(F, F) - pe - pm
    return ActionBreakdown(electric, magnetic, s_d, electric + magnetic + s_d, lagrangian)


def maxwell_residuals(F, JE, JM):
    """Normalized residuals of d*F = *JE and dF = *JM.

    With JE, JM = currents(F) both residuals are zero by construction:
    currents() defines JE and JM from delta(F) and delta(*F), and on the
    flat Minkowski metric star only permutes components and flips signs, so
    this re-applies star-star and compares a field with itself exactly.  It
    measures something only for currents obtained independently of F.
    """
    scale = max(F.norm_inf(), 1e-300)
    r1 = (calculus.d(calculus.star(F)) - calculus.star(JE)).norm_inf() / scale
    r2 = (calculus.d(F) - calculus.star(JM)).norm_inf() / scale
    return {"electric": r1, "magnetic": r2}


def induced_magnetic_charges(qE, eps12, lam1, lam2):
    """S2.1.1 charge relation qM = -(1/eps12) [[0, lam2], [lam1, 0]] qE.

    Requires the group constraint lam1 lam2 = -eps12^2.
    """
    if eps12 == 0:
        raise ValueError("eps12 must be nonzero")
    if abs(lam1 * lam2 + eps12 * eps12) > 1e-10 * max(abs(eps12 * eps12), 1.0):
        raise ValueError("S2.1.1 constraint lam1*lam2 = -eps12^2 violated")
    qE = np.asarray(qE, dtype=float)
    M = np.array([[0.0, lam2], [lam1, 0.0]]) / (-eps12)
    return M @ qE


def monopole_dipole(qM, qE):
    """Residual of (m^M)^2 - (d^M)^2 + (m^E)^2 - (d^E)^2 = 0.

    m = q1 + q2 is the monopole (net) charge, d = q1 - q2 the dipole one;
    the identity holds for charge pairs linked by the S2.1.1 relation.
    """
    qM = np.asarray(qM, dtype=float)
    qE = np.asarray(qE, dtype=float)
    mM, dM = qM[0] + qM[1], qM[0] - qM[1]
    mE, dE = qE[0] + qE[1], qE[0] - qE[1]
    return float(abs(mM**2 - dM**2 + mE**2 - dE**2))


def lambda_scale(action_quantum, elementary_charge, mu0, c):
    """Dimensionless Gram scale h / (mu0 c e^2) = 1/(2 alpha)."""
    for name, val in (
        ("action_quantum", action_quantum),
        ("elementary_charge", elementary_charge),
        ("mu0", mu0),
        ("c", c),
    ):
        if val <= 0:
            raise ValueError(f"{name} must be positive")
    return action_quantum / (mu0 * c * elementary_charge**2)
