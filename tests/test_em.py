import math

import numpy as np
import pytest

from formdec import calculus, cohomology, decompose, em, fields
from formdec.em import (
    action,
    charge_relations,
    charges,
    currents,
    induced_magnetic_charges,
    lambda_scale,
    maxwell_residuals,
    monopole_dipole,
    potentials,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def setup(t4_mink):
    basis2 = cohomology.build_basis(t4_mink, 2)
    E2, P = cohomology.matrix_E(basis2, basis2)
    T2 = cohomology.matrix_T(basis2, basis2)
    return t4_mink, basis2, E2, P, T2


def test_assemble_rejects_wrong_grid(t2_flat):
    with pytest.raises(ValueError):
        em.require_minkowski(t2_flat)


def test_charges_worked_case(setup):
    grid, basis2, E2, P, T2 = setup
    F = fields.em_preset("topological", basis2, None)
    cs = charges(F, basis2)
    comps = grid.components_of_degree(2)
    i01, i23 = comps.index((0, 1)), comps.index((2, 3))
    expect_m = np.zeros(6)
    expect_m[i01] = 1.0
    expect_e = np.zeros(6)
    expect_e[i23] = -1.0
    assert np.allclose(cs.qM, expect_m, atol=1e-12)
    assert np.allclose(cs.qE, expect_e, atol=1e-12)


def test_charges_two_classes(setup):
    grid, basis2, E2, P, T2 = setup
    F = fields.em_preset("topological", basis2, [(1.0, (0, 1)), (2.0, (2, 3))])
    cs = charges(F, basis2)
    comps = grid.components_of_degree(2)
    i01, i23 = comps.index((0, 1)), comps.index((2, 3))
    assert abs(cs.qM[i01] - 1.0) < 1e-12 and abs(cs.qM[i23] - 2.0) < 1e-12
    # star swaps the classes: *gamma01 = -gamma23, *gamma23 = gamma01
    assert abs(cs.qE[i01] - 2.0) < 1e-12 and abs(cs.qE[i23] + 1.0) < 1e-12


def test_charges_of_exact_field_vanish(setup):
    grid, basis2, E2, P, T2 = setup
    F = fields.em_preset("exact", basis2, None)
    cs = charges(F, basis2)
    assert float(np.max(np.abs(cs.qM))) < 1e-10
    assert float(np.max(np.abs(cs.qE))) < 1e-10


def test_current_continuity(setup):
    grid, basis2, E2, P, T2 = setup
    F = fields.em_preset("mixed", basis2, None)
    JE, JM = currents(F)
    scale = max(F.norm_inf(), 1.0)
    assert calculus.delta(JE).norm_inf() / scale < 1e-8
    assert calculus.delta(JM).norm_inf() / scale < 1e-8


def test_potentials_cohomological_field(setup):
    grid, basis2, E2, P, T2 = setup
    F = fields.em_preset("topological", basis2, None)
    AE, AM, dec = potentials(F, basis2)
    assert AE.norm_inf() < 1e-10
    assert AM.norm_inf() < 1e-10
    assert dec.reconstruction_error < 1e-10


def test_potentials_reconstruct_exact_field(setup):
    grid, basis2, E2, P, T2 = setup
    F = fields.em_preset("exact", basis2, None)
    AE, AM, dec = potentials(F, basis2)
    assert dec.reconstruction_error <= 1e-7
    assert float(np.max(np.abs(dec.u))) < 1e-10


def test_potentials_mixed_linearity(setup):
    grid, basis2, E2, P, T2 = setup
    Fm = fields.em_preset("mixed", basis2, None)
    Fe = fields.em_preset("exact", basis2, None)
    AEm, AMm, decm = potentials(Fm, basis2)
    AEe, AMe, dece = potentials(Fe, basis2)
    assert (AEm - AEe).norm_inf() < 1e-8
    assert (AMm - AMe).norm_inf() < 1e-8
    assert decm.reconstruction_error <= 1e-7


def test_lightcone_field_is_all_residue(setup):
    # F = d(cos(x0 + x1) dx2) is built from a discrete light-cone mode: the
    # Green solves deflate it and its cycle integrals vanish, so all of F is
    # residue and the reconstruction error reads 1, from either entry point
    grid, basis2, E2, P, T2 = setup
    A = grid.zeros(1)
    A.components[(2,)][:] = np.cos(grid.coords[0] + grid.coords[1])
    F = calculus.d(A)
    dec = decompose.hodge_decompose(F, basis2)
    assert abs(dec.reconstruction_error - 1.0) < 1e-12
    _, _, dec_em = potentials(F, basis2)
    assert abs(dec_em.reconstruction_error - 1.0) < 1e-12


def test_magnetic_potential_rewrites_coexact_part(setup):
    # -star(d AM) is the coexact term delta(beta) of the decomposition
    grid, basis2, E2, P, T2 = setup
    F = fields.random_trig_form(grid, 2, np.random.default_rng(3))
    AE, AM, dec = potentials(F, basis2)
    coexact = calculus.delta(dec.beta)
    assert coexact.norm_inf() > 1.0
    rewritten = -calculus.star(calculus.d(AM))
    assert (rewritten - coexact).norm_inf() <= 1e-14 * coexact.norm_inf()
    assert (calculus.d(AE) - calculus.d(dec.alpha)).norm_inf() == 0.0


def test_charge_relations_worked_case(setup):
    grid, basis2, E2, P, T2 = setup
    F = fields.em_preset("topological", basis2, None)
    cs = charges(F, basis2)
    res = charge_relations(cs.qM, cs.qE, T2)
    assert res["max"] <= 1e-10


def test_action_worked_case(setup):
    grid, basis2, E2, P, T2 = setup
    F = fields.em_preset("topological", basis2, None)
    cs = charges(F, basis2)
    JE, JM = currents(F)
    AE, AM, _ = potentials(F, basis2)
    br = action(F, AE, AM, JE, JM, cs, E2, P)
    assert abs(br.quantized - 1.0) < 1e-10  # S_d = -sum eps qM qE = 1
    assert abs(br.electric) < 1e-10 and abs(br.magnetic) < 1e-10
    assert abs(br.total - 1.0) < 1e-10
    assert br.cross_check_residual < 1e-10


def test_action_scales_quadratically(setup):
    grid, basis2, E2, P, T2 = setup
    F1 = fields.em_preset("topological", basis2, [(1.0, (0, 1))])
    F2 = fields.em_preset("topological", basis2, [(2.0, (0, 1))])
    outs = []
    for F in (F1, F2):
        cs = charges(F, basis2)
        JE, JM = currents(F)
        AE, AM, _ = potentials(F, basis2)
        outs.append(action(F, AE, AM, JE, JM, cs, E2, P).quantized)
    assert abs(outs[1] - 4.0 * outs[0]) < 1e-10


def test_action_of_exact_field(setup):
    grid, basis2, E2, P, T2 = setup
    F = fields.em_preset("exact", basis2, None)
    cs = charges(F, basis2)
    JE, JM = currents(F)
    AE, AM, _ = potentials(F, basis2)
    br = action(F, AE, AM, JE, JM, cs, E2, P)
    assert abs(br.quantized) < 1e-10
    assert br.cross_check_residual < 1e-7


def test_maxwell_residuals(setup):
    grid, basis2, E2, P, T2 = setup
    F = fields.em_preset("mixed", basis2, None)
    JE, JM = currents(F)
    res = maxwell_residuals(F, JE, JM)
    assert res["electric"] <= 1e-7
    assert res["magnetic"] <= 1e-7


def test_monopole_dipole_battery():
    rng = np.random.default_rng(31)
    for _ in range(100):
        eps12 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        lam1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        lam2 = -eps12 * eps12 / lam1
        qE = rng.uniform(-3.0, 3.0, size=2)
        qM = induced_magnetic_charges(qE, eps12, lam1, lam2)
        assert monopole_dipole(qM, qE) <= 1e-12 * max(1.0, float(np.max(qE**2)))


def test_induced_charge_constraint_enforced():
    with pytest.raises(ValueError):
        induced_magnetic_charges([1.0, 0.0], 1.0, 1.0, 1.0)  # lam1*lam2 != -1
    with pytest.raises(ValueError):
        induced_magnetic_charges([1.0, 0.0], 0.0, 1.0, -1.0)


def test_lambda_scale_codata():
    h = 6.62607015e-34
    e = 1.602176634e-19
    mu0 = 1.25663706212e-6
    c = 299792458.0
    val = lambda_scale(h, e, mu0, c)
    assert abs(val - 68.518) < 0.001
    # equals 1/(2 alpha) with alpha ~ 1/137.036
    assert abs(1.0 / (2.0 * val) - 7.2973525693e-3) < 1e-6


def test_lambda_scale_scaling_and_errors():
    assert abs(lambda_scale(1.0, 1.0, 1.0, 1.0) - 1.0) < 1e-15
    assert abs(lambda_scale(1.0, 2.0, 1.0, 1.0) - 0.25) < 1e-15
    with pytest.raises(ValueError):
        lambda_scale(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        lambda_scale(1.0, 1.0, 0.0, 1.0)
