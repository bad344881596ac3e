"""End-to-end acceptance battery.

Each test covers one numbered criterion and prints a single
"[criterion N] PASS|FAIL" line (visible with pytest -s or on failure).
"""

import json
import math
import time

import numpy as np
from scipy.integrate import quad

from formdec import GridSpec, build_grid, cli
from formdec import calculus, cohomology, decompose, em, fields, taxonomy

TWO_PI = 2.0 * math.pi


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_flat_torus2(capsys):
    t0 = time.perf_counter()
    code = cli.main(["torus2", "--mode", "flat", "--grid", "128"])
    elapsed = time.perf_counter() - t0
    doc = json.loads(capsys.readouterr().out)
    E = np.array(doc["matrices"]["E"])
    T = np.array(doc["matrices"]["T"])
    L = np.array(doc["matrices"]["Lambda"])
    worst = max(
        float(np.max(np.abs(E - [[0, 1], [-1, 0]]))),
        float(np.max(np.abs(T - [[0, 1], [-1, 0]]))),
        float(np.max(np.abs(L - np.eye(2)))),
        float(np.max(np.abs(T @ T + np.eye(2)))),
        float(np.max(np.abs(E @ T.T - np.eye(2)))),
        max(c["residual"] for c in doc["checks"]),
    )
    ok = code == 0 and worst <= 1e-10 and doc["values"]["group"] == "S2.1.3" and elapsed < 5.0
    with capsys.disabled():
        report(1, ok, f"worst residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_embedded_torus2(capsys):
    # independent quadrature oracle, computed before the main build
    circ, _ = quad(lambda v: 1.0 / (2.0 + math.cos(v)), 0.0, TWO_PI, epsabs=1e-13)
    assert abs(circ - TWO_PI / math.sqrt(3.0)) < 1e-10
    tau12_oracle = circ / TWO_PI  # r = 1
    tau21_oracle = -1.0 / tau12_oracle

    t0 = time.perf_counter()
    grid = build_grid(
        GridSpec(2, (256, 256), (TWO_PI, TWO_PI), (1, 1), metric="embedded-torus", R=2.0, r=1.0)
    )
    basis = cohomology.build_basis(grid, 1)
    E, _ = cohomology.matrix_E(basis, basis)
    T = cohomology.matrix_T(basis, basis)
    L = cohomology.matrix_Lambda(basis)
    chk = cohomology.verify_triple(E, T, L, calculus.sign_D(1, 2, 0), T)
    elapsed = time.perf_counter() - t0
    worst = max(
        abs(T[0, 1] - tau12_oracle),
        abs(T[1, 0] - tau21_oracle),
        float(np.max(np.abs(L - np.diag([tau12_oracle, -tau21_oracle])))),
        chk.tt_residual,
        chk.et_residual,
        chk.lel_residual,
    )
    ok = worst <= 1e-5 and elapsed < 30.0
    with capsys.disabled():
        report(2, ok, f"worst residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_3_round_trip(capsys):
    t0 = time.perf_counter()
    grid = build_grid(GridSpec(2, (64, 64), (TWO_PI, TWO_PI), (1, 1)))
    basis = cohomology.build_basis(grid, 1)
    rng = np.random.default_rng(2024)
    worst_rt = worst_cycle = 0.0
    gauge_keys = set()
    for _ in range(50):
        phi = fields.random_trig_form(grid, 1, rng)
        dec = decompose.hodge_decompose(phi, basis)
        res = decompose.decomposition_residuals(phi, dec, basis)
        worst_rt = max(worst_rt, dec.reconstruction_error)
        # on T^2 at p = 1 alpha is a 0-form and beta a top form: no gauge check applies
        gauge_keys |= res.keys() & {"gauge_delta_alpha", "gauge_d_beta"}
        worst_cycle = max(worst_cycle, res["cycle_of_exact"], res["cycle_of_coexact"])
    elapsed = time.perf_counter() - t0
    ok = worst_rt <= 1e-8 and not gauge_keys and worst_cycle <= 1e-10 and elapsed < 60.0
    with capsys.disabled():
        report(
            3,
            ok,
            f"round-trip {worst_rt:.3e}, gauge checks {sorted(gauge_keys)}, "
            f"cycle {worst_cycle:.3e}, {elapsed:.2f}s",
        )


def test_criterion_4_quantized_norm(capsys):
    grid = build_grid(GridSpec(2, (64, 64), (TWO_PI, TWO_PI), (1, 1)))
    basis = cohomology.build_basis(grid, 1)
    E, P = cohomology.matrix_E(basis, basis)
    phi = basis.gammas[0] * 3.0 + basis.gammas[1] * 4.0
    dec = decompose.hodge_decompose(phi, basis)
    v = decompose.dual_decompose(phi, basis)
    nb = decompose.norm_decompose(phi, dec, v, E, P)
    worked = max(abs(nb.topological_term - 25.0), abs(nb.direct_norm - 25.0))

    rng = np.random.default_rng(2025)
    worst_budget = 0.0
    for _ in range(50):
        phi = fields.random_trig_form(grid, 1, rng) + basis.gammas[0] * float(
            rng.uniform(-3, 3)
        )
        dec = decompose.hodge_decompose(phi, basis)
        v = decompose.dual_decompose(phi, basis)
        nb = decompose.norm_decompose(phi, dec, v, E, P)
        worst_budget = max(worst_budget, nb.budget_error)
    ok = worked <= 1e-10 and worst_budget <= 1e-8
    with capsys.disabled():
        report(4, ok, f"worked case {worked:.3e}, worst budget {worst_budget:.3e}")


def test_criterion_5_matrix_battery(capsys):
    worst_flat = 0.0
    for dim, p, n_pts in ((2, 1, 32), (3, 1, 16), (4, 1, 10), (4, 2, 10)):
        grid = build_grid(GridSpec(dim, (n_pts,) * dim, (TWO_PI,) * dim, (1,) * dim))
        bp = cohomology.build_basis(grid, p)
        chk = cohomology.verify_pair(bp)
        lel = chk.lel_residual if 2 * p == dim else 0.0  # a middle-degree identity
        worst_flat = max(worst_flat, chk.tt_residual, chk.et_residual, lel)
    grid = build_grid(
        GridSpec(2, (128, 128), (TWO_PI, TWO_PI), (1, 1), metric="embedded-torus", R=2.0, r=1.0)
    )
    basis = cohomology.build_basis(grid, 1)
    chk = cohomology.verify_pair(basis)
    worst_emb = chk.max_residual()
    ok = worst_flat <= 1e-10 and worst_emb <= 1e-5
    with capsys.disabled():
        report(5, ok, f"flat {worst_flat:.3e}, embedded {worst_emb:.3e}")


def test_criterion_6_taxonomy(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    det_ok = True
    cells = [(m, s, g) for m in (0, 1) for s in (0, 1) for g in taxonomy.admissible_groups(m, s)]
    for m, s, g in cells:
        rng = np.random.default_rng(10_000 + 100 * m + 10 * s + taxonomy.GROUPS.index(g))
        for _ in range(100):
            sol = taxonomy.solve_group(g, taxonomy.random_params(g, s, rng), s=s)
            worst = max(worst, sol.constraints_residual)
            if g != "S2.2.1" and abs(abs(sol.det_T) - 1.0) > 1e-12:
                det_ok = False
    rejected = 0
    for g, s in (("S2.2.1", 1), ("S2.1.2", 1)):
        try:
            taxonomy.solve_group(g, {"E12": 1, "E11": 1, "E22": 1}, s=s)
        except taxonomy.InfeasibleGroupError:
            rejected += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and det_ok and rejected == 2 and elapsed < 5.0
    with capsys.disabled():
        report(6, ok, f"worst identity residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_7_em_demo(capsys):
    t0 = time.perf_counter()
    grid = build_grid(GridSpec(4, (12,) * 4, (TWO_PI,) * 4, (-1, 1, 1, 1)))
    basis2 = cohomology.build_basis(grid, 2)
    F = fields.em_preset("topological", grid, basis2)  # F = gamma_(01)
    E2, P2 = cohomology.matrix_E(basis2, basis2)
    T2 = cohomology.matrix_T(basis2, basis2)
    cs = em.charges(F, basis2)
    comps = grid.components_of_degree(2)
    i01, i23 = comps.index((0, 1)), comps.index((2, 3))
    eM = np.zeros(6)
    eM[i01] = 1.0
    eE = np.zeros(6)
    eE[i23] = -1.0
    charge_err = max(
        float(np.max(np.abs(cs.qM - eM))), float(np.max(np.abs(cs.qE - eE)))
    )
    quad_res = em.charge_relations(cs.qM, cs.qE, T2)["max"]
    JE, JM = em.currents(F)
    AE, AM, _ = em.potentials(F, basis2)
    act = em.action(F, AE, AM, JE, JM, cs, E2, P2)
    mx = em.maxwell_residuals(F, JE, JM)
    elapsed = time.perf_counter() - t0
    ok = (
        basis2.betti == 6
        and cohomology.verify_pair(basis2).reality_residual <= 1e-10
        and charge_err <= 1e-8
        and quad_res <= 1e-8
        and abs(act.quantized_term - 1.0) <= 1e-7
        and max(mx.values()) <= 1e-7
        and elapsed < 120.0
    )
    with capsys.disabled():
        report(
            7,
            ok,
            f"charges {charge_err:.3e}, quadrature {quad_res:.3e}, "
            f"S_d-1 {abs(act.quantized_term - 1.0):.3e}, "
            f"maxwell {max(mx.values()):.3e}, {elapsed:.2f}s",
        )


def test_criterion_8_monopole_dipole(capsys):
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(100):
        eps12 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        lam1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        lam2 = -eps12 * eps12 / lam1
        qE = rng.uniform(-3.0, 3.0, size=2)
        qM = em.induced_magnetic_charges(qE, eps12, lam1, lam2)
        worst = max(worst, em.monopole_dipole(qM, qE))
    ok = worst <= 1e-12
    with capsys.disabled():
        report(8, ok, f"worst identity residual {worst:.3e}")


def test_criterion_9_lambda_scale(capsys):
    h = 6.62607015e-34
    e = 1.602176634e-19
    mu0 = 1.25663706212e-6
    c = 299792458.0
    oracle = h / (mu0 * c * e * e)  # direct arithmetic, no library call
    val = em.lambda_scale(h, e, mu0, c)
    rel = abs(val - 68.518) / 68.518
    ok = val == oracle and rel < 1e-3
    with capsys.disabled():
        report(9, ok, f"lambda = {val:.6f}, relative deviation {rel:.2e}")
