"""The four benchmark workloads: state built once, then one op per input.

Each workload is a closed loop with one caller.  ``build(seed)`` makes the
warm state and a fixed pool of inputs from the seed; ``op(state, i)`` runs
input ``i % pool`` through formdec and returns the names of the checks it
missed (empty when every check passes).  Tolerances are the CLI's.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from formdec import calculus, cli, cohomology, decompose, em
from formdec.mesh import GridSpec, build_grid

import inputs

TWO_PI = 2.0 * math.pi


def _grid(dim, n, signature=None, metric="flat", R=0.0, r=0.0):
    return build_grid(
        GridSpec(
            dim=dim,
            points=(n,) * dim,
            periods=(TWO_PI,) * dim,
            signature=signature or (1,) * dim,
            metric=metric,
            R=R,
            r=r,
        )
    )


def _failed(checks):
    return [name for name, residual, tol in checks if not residual <= tol]


# ---------------------------------------------------------------------------
# decompose workloads: a 1-form on a 2-torus, flat or embedded
# ---------------------------------------------------------------------------


def _build_decompose(grid, seed, pool):
    rng = np.random.default_rng(seed)
    basis = cohomology.build_basis(grid, 1)
    E, P = cohomology.matrix_E(basis, basis)
    T = cohomology.matrix_T(basis, basis)
    return {
        "basis": basis,
        "E": E,
        "P": P,
        "T": T,
        "Dpar": calculus.sign_D(1, grid.dim, grid.neg_count),
        "inputs": [inputs.trig_form(grid, 1, rng) for _ in range(pool)],
    }


def op_decompose(state, i):
    """hodge, dual and norm decomposition plus residuals and cross relations."""
    phi = state["inputs"][i % len(state["inputs"])]
    basis = state["basis"]
    dec = decompose.hodge_decompose(phi, basis)
    v = decompose.dual_decompose(phi, basis)
    nb = decompose.norm_decompose(phi, dec, v, state["E"], state["P"])
    res = decompose.decomposition_residuals(phi, dec, basis)
    cross = decompose.cross_relation_check(dec.u, v, state["T"], state["Dpar"], T_dual=state["T"])
    checks = [(k, val, 1e-10 if "cycle" in k else 1e-8) for k, val in res.items()]
    checks.append(("norm_budget", nb.budget_error, 1e-8))
    checks.append(("cross_relation", cross["max"], 1e-8))
    return _failed(checks)


def build_flat(seed):
    return _build_decompose(_grid(2, 512), seed, pool=8)


def build_embedded(seed):
    return _build_decompose(_grid(2, 256, metric="embedded-torus", R=2.0, r=1.0), seed, pool=8)


# ---------------------------------------------------------------------------
# minkowski-t4-em: F = dA + sum_a q_a gamma_a on the Minkowski 4-torus
# ---------------------------------------------------------------------------


def build_minkowski(seed, pool=8):
    grid = _grid(4, 16, signature=(-1, 1, 1, 1))
    rng = np.random.default_rng(seed)
    basis2 = cohomology.build_basis(grid, 2)
    E2, P2 = cohomology.matrix_E(basis2, basis2)
    T2 = cohomology.matrix_T(basis2, basis2)
    fields = []
    for _ in range(pool):
        A = inputs.trig_form(grid, 1, rng, accept=inputs.off_light_cone)
        q = inputs.charge_vector(rng, basis2.betti)
        F = calculus.d(A)
        for a, g in enumerate(basis2.gammas):
            F = F + g * q[a]
        fields.append((F, q))
    return {"basis2": basis2, "E2": E2, "P2": P2, "T2": T2, "inputs": fields}


def op_minkowski(state, i):
    """charges, currents, potentials, action, Maxwell residuals, charge relations."""
    F, q = state["inputs"][i % len(state["inputs"])]
    basis2 = state["basis2"]
    chg = em.charges(F, basis2)
    JE, JM = em.currents(F)
    AE, AM, dec = em.potentials(F, basis2)
    act = em.action(F, AE, AM, JE, JM, chg, state["E2"], state["P2"])
    mx = em.maxwell_residuals(F, JE, JM)
    rel = em.charge_relations(chg.qM, chg.qE, state["T2"])
    return _failed(
        [
            ("reconstruction", dec.reconstruction_error, 1e-7),
            ("charge_relations", rel["max"], 1e-8),
            ("charges_match_input", float(np.max(np.abs(chg.qM - q))), 1e-8),
            ("maxwell_electric", mx["electric"], 1e-7),
            ("maxwell_magnetic", mx["magnetic"], 1e-7),
            ("action_budget", act.cross_check_residual, 1e-7),
        ]
    )


# ---------------------------------------------------------------------------
# cli-readme: every README command through formdec.cli.main, in-process
# ---------------------------------------------------------------------------

README_COMMANDS = (
    ["torus2", "--mode", "flat", "--grid", "128"],
    ["torus2", "--mode", "embedded", "--grid", "256", "--R", "2", "--r", "1"],
    ["verify", "--suite", "core", "--grid", "64"],
    ["verify", "--suite", "decompose", "--grid", "64"],
    ["taxonomy", "--m-parity", "1", "--s", "0"],
    ["taxonomy", "--group", "S2.1.3", "--params", '{"E12": 1, "lam11": 1, "lam12": 0}'],
    ["taxonomy", "--group", "S2.2.2", "--s", "1", "--draws", "100"],
    ["decompose", "--preset", "mixed-t2", "--grid", "64"],
    ["em", "--preset", "topological", "--grid", "12"],
    ["em", "--preset", "mixed", "--grid", "12", "--charges", "1@01,2@23"],
)


def build_cli(seed, pool=4):
    return {"inputs": inputs.cli_seeds(np.random.default_rng(seed), pool)}


def op_cli(state, i):
    """One pass of the README commands; each must exit 0 with every check passing."""
    seed = state["inputs"][i % len(state["inputs"])]
    failed = []
    for argv in README_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + ["--seed", str(seed)])
        doc = json.loads(out.getvalue())
        label = " ".join(argv[:3])
        if code != 0 or doc["command"] != argv[0]:
            failed.append(f"{label}: exit {code}")
        failed.extend(f"{label}: {c['name']}" for c in doc["checks"] if not c["pass"])
    return failed


# The embedded-torus decomposition takes its harmonic coefficients from
# offset-averaged cycle integrals, which is right only when the coexact part
# is closed (flat metrics).  Draws with a coexact part therefore miss these
# checks; they are counted as failed ops but do not make a run incorrect.
# Any other missed check, or any exception, does.
WORKLOADS = {
    "flat-t2-decompose": (build_flat, op_decompose, frozenset()),
    "embedded-t2-decompose": (
        build_embedded,
        op_decompose,
        frozenset(
            {"cycle_of_coexact", "residue_norm", "residue_cycles", "cross_relation", "norm_budget"}
        ),
    ),
    "minkowski-t4-em": (build_minkowski, op_minkowski, frozenset()),
    "cli-readme": (build_cli, op_cli, frozenset()),
}
