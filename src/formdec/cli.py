"""Deterministic command-line front end emitting JSON reports.

Subcommands: verify, torus2, taxonomy, decompose, em.  Exit code 0 when
every check passes, 1 on a check failure, 2 on usage errors.  A numeric
failure inside a computation (a Green solve missing its residual, an
unresolved duality pairing, a star expansion the basis cannot span) is a
check failure: the report so far is emitted with one failed check named
after the exception's stage.  The inputs record every parsed argument but
--json-out and --timings; identical inputs give byte-identical output.
Wall-clock timings are only included behind --timings, which breaks that.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time

import numpy as np

from . import calculus, cohomology, decompose, em, fields, taxonomy
from .mesh import KNOWN_METRICS, GridSpec, build_grid

NOT_INPUTS = ("command", "func", "json_out", "timings")

# a dim-4 run on random fields (verify --suite decompose) traces about 540
# bytes per point; the em presets, stored with length-1 axes, about 15
MAX_POINTS = 2**22


class Report:
    """Accumulates matrices, values and named pass/fail checks of parsed args."""

    def __init__(self, args):
        self.args = args
        self.matrices = {}
        self.values = {}
        self.checks = []
        self.timings_ms = {}
        self._t0 = time.perf_counter()

    def matrix(self, name, M):
        self.matrices[name] = np.asarray(M).tolist()

    def value(self, name, v):
        self.values[name] = v

    def check(self, name, residual, tolerance):
        """A non-finite residual fails; to_json writes it as null."""
        residual = float(residual)
        self.checks.append(
            {
                "name": name,
                "residual": residual,
                "tolerance": tolerance,
                "pass": math.isfinite(residual) and residual <= tolerance,
            }
        )

    def phase(self, name):
        self.timings_ms[name] = round(1000.0 * (time.perf_counter() - self._t0), 3)
        self._t0 = time.perf_counter()

    def ok(self):
        return all(c["pass"] for c in self.checks)

    def to_json(self):
        doc = {
            "command": self.args.command,
            "inputs": {k: v for k, v in vars(self.args).items() if k not in NOT_INPUTS},
            "matrices": self.matrices,
            "values": self.values,
            "checks": self.checks,
        }
        if self.args.timings:
            doc["timings_ms"] = self.timings_ms
        # strict JSON: a residual, value or matrix entry that is not finite is written as null
        doc = json.loads(json.dumps(doc), parse_constant=lambda _: None)
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


def _grid(args, dim, metric="flat", signature=None):
    spec = GridSpec(
        dim=dim,
        points=(args.grid,) * dim,
        periods=(2.0 * math.pi,) * dim,
        signature=signature or (1,) * dim,
        metric=metric,
        R=getattr(args, "R", 0.0),
        r=getattr(args, "r", 0.0),
    )
    if args.grid**dim > MAX_POINTS:  # dim is 1..4 here
        n = math.floor(MAX_POINTS ** (1.0 / dim)) + 1
        while n**dim > MAX_POINTS or n % 2:
            n -= 1
        raise ValueError(
            f"--grid {args.grid} in {dim} dimensions makes {args.grid**dim} points, "
            f"more than {MAX_POINTS}; the largest accepted even --grid is {n}"
        )
    return build_grid(spec)


# ---------------------------------------------------------------------------
# shared pipelines: the decomposition of 1-forms and the identity battery
# ---------------------------------------------------------------------------


def _decompose_pipeline(report, basis, phis):
    """Decompose each 1-form of phis; one check per residual, worst over phis.

    The dual quantities use the degree-(n-1) dual basis, so any dimension works.
    Returns the decomposition, dual integrals and norm budget of the last form.
    """
    grid = basis.grid
    T_dual, T = basis.T, basis.dual.T  # T^{(n-1)}, T^{(1)}
    Dpar = calculus.sign_D(1, grid.dim, grid.neg_count)
    worst = {}
    for phi in phis:
        dec = decompose.hodge_decompose(phi, basis)
        v = decompose.dual_decompose(phi, basis)
        nb = decompose.norm_decompose(phi, dec, v, basis.E, basis.P)
        res = decompose.decomposition_residuals(phi, dec, basis)
        res["norm_budget"] = nb.budget_error
        res["cross_relation"] = decompose.cross_relation_check(
            dec.u, v, T, Dpar, T_dual=T_dual
        )["max"]
        for k, val in res.items():
            worst[k] = max(worst.get(k, 0.0), val)
    for k, val in worst.items():
        report.check(k, val, 1e-10 if "cycle" in k else 1e-8)
    return dec, v, nb


def _identity_battery(report, dim, metric, **names):
    """Report the degree-1 basis's E, T, Lambda and P, and one check per entry of names.

    names maps a residual of the basis (normalization, delta) or of
    verify_pair's CheckReport to its check name, in report order.  verify_pair
    runs at the first of its residuals, so a numeric failure there keeps the
    basis checks named before it.  A None delta (flat grids) and lel off the
    middle degree are left out.  Returns the basis, CheckReport and tolerance.
    """
    grid = _grid(report.args, dim, metric)
    tol = 1e-10 if grid.is_flat else 1e-5
    basis = cohomology.build_basis(grid, 1)
    chk = None
    for key, name in names.items():
        on_basis = key in ("normalization", "delta")
        if not on_basis and chk is None:
            chk = cohomology.verify_pair(basis)
        residual = getattr(basis if on_basis else chk, f"{key}_residual")
        if residual is not None and (key != "lel" or basis.dual is basis):
            report.check(name, residual, tol)
    for name in ("E", "T", "Lambda", "P"):
        report.matrix(name, getattr(basis, name))
    return basis, chk, tol


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_core(args, report):
    grid = _grid(args, args.dim, args.metric)
    rng = np.random.default_rng(args.seed)

    def form(p, draw_only=False):
        return (fields.random_modes if draw_only else fields.random_trig_form)(grid, p, rng)

    def rel(residual, f):
        return residual.norm_inf() / max(f.norm_inf(), 1e-300)

    # On a flat metric star only permutes and sign-flips components and both
    # pairings sum the same products, so these two checks would read 0.  Their
    # waves are drawn anyway, so a seed gives the later checks the same forms.
    for p in range(grid.dim + 1):
        f = form(p, grid.is_flat)
        if not grid.is_flat:
            sgn = -1.0 if calculus.sign_D(p, grid.dim, grid.neg_count) else 1.0
            report.check(f"star_star_degree_{p}", rel(calculus.star(calculus.star(f)) - f * sgn, f), 1e-12)
    a, b = form(1, grid.is_flat), form(1, grid.is_flat)
    if not grid.is_flat:
        report.check("pairing_symmetry", abs(calculus.pairing(a, b) - calculus.pairing(b, a)), 1e-10)
    f0, ftop = form(0), form(grid.dim)
    if grid.dim >= 2:  # on a circle d d and delta delta are undefined
        report.check("dd_zero", rel(calculus.d(calculus.d(f0)), f0), 1e-10)
        report.check("delta_delta_zero", rel(calculus.delta(calculus.delta(ftop)), ftop), 1e-10)
    c0, a1 = form(0), form(1)
    adj = abs(calculus.pairing(calculus.d(c0), a1) - calculus.pairing(c0, calculus.delta(a1)))
    report.check("adjointness", adj, 1e-8)


def _verify_cohomology(args, report):
    _identity_battery(
        report, args.dim, args.metric, normalization="normalization", delta="delta_closure",
        tt="identity_tt", et="identity_et", lel="identity_lel",
    )


def _verify_decompose(args, report):
    grid = _grid(args, args.dim, args.metric)
    rng = np.random.default_rng(args.seed)
    basis = cohomology.build_basis(grid, 1)
    phis = [fields.random_trig_form(grid, 1, rng) for _ in range(5)]
    _decompose_pipeline(report, basis, phis)


VERIFY_SUITES = {
    "core": _verify_core,
    "cohomology": _verify_cohomology,
    "decompose": _verify_decompose,
}


def cmd_verify(args, report):
    VERIFY_SUITES[args.suite](args, report)


# ---------------------------------------------------------------------------
# torus2
# ---------------------------------------------------------------------------


TORUS2_METRICS = dict(zip(("flat", "embedded"), KNOWN_METRICS))  # --mode: metric preset


def cmd_torus2(args, report):
    basis, chk, tol = _identity_battery(
        report, 2, TORUS2_METRICS[args.mode], tt="TT_identity", et="ET_identity",
        lel="LEL_identity", reality="reality", normalization="normalization",
    )
    # m = 1 odd: the only admissible group, with its quadratic constraint
    E, Lam, s = basis.E, basis.Lambda, basis.grid.neg_count
    constraint = abs(Lam[0, 1] ** 2 - Lam[0, 0] * Lam[1, 1] - (-1.0) ** (s + 1) * E[0, 1] ** 2)
    report.check("group_constraint", constraint, tol)
    report.value("group", "S2.1.3")
    report.value("det_T", chk.det_T)


# ---------------------------------------------------------------------------
# taxonomy
# ---------------------------------------------------------------------------


def cmd_taxonomy(args, report):
    if args.m_parity is None:
        args.m_parity = taxonomy.M_PARITY[args.group] if args.group else 0
    groups = taxonomy.admissible_groups(args.m_parity, args.s)
    report.value("admissible_groups", groups)
    if args.group is None:
        return
    if args.group not in groups:
        raise ValueError(
            f"group {args.group} is not admissible for m parity {args.m_parity} "
            f"and s {args.s}; admissible groups: {groups}"
        )
    if args.params:
        params = json.loads(args.params)
        if not isinstance(params, dict):
            raise ValueError(f"--params must be a JSON object, got {args.params}")
        params = [params]
    else:
        rng = np.random.default_rng(args.seed)
        params = [taxonomy.random_params(args.group, args.s, rng) for _ in range(args.draws)]
    draws = taxonomy.solve_draws(args.group, params, args.s)
    worst = max(sol.constraints_residual for sol in draws)
    report.check("identity_residuals", worst, 1e-12)
    report.value("det_T_values", sorted({round(sol.det_T, 9) for sol in draws}))
    sol = draws[0]
    report.matrix("E", sol.E)
    report.matrix("T", sol.T)
    report.matrix("Lambda", sol.Lambda)
    report.value("group", sol.group_label)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def cmd_decompose(args, report):
    grid = _grid(args, 2)
    tol = 1e-8
    basis = cohomology.build_basis(grid, 1)
    if args.preset == "mixed-t2":
        phi = fields.mixed_t2(basis)
    elif args.preset == "exact-t2":
        phi = fields.exact_t2(grid)
    else:
        phi = fields.random_trig_form(grid, 1, np.random.default_rng(args.seed))
    dec, v, nb = _decompose_pipeline(report, basis, [phi])
    report.value("u", dec.u.tolist())
    report.value("v", v.tolist())
    report.value("norm_terms", dataclasses.asdict(nb))
    if args.preset == "mixed-t2":
        report.check("u_expected", float(np.max(np.abs(dec.u - [3.0, 4.0]))), tol)
        report.check("topological_term_25", abs(nb.topological - 25.0), tol)
    if args.preset == "exact-t2":
        report.check("u_zero", float(np.max(np.abs(dec.u))), tol)


# ---------------------------------------------------------------------------
# em
# ---------------------------------------------------------------------------


def _parse_charges(text):
    out = []
    for part in text.split(","):
        q, _, cls = part.partition("@")
        try:
            q, (i, j) = float(q), map(int, cls.strip())
        except ValueError:
            raise ValueError(f"--charges needs entries like 1@01, got {part!r}") from None
        if not math.isfinite(q * q):  # the action multiplies charges
            raise ValueError(f"--charges needs finite charges, got {part!r}, whose square is {q * q}")
        out.append((q, (i, j)))
    return out


def cmd_em(args, report):
    """Charges, currents, potentials and action of a preset field F."""
    basis2 = cohomology.build_basis(_grid(args, 4, signature=em.MINKOWSKI), 2)
    charge_list = _parse_charges(args.charges) if args.charges is not None else None
    F = fields.em_preset(args.preset, basis2, charge_list)
    chg = em.charges(F, basis2)
    JE, JM = em.currents(F)
    AE, AM, dec = em.potentials(F, basis2)
    act = em.action(F, AE, AM, JE, JM, chg, basis2.E, basis2.P)
    report.value("qM", chg.qM.tolist())
    report.value("qE", chg.qE.tolist())
    report.value("betti_2", basis2.betti)
    terms = ("electric", "magnetic", "quantized", "total")
    report.value("action", {k: getattr(act, k) for k in terms})
    report.check("reconstruction", dec.reconstruction_error, 1e-7)
    report.check("charge_relations", em.charge_relations(chg.qM, chg.qE, basis2.T)["max"], 1e-8)
    report.check("action_budget", act.cross_check_residual, 1e-7)


# ---------------------------------------------------------------------------


def _int_at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


@functools.cache  # parse_args does not change the parser; built once per process
def build_parser():
    parser = argparse.ArgumentParser(
        prog="formdec",
        description="Exterior-calculus experiments on periodic pseudo-Riemannian grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, grid=None, radii=False):
        p.allow_abbrev = False  # a prefix such as --c is not read as --charges
        if radii:  # the embedded torus
            p.add_argument("--R", type=float, default=2.0)
            p.add_argument("--r", type=float, default=1.0)
        if grid is not None:
            p.add_argument("--grid", type=int, default=grid, help="points per axis")
        p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        p.add_argument("--json-out", dest="json_out", default=None, help="also write JSON here")
        p.add_argument("--timings", action="store_true", help="include wall-clock timings")
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run a module invariant battery")
    p.add_argument("--suite", choices=list(VERIFY_SUITES), required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--metric", choices=KNOWN_METRICS, default="flat")
    common(p, cmd_verify, grid=64, radii=True)

    p = sub.add_parser("torus2", help="2-torus cohomology matrices")
    p.add_argument("--mode", choices=list(TORUS2_METRICS), default="flat")
    common(p, cmd_torus2, grid=128, radii=True)

    p = sub.add_parser("taxonomy", help="beta_m = 2 solution families")
    p.add_argument(
        "--m-parity",
        dest="m_parity",
        type=int,
        choices=[0, 1],
        default=None,
        help="parity of m; defaults to that of --group, else 0",
    )
    p.add_argument(
        "--s", type=_int_at_least(0), default=0, help="number of negative signature entries"
    )
    p.add_argument("--group", choices=list(taxonomy.GROUPS), default=None)
    p.add_argument("--params", default=None, help="JSON dict of free parameters")
    p.add_argument("--draws", type=_int_at_least(1), default=100)
    common(p, cmd_taxonomy)

    p = sub.add_parser("decompose", help="Hodge decomposition presets")
    p.add_argument(
        "--preset", choices=["mixed-t2", "exact-t2", "random"], default="mixed-t2"
    )
    common(p, cmd_decompose, grid=64)

    p = sub.add_parser("em", help="electromagnetic demo on the Minkowski 4-torus")
    p.add_argument("--preset", choices=["topological", "exact", "mixed"], default="topological")
    p.add_argument("--charges", default=None, help="comma list like 1@01,2@23")
    common(p, cmd_em, grid=12)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    report = Report(args)
    try:
        args.func(args, report)
    except calculus.NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        report.check(exc.stage, exc.residual, exc.tolerance)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.phase(getattr(args, "suite", args.command))
    text = report.to_json()
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
