import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from formdec import calculus, cli, cohomology, fields, mesh, taxonomy
from formdec.mesh import PeriodicGrid

from test_readme import readme_commands
from test_stencil_properties import count_calls


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_torus2_flat_values(capsys):
    code, doc = run(capsys, ["torus2", "--mode", "flat", "--grid", "32"])
    assert code == 0
    assert np.allclose(doc["matrices"]["E"], [[0, 1], [-1, 0]])
    assert np.allclose(doc["matrices"]["T"], [[0, 1], [-1, 0]])
    assert np.allclose(doc["matrices"]["Lambda"], np.eye(2))
    assert doc["values"]["group"] == "S2.1.3"
    assert abs(doc["values"]["det_T"] - 1.0) < 1e-10


def test_check_entries_shape(capsys):
    code, doc = run(capsys, ["torus2", "--grid", "32"])
    assert code == 0
    assert doc["checks"], "at least one check expected"
    for chk in doc["checks"]:
        assert set(chk) == {"name", "residual", "tolerance", "pass"}
        assert chk["pass"] is True


def test_verify_core_passes(capsys):
    code, doc = run(capsys, ["verify", "--suite", "core", "--grid", "32"])
    assert code == 0
    assert all(c["pass"] for c in doc["checks"])


def test_verify_decompose_passes(capsys):
    code, doc = run(capsys, ["verify", "--suite", "decompose", "--grid", "32"])
    assert code == 0


def test_taxonomy_list_mode(capsys):
    code, doc = run(capsys, ["taxonomy", "--m-parity", "1", "--s", "0"])
    assert code == 0
    assert doc["values"]["admissible_groups"] == ["S2.1.3"]
    assert "E" not in doc["matrices"]


def test_taxonomy_group_with_params(capsys):
    code, doc = run(
        capsys,
        [
            "taxonomy",
            "--m-parity",
            "1",
            "--group",
            "S2.1.3",
            "--params",
            '{"E12": 1, "lam11": 1, "lam12": 0}',
        ],
    )
    assert code == 0
    assert np.allclose(doc["matrices"]["T"], [[0, 1], [-1, 0]])
    assert doc["values"]["det_T_values"] == [1.0]


def test_taxonomy_draws(capsys):
    code, doc = run(
        capsys, ["taxonomy", "--group", "S2.2.2", "--s", "1", "--draws", "20"]
    )
    assert code == 0
    assert doc["values"]["det_T_values"] == [1.0]


def test_decompose_mixed_preset(capsys):
    code, doc = run(capsys, ["decompose", "--preset", "mixed-t2", "--grid", "32"])
    assert code == 0
    assert np.allclose(doc["values"]["u"], [3.0, 4.0], atol=1e-8)
    assert abs(doc["values"]["norm_terms"]["topological"] - 25.0) < 1e-8


def test_em_topological_preset(capsys):
    code, doc = run(capsys, ["em", "--grid", "8"])
    assert code == 0
    assert doc["values"]["betti_2"] == 6
    assert abs(doc["values"]["action"]["quantized"] - 1.0) < 1e-8


def test_em_custom_charges(capsys):
    code, doc = run(capsys, ["em", "--grid", "8", "--charges", "1@01,2@23"])
    assert code == 0
    qM = doc["values"]["qM"]
    assert abs(sorted(qM)[-1] - 2.0) < 1e-8


# the action multiplies charges: 1e300 is finite, but its square is not
@pytest.mark.parametrize(
    "charges,entry", [("nan@01", "nan@01"), ("1@01,inf@23", "inf@23"), ("1e300@23", "1e300@23")]
)
def test_em_non_finite_charges_are_usage_errors(capsys, charges, entry):
    code = cli.main(["em", "--grid", "8", "--charges", charges])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: --charges needs finite charges, got '{entry}'" in captured.err


def test_report_writes_non_finite_numbers_as_null():
    def strict(constant):
        raise ValueError(f"not strict JSON: {constant}")

    report = cli.Report(cli.build_parser().parse_args(["torus2"]))
    report.check("nan", math.nan, 1.0)
    report.check("minus_inf", -math.inf, 1.0)
    report.check("finite", 0.5, 1.0)
    report.value("action", {"total": math.inf, "electric": 2.0})
    report.matrix("T", [[math.nan, 1.0]])
    doc = json.loads(report.to_json(), parse_constant=strict)
    checks = [(c["name"], c["residual"], c["pass"]) for c in doc["checks"]]
    assert checks == [("nan", None, False), ("minus_inf", None, False), ("finite", 0.5, True)]
    assert doc["values"] == {"action": {"total": None, "electric": 2.0}}
    assert doc["matrices"] == {"T": [[None, 1.0]]}
    assert not report.ok()


@pytest.mark.parametrize(
    "charges,entry",
    [("1@ab", "1@ab"), (",", ""), ("@01", "@01"), ("1", "1"), ("1@012", "1@012"), ("", "")],
)
def test_em_malformed_charges_are_usage_errors(capsys, charges, entry):
    code = cli.main(["em", "--grid", "8", "--charges", charges])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: --charges needs entries like 1@01, got '{entry}'" in captured.err


def test_em_action_budget_scales_with_the_action(capsys):
    # |S| is about 1e12 here; an absolute residual would miss 1e-7
    code, doc = run(capsys, ["em", "--grid", "12", "--charges", "1e6@01"])
    assert code == 0
    assert all(c["pass"] for c in doc["checks"])


def test_em_charge_relations_scale_with_the_charges(capsys):
    # the charges are 1e8; an absolute residual would miss 1e-8 by rounding alone
    code, doc = run(capsys, ["em", "--grid", "12", "--charges", "1e8@01,1e8@23"])
    assert code == 0
    assert all(c["pass"] for c in doc["checks"])


@pytest.mark.parametrize("suite", ["core", "cohomology", "decompose"])
def test_verify_dim_4_default_grid_is_refused(capsys, suite):
    # 64**4 points exceed the cap; it is refused before any array is allocated
    code = cli.main(["verify", "--suite", suite, "--dim", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "the largest accepted even --grid is 44" in captured.err


@pytest.mark.parametrize("dim", ["0", "5", "1000000"])
def test_verify_dim_out_of_range_is_a_usage_error(capsys, dim):
    # the grid spec checks dim before the point cap counts --grid ** dim
    code = cli.main(["verify", "--suite", "core", "--dim", dim])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: dim must be in 1..4, got {dim}\n"


def test_determinism(capsys):
    argv = ["verify", "--suite", "cohomology", "--grid", "32", "--seed", "5"]
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["torus2", "--mode", "embedded", "--grid", "256"],
        ["em", "--preset", "mixed", "--grid", "12"],
        ["verify", "--suite", "core", "--grid", "64"],
    ],
    ids=" ".join,
)
def test_output_independent_of_blas_threads(argv):
    # partial is a BLAS matmul: its output must not depend on the thread count
    src_dir = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "formdec.cli", *argv],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_timings_flag_adds_section(capsys):
    code, doc = run(capsys, ["torus2", "--grid", "32", "--timings"])
    assert code == 0
    assert "timings_ms" in doc


def test_json_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, doc = run(capsys, ["torus2", "--grid", "32", "--json-out", str(path)])
    assert code == 0
    on_disk = json.loads(path.read_text())
    assert on_disk == doc


def test_usage_error_exit_2(capsys):
    code = cli.main(
        ["taxonomy", "--group", "S2.1.3", "--params", "{not json"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_infeasible_group_exit_2(capsys):
    code = cli.main(["taxonomy", "--group", "S2.2.1", "--s", "1", "--draws", "1"])
    capsys.readouterr()
    assert code == 2


def test_bad_subcommand_systemexit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["definitely-not-a-command"])
    assert exc.value.code == 2


def fail_star_expansion(monkeypatch):
    """Make every matrix_T raise as a basis the dual cannot span would."""

    def fail(*args, **kwargs):
        raise cohomology.StarExpansionError("not spanned", 1e-2, cohomology.EXPANSION_TOL)

    monkeypatch.setattr(cohomology, "matrix_T", fail)


def test_numeric_failure_is_a_json_report(capsys, monkeypatch):
    fail_star_expansion(monkeypatch)
    code = cli.main(["torus2", "--mode", "embedded", "--grid", "8"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1
    assert "error:" in captured.err
    failed = [c for c in doc["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["star_expansion"]
    assert failed[0]["residual"] > failed[0]["tolerance"] == 1e-6


def test_cohomology_reports_the_basis_before_a_star_expansion_failure(capsys, monkeypatch):
    # T is built on first read, after the basis checks are reported
    fail_star_expansion(monkeypatch)
    argv = ["verify", "--suite", "cohomology", "--metric", "embedded-torus", "--grid", "8"]
    code, doc = run(capsys, argv)
    assert code == 1
    checks = [(c["name"], c["pass"]) for c in doc["checks"]]
    assert checks == [("normalization", True), ("delta_closure", True), ("star_expansion", False)]


@pytest.mark.parametrize(
    "exc,stage",
    [
        (calculus.GreenSolveError("missed", 1e-3, 1e-10), "green_solve"),
        (cohomology.DualityError("unresolved", 0.5, 1e-8), "duality"),
        (cohomology.StarExpansionError("not spanned", 1e-2, 1e-6), "star_expansion"),
    ],
)
def test_numeric_failure_stage_names(capsys, monkeypatch, exc, stage):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli.cohomology, "build_basis", fail)
    code = cli.main(["decompose", "--grid", "8"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["checks"] == [
        {"name": stage, "residual": exc.residual, "tolerance": exc.tolerance, "pass": False}
    ]


def test_taxonomy_m_parity_follows_group(capsys):
    code, doc = run(
        capsys,
        ["taxonomy", "--group", "S2.1.3", "--params", '{"E12": 1, "lam11": 1, "lam12": 0}'],
    )
    assert code == 0
    assert doc["inputs"]["m_parity"] == 1
    assert doc["values"]["admissible_groups"] == ["S2.1.3"]
    code, doc = run(capsys, ["taxonomy", "--group", "S2.1.1", "--draws", "3"])
    assert code == 0
    assert doc["inputs"]["m_parity"] == 0
    assert "S2.1.1" in doc["values"]["admissible_groups"]


def test_taxonomy_conflicting_m_parity_exit_2(capsys):
    code = cli.main(["taxonomy", "--m-parity", "1", "--group", "S2.1.1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "S2.1.3" in captured.err  # names the groups admissible for odd m


def test_taxonomy_draws_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["taxonomy", "--group", "S2.2.2", "--draws", "0"])
    capsys.readouterr()
    assert exc.value.code == 2


@pytest.mark.parametrize("dim", [3, 4])
def test_verify_decompose_higher_dims(capsys, dim):
    code, doc = run(capsys, ["verify", "--suite", "decompose", "--dim", str(dim), "--grid", "8"])
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert names[-2:] == ["norm_budget", "cross_relation"]
    assert all(c["pass"] for c in doc["checks"])


@pytest.mark.parametrize("seed", ["4", "12", "42", "55", "85"])
def test_verify_decompose_dim_4_checks_no_quadrature_at_degree_1(capsys, seed):
    # each seed draws a k = 0 wave, so the forms have a harmonic part.  D(1) is
    # odd on T^4, but T^(1) T^(1) is not -I, so the quadrature relation, which
    # needs the middle degree, would fail there
    argv = ["verify", "--suite", "decompose", "--dim", "4", "--grid", "8", "--seed", seed]
    code, doc = run(capsys, argv)
    assert code == 0
    assert max(c["residual"] for c in doc["checks"]) < 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        *(
            ["verify", "--suite", "decompose", "--dim", dim, "--grid", grid]
            for dim in "1234"
            for grid in ("4", "6")
        ),
        ["decompose", "--preset", "random", "--grid", "4"],
        ["decompose", "--preset", "random", "--grid", "6"],
    ],
    ids=" ".join,
)
def test_random_fields_on_small_grids_stay_below_nyquist(capsys, argv):
    # a wave at or above Nyquist aliases, and its residue fails residue_norm
    for seed in "012":
        code, doc = run(capsys, argv + ["--seed", seed])
        assert code == 0, [c for c in doc["checks"] if not c["pass"]]


def test_em_reports_no_maxwell_checks(capsys):
    # with the currents computed from F, both Maxwell residuals are 0 by construction
    code, doc = run(capsys, ["em", "--preset", "mixed", "--grid", "8"])
    assert code == 0
    assert not [c["name"] for c in doc["checks"] if c["name"].startswith("maxwell")]


@pytest.mark.parametrize("argv,flag", [(["--s", "-1"], "--s"), (["--m-parity", "3"], "--m-parity")])
def test_taxonomy_out_of_range_parities_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["taxonomy", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"error: argument {flag}:" in captured.err


def test_taxonomy_missing_param_names_group_and_key(capsys):
    code = cli.main(["taxonomy", "--group", "S2.1.3", "--params", '{"E12": 1}'])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "group S2.1.3 needs the parameter 'lam11'" in captured.err


@pytest.mark.parametrize(
    "group,params,message",
    [
        ("S2.1.3", '{"E12": 1, "lam11": 1, "lam12": Infinity}', "needs a finite number for 'lam12'"),
        ("S2.1.3", '{"E12": 1e400, "lam11": 1}', "needs a finite number for 'E12'"),
        ("S2.1.3", '{"E12": NaN, "lam11": 1}', "needs a finite number for 'E12'"),
        ("S2.1.2", '{"E12": 1, "sign": 1.5}', "needs the parameter 'sign' = +1 or -1"),
        ("S2.1.2", '{"E12": 1, "sign": -1.9}', "needs the parameter 'sign' = +1 or -1"),
        ("S2.1.3", '{"E12": 1, "lam11": 1, "lam21": 5}', "has no parameter 'lam21'"),
        ("S2.1.1", '{"E12": "1", "lam11": 1}', "needs a finite number for 'E12', got '1'"),
        ("S2.1.1", '{"E12": true, "lam11": 1}', "needs a finite number for 'E12', got True"),
        ("S2.1.2", '{"E12": 1, "sign": true}', "needs the parameter 'sign' = +1 or -1"),
    ],
)
def test_taxonomy_bad_param_names_group_and_key(capsys, group, params, message):
    # a non-finite value, a sign that is not exactly +1 or -1, or a key the group
    # does not have is refused
    code = cli.main(["taxonomy", "--group", group, "--params", params])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: group {group} {message}" in captured.err


@pytest.mark.parametrize(
    "group,params,message",
    [
        ("S2.1.1", '{"E12": 1e300, "lam11": 1}', "a forced entry of E, T or Lambda overflows"),
        ("S2.1.1", '{"E12": 1e200, "lam11": 1e-200}', "a forced entry of E, T or Lambda overflows"),
        # E is invertible; lam22 = E12^2 / lam11 underflows to 0, so det T = 0
        ("S2.1.1", '{"E12": 1e-300, "lam11": 1}', "det T = 0.0 misses the group's -1.0"),
        ("S2.2.2", '{"E11": 1e-200, "E22": 1e-200}', "E11 * E22 underflows to 0"),
    ],
)
def test_taxonomy_out_of_range_triple_is_a_usage_error(capsys, group, params, message):
    code = cli.main(["taxonomy", "--group", group, "--params", params])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: {group}: {message}" in captured.err


@pytest.mark.parametrize("R", ["inf", "nan", "1e300"])
def test_non_finite_embedded_torus_is_a_usage_error(capsys, R):
    code = cli.main(["torus2", "--mode", "embedded", "--grid", "8", "--R", R])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"R={float(R)}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # finite factors whose product overflows: sqrt|g| is inf
        ["torus2", "--mode", "embedded", "--grid", "6", "--R", "1e154", "--r", "1e153"],
        # g_vv = r^2 = 1e-320 is subnormal
        ["verify", "--suite", "core", "--metric", "embedded-torus", "--grid", "8", "--R", "2",
         "--r", "1e-160"],
        # every factor is normal, but star's degree-1 coefficient sqrt|g| / g_uu = 1.2e-308 is not
        ["torus2", "--mode", "embedded", "--grid", "6", "--R", "1.3e154", "--r", "1.6e-154"],
    ],
    ids=" ".join,
)
@pytest.mark.filterwarnings("error")  # the refusal computes under errstate: no RuntimeWarning
def test_degenerate_embedded_metric_is_a_usage_error(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    R, r = float(argv[-3]), float(argv[-1])
    assert "error: degenerate metric" in captured.err and f"(R={R}, r={r})" in captured.err


def test_a_failed_fast_diagonalization_is_a_failed_green_solve(capsys, monkeypatch):
    # LinAlgError is a ValueError, which main reports as a usage error
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code = cli.main(["verify", "--suite", "decompose", "--metric", "embedded-torus", "--grid", "8"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: fast diagonalization: Eigenvalues did not converge\n"
    doc = json.loads(captured.out, parse_constant=lambda token: pytest.fail(f"{token} in a report"))
    assert doc["checks"] == [
        {"name": "green_solve", "residual": None, "tolerance": calculus.GREEN_TOL, "pass": False}
    ]


@pytest.mark.filterwarnings("error")
def test_an_overflowing_fast_diagonalization_is_a_failed_green_solve(capsys):
    # g_uu / (g_vv h^2) near 1e400 overflows A^-1/2 K A^-1/2: the check
    # fails before eigh, without a RuntimeWarning
    argv = ["verify", "--suite", "decompose", "--metric", "embedded-torus", "--grid", "8"]
    code = cli.main(argv + ["--R", "1e100", "--r", "1e-100"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: fast diagonalization: A^-1/2 K A^-1/2 overflows\n"
    doc = json.loads(captured.out, parse_constant=lambda token: pytest.fail(f"{token} in a report"))
    assert doc["checks"] == [
        {"name": "green_solve", "residual": None, "tolerance": calculus.GREEN_TOL, "pass": False}
    ]


def test_verify_core_dim_1_reports_adjointness_only(capsys):
    # d d and delta delta need a degree-2 form, which a circle does not have
    code, doc = run(capsys, ["verify", "--suite", "core", "--dim", "1", "--grid", "16"])
    assert code == 0
    assert [c["name"] for c in doc["checks"]] == ["adjointness"]


def test_taxonomy_params_must_be_an_object(capsys):
    code = cli.main(["taxonomy", "--group", "S2.1.1", "--params", "[1]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: --params" in captured.err


def test_tol_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "core", "--grid", "8", "--tol", "1"])
    capsys.readouterr()
    assert exc.value.code == 2


# checks that read 0 by construction on a flat metric are reported on curved ones only
CURVED_ONLY = {
    "core": {"star_star_degree_0", "star_star_degree_1", "star_star_degree_2", "pairing_symmetry"},
    "cohomology": {"delta_closure"},
}


@pytest.mark.parametrize("suite", sorted(CURVED_ONLY))
def test_verify_zero_by_construction_checks_only_on_curved(capsys, suite):
    argv = ["verify", "--suite", suite, "--grid", "32"]
    code, flat = run(capsys, argv)
    assert code == 0
    code, curved = run(capsys, argv + ["--metric", "embedded-torus"])
    assert code == 0
    flat_names = {c["name"] for c in flat["checks"]}
    curved_names = {c["name"] for c in curved["checks"]}
    assert not flat_names & CURVED_ONLY[suite]
    assert curved_names - flat_names == CURVED_ONLY[suite]
    # Lambda is built symmetric, so its asymmetry is never reported
    assert "identity_lambda_sym" not in flat_names | curved_names


# the identity battery: one verify_pair, which builds T, Lambda and the triple once
BATTERY = {"verify_pair": 1, "matrix_T": 1, "matrix_Lambda": 1, "verify_triple": 1}


def test_verify_cohomology_builds_T_once_at_the_middle_degree(capsys, monkeypatch):
    calls = count_calls(monkeypatch, cohomology, tuple(BATTERY))
    for argv, expected in (
        (["verify", "--suite", "cohomology", "--grid", "16"], BATTERY),
        (["verify", "--suite", "decompose", "--grid", "16"], {"matrix_T": 1}),
        (["torus2", "--mode", "flat", "--grid", "16"], BATTERY),
        (["torus2", "--mode", "embedded", "--grid", "32"], BATTERY),
    ):
        calls.clear()
        code, _ = run(capsys, argv)
        assert code == 0 and calls == expected, argv


def test_taxonomy_draws_run_one_stacked_check(capsys, monkeypatch):
    calls = count_calls(monkeypatch, cohomology, ("verify_triple",))
    monkeypatch.setattr(taxonomy, "verify_triple", cohomology.verify_triple)
    code, _ = run(capsys, ["taxonomy", "--group", "S2.2.2", "--s", "1", "--draws", "100"])
    assert code == 0 and calls == {"verify_triple": 1}


def test_a_second_em_command_rebuilds_no_sign(capsys, monkeypatch):
    # the permutation signs are cached per index tuples, the star stacks per grid
    em_commands = [argv for argv in readme_commands() if argv[0] == "em"]
    assert len(em_commands) == 2
    run(capsys, em_commands[0])
    calls = count_calls(monkeypatch, mesh, ("permutation_sign",))
    code, _ = run(capsys, em_commands[1])
    assert code == 0 and calls["permutation_sign"] == 0


@pytest.mark.parametrize("metric,evaluated", [("flat", 4), ("embedded-torus", 9)])
def test_verify_core_evaluates_only_the_forms_it_checks(capsys, monkeypatch, metric, evaluated):
    # every form's waves are drawn, so a seed gives the checks the same forms
    # on both metrics, but the five flat-only discards are never evaluated
    calls = count_calls(monkeypatch, fields, ("random_modes", "random_trig_form"))
    code, _ = run(capsys, ["verify", "--suite", "core", "--grid", "16", "--metric", metric])
    assert code == 0 and calls == {"random_modes": 9, "random_trig_form": evaluated}


def test_verify_inputs_record_dim_and_metric(capsys):
    argv = ["verify", "--suite", "cohomology", "--grid", "32"]
    code, flat = run(capsys, argv)
    assert code == 0
    code, curved = run(capsys, argv + ["--metric", "embedded-torus"])
    assert code == 0
    assert flat["inputs"] == {
        "suite": "cohomology", "dim": 2, "metric": "flat", "R": 2.0, "r": 1.0, "grid": 32, "seed": 0
    }
    assert curved["inputs"] == dict(flat["inputs"], metric="embedded-torus")


def test_inputs_differ_when_R_differs(capsys):
    # R changes T on the embedded torus, so it must be recorded
    argv = ["verify", "--suite", "cohomology", "--grid", "32", "--metric", "embedded-torus"]
    code, R2 = run(capsys, argv + ["--R", "2"])
    assert code == 0
    code, R3 = run(capsys, argv + ["--R", "3"])
    assert code == 0
    assert R2["matrices"]["T"] != R3["matrices"]["T"]
    assert (R2["inputs"]["R"], R3["inputs"]["R"]) == (2.0, 3.0)


def test_taxonomy_inputs_carry_params_and_draws(capsys):
    params = '{"E12": 1, "lam11": 1, "lam12": 0}'
    code, doc = run(capsys, ["taxonomy", "--group", "S2.1.3", "--params", params])
    assert code == 0
    assert doc["inputs"]["params"] == params
    code, doc = run(capsys, ["taxonomy", "--group", "S2.2.2", "--s", "1", "--draws", "7"])
    assert code == 0
    assert doc["inputs"]["draws"] == 7 and doc["inputs"]["params"] is None


@pytest.mark.parametrize(
    "argv",
    [
        # the electromagnetic battery is `em --preset mixed`
        ["verify", "--suite", "em", "--grid", "8"],
        # taxonomy builds no grid
        ["taxonomy", "--grid", "8"],
        # the em layer works in units mu0 = c = 1; --c is no prefix of --charges
        ["em", "--grid", "8", "--mu0", "1"],
        ["em", "--grid", "8", "--c", "1"],
    ],
)
def test_removed_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""


def test_every_numeric_failure_has_a_stage():
    subclasses = calculus.NumericFailure.__subclasses__()
    assert {cls.__name__ for cls in subclasses} >= {
        "GreenSolveError", "DualityError", "StarExpansionError"
    }
    stages = [cls.stage for cls in subclasses]
    assert all(isinstance(stage, str) and stage for stage in stages)
    assert len(set(stages)) == len(stages)


def test_em_topological_reports_no_continuous_terms_check(capsys):
    # every stencil of the constant field is 0, so AE = AM = JE = JM = 0 exactly
    code, doc = run(capsys, ["em", "--preset", "topological", "--grid", "8"])
    assert code == 0
    assert "continuous_terms_zero" not in [c["name"] for c in doc["checks"]]
    assert doc["values"]["action"]["electric"] == doc["values"]["action"]["magnetic"] == 0.0


@pytest.mark.parametrize(
    "argv,name",
    [
        # every basis form has one nonzero component, so both sides of E's
        # transpose rule sum the same products
        (["verify", "--suite", "cohomology", "--grid", "16"], "identity_e_transpose"),
        (
            ["verify", "--suite", "cohomology", "--grid", "32", "--metric", "embedded-torus"],
            "identity_e_transpose",
        ),
        (["verify", "--suite", "cohomology", "--grid", "8", "--dim", "4"], "identity_e_transpose"),
    ],
)
def test_verify_reports_no_literal_zero(capsys, argv, name):
    code, doc = run(capsys, argv)
    assert code == 0
    assert name not in [c["name"] for c in doc["checks"]]


def skew_first_basis_form(monkeypatch, eps, wave):
    """gamma_0 -> (1 + eps) gamma_0 + eps gamma_1 + wave gamma_0(0) cos(x_0) dx^0.

    Every flat basis form is a grid.constant_form; the one of the first
    cycle is perturbed before its cycle integrals are taken.  The mix of
    gamma_1 shears the cycle matrix, the scale moves det T, and the exact
    wave, parallel to d(sin u), leaves a residue that the norm budget sees.
    No rescaling of the basis undoes all three.
    """
    constant_form = PeriodicGrid.constant_form

    def skewed(grid, degree, values):
        keys = grid.components_of_degree(degree)
        form = constant_form(grid, degree, values)
        if list(values) != keys[:1] or len(keys) < 2:
            return form
        s = values[keys[0]]
        mix = constant_form(grid, degree, {keys[0]: eps * s, keys[1]: eps * s})
        exact = grid.zeros(degree)
        exact.components[keys[0]][:] = wave * s * np.cos(grid.coords[keys[0][0]])
        return form + mix + exact

    monkeypatch.setattr(PeriodicGrid, "constant_form", skewed)


# checks that read 0.0, or one rounding of a sum (norm_budget of mixed-t2:
# 1.6e-16), on these flat runs, where every sum is over constants or over
# the one axis the compact preset varies on; a perturbed basis must fail each
ZERO_CHECKS = [
    (["torus2", "--mode", "flat", "--grid", "128"],
     ["TT_identity", "ET_identity", "reality", "normalization"]),
    (["verify", "--suite", "cohomology", "--grid", "32"],
     ["identity_tt", "identity_et", "normalization"]),
    (["decompose", "--preset", "mixed-t2", "--grid", "64"],
     ["cross_relation", "norm_budget", "topological_term_25"]),
]


@pytest.mark.parametrize("argv,names", ZERO_CHECKS, ids=lambda x: " ".join(x))
def test_checks_at_zero_fail_on_a_perturbed_basis(capsys, monkeypatch, argv, names):
    code, doc = run(capsys, argv)
    checks = {c["name"]: c for c in doc["checks"]}
    assert code == 0 and all(checks[name]["pass"] for name in names)
    skew_first_basis_form(monkeypatch, eps=1e-7, wave=4e-7)
    code, doc = run(capsys, argv)
    checks = {c["name"]: c for c in doc["checks"]}
    assert code == 1 and "star_expansion" not in checks
    for name in names:
        assert checks[name]["residual"] > 2 * checks[name]["tolerance"], name


def test_presets_are_compact(t2_flat, t4_mink):
    basis2 = cohomology.build_basis(t4_mink, 2)
    N = t4_mink.shape[1]
    shapes = {"topological": (6, 1, 1, 1, 1), "exact": (6, 1, N, 1, 1), "mixed": (6, 1, N, 1, 1)}
    presets = [fields.em_preset(name, basis2, None) for name in shapes]
    assert [F.values.shape for F in presets] == list(shapes.values())
    phi = fields.mixed_t2(cohomology.build_basis(t2_flat, 1))
    assert phi.values.shape == (2, t2_flat.shape[0], 1)
    for form in presets + [phi]:
        with pytest.raises(ValueError, match="read-only"):
            form.values[0, ...] = 0.0


@pytest.mark.parametrize(
    "argv", [argv for argv in readme_commands() if "--preset" in argv], ids=" ".join
)
def test_readme_presets_take_partials_along_one_axis(capsys, monkeypatch, argv):
    # each preset varies along one axis at most, and so does every array
    # that d and delta differentiate
    sizes = []
    partial = calculus.partial

    def recorded(arr, axis, grid):
        sizes.append((arr.size, max(grid.shape)))
        return partial(arr, axis, grid)

    monkeypatch.setattr(calculus, "partial", recorded)
    code, _ = run(capsys, argv)
    assert code == 0 and sizes
    assert all(size <= longest_axis for size, longest_axis in sizes)


@pytest.mark.parametrize(
    "argv",
    [
        ["torus2", "--mode", "embedded", "--grid", "32"],
        ["verify", "--suite", "cohomology", "--metric", "embedded-torus", "--grid", "32"],
    ],
    ids=" ".join,
)
def test_curved_basis_runs_no_green_solve(capsys, monkeypatch, argv):
    calls = count_calls(monkeypatch, calculus, ("green_solve", "_curved_symbols"))
    code, _ = run(capsys, argv)
    assert code == 0 and calls == {}


@pytest.mark.parametrize(
    "argv",
    [
        ["torus2", "--mode", "embedded", "--grid", "8"],
        ["torus2", "--mode", "embedded", "--R", "1.01", "--r", "1", "--grid", "16"],
    ],
    ids=" ".join,
)
def test_small_and_thin_embedded_tori_pass(capsys, argv):
    # the closed-form basis spans star(gamma) at any resolution
    code, doc = run(capsys, argv)
    assert code == 0
    assert max(c["residual"] for c in doc["checks"]) <= 1e-14


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()
