import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from formdec import GridSpec, build_grid
from formdec import calculus, fields
from formdec.calculus import (
    GreenSolveError,
    SolveReport,
    d,
    delta,
    green_solve,
    laplacian,
    pairing,
    sign_C,
    sign_D,
    star,
)

from test_decompose import embedded_grids_12
from test_stencil_properties import FAST, count_calls, random_form

TWO_PI = 2.0 * math.pi


def test_sign_exponents():
    assert sign_D(1, 2, 0) == 1
    assert sign_D(2, 4, 1) == 1
    assert sign_D(0, 4, 1) == 1
    # D(p) = D(n-p) for all p
    for n in (2, 3, 4):
        for s in (0, 1):
            for p in range(n + 1):
                assert sign_D(p, n, s) == sign_D(n - p, n, s)


def test_star_flat_t2(t2_flat):
    du = t2_flat.constant_form(1, {(0,): 1.0})
    dv = t2_flat.constant_form(1, {(1,): 1.0})
    assert np.all(star(du).components[(1,)] == 1.0)
    assert np.all(star(du).components[(0,)] == 0.0)
    assert np.all(star(dv).components[(0,)] == -1.0)


def test_star_unit_and_volume(t2_flat, t2_embedded, t4_mink):
    for g in (t2_flat, t2_embedded, t4_mink):
        one = g.constant_form(0, {(): 1.0})
        top = tuple(range(g.dim))
        assert np.allclose(star(one).components[top], g.sqrt_abs_g)
        back = star(g.volume_form())
        sgn = (-1.0) ** g.neg_count
        assert np.allclose(back.components[()], sgn)


def test_star_minkowski_2forms(t4_mink):
    g01 = t4_mink.constant_form(2, {(0, 1): 1.0})
    g23 = t4_mink.constant_form(2, {(2, 3): 1.0})
    assert np.all(star(g01).components[(2, 3)] == -1.0)
    assert np.all(star(g23).components[(0, 1)] == 1.0)


def test_star_star_identity(t2_flat, t2_embedded, t4_mink):
    rng = np.random.default_rng(2)
    for g in (t2_flat, t2_embedded, t4_mink):
        for p in range(g.dim + 1):
            f = fields.random_trig_form(g, p, rng)
            sgn = -1.0 if sign_D(p, g.dim, g.neg_count) else 1.0
            err = (star(star(f)) - f * sgn).norm_inf()
            assert err <= 1e-12 * max(f.norm_inf(), 1.0)


def test_pairing_symmetry(t2_flat):
    rng = np.random.default_rng(4)
    a = fields.random_trig_form(t2_flat, 1, rng)
    b = fields.random_trig_form(t2_flat, 1, rng)
    assert abs(pairing(a, b) - pairing(b, a)) < 1e-12 * 100


def test_pairing_minkowski_indefinite(t4_mink):
    g01 = t4_mink.constant_form(2, {(0, 1): 1.0 / TWO_PI**2})
    assert abs(pairing(g01, g01) + 1.0) < 1e-12


def test_d_analytic(t2_flat):
    u = t2_flat.coords[0]
    f = t2_flat.zeros(1)
    f.components[(1,)][:] = np.sin(u)
    df = d(f)
    assert np.allclose(df.components[(0, 1)], np.cos(u), atol=1e-10)


def test_dd_zero(t2_flat, t4_mink):
    rng = np.random.default_rng(5)
    for g in (t2_flat, t4_mink):
        f = fields.random_trig_form(g, 0, rng)
        assert d(d(f)).norm_inf() <= 1e-10 * max(f.norm_inf(), 1.0)


def test_delta_delta_zero(t2_flat):
    rng = np.random.default_rng(6)
    f = fields.random_trig_form(t2_flat, 2, rng)
    assert delta(delta(f)).norm_inf() <= 1e-10 * max(f.norm_inf(), 1.0)


def test_delta_of_constant_1form(t2_flat):
    du = t2_flat.constant_form(1, {(0,): 1.0})
    assert delta(du).norm_inf() < 1e-14


def test_adjointness_many_pairs(t2_flat):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        c = fields.random_trig_form(t2_flat, 0, rng)
        a = fields.random_trig_form(t2_flat, 1, rng)
        scale = max(1.0, abs(pairing(c, c)), abs(pairing(a, a)))
        worst = max(worst, abs(pairing(d(c), a) - pairing(c, delta(a))) / scale)
    assert worst <= 1e-8


def test_adjointness_curved(t2_embedded):
    rng = np.random.default_rng(8)
    c = fields.random_trig_form(t2_embedded, 0, rng)
    a = fields.random_trig_form(t2_embedded, 1, rng)
    assert abs(pairing(d(c), a) - pairing(c, delta(a))) < 1e-8


def test_stencil_convergence_order():
    # derivative error on a non-band-limited function falls ~2^8 per doubling
    errs = []
    for N in (32, 64):
        g = build_grid(GridSpec(1, (N,), (TWO_PI,), (1,)))
        f = g.zeros(0)
        u = g.coords[0]
        f.components[()][:] = np.exp(np.sin(u))
        exact = np.cos(u) * np.exp(np.sin(u))
        df = calculus.d(f)
        errs.append(float(np.max(np.abs(df.components[(0,)] - exact))))
    ratio = errs[0] / errs[1]
    assert 128.0 < ratio < 512.0  # nominal 2^8 = 256


def test_laplacian_of_harmonic_representative(t2_flat):
    g1 = t2_flat.constant_form(1, {(0,): 1.0 / TWO_PI})
    assert laplacian(g1).norm_inf() < 1e-12


def test_laplacian_eigenfunction_consistency(t2_flat):
    # compare against the operator's own stencil composition
    f = t2_flat.zeros(0)
    f.components[()][:] = np.sin(t2_flat.coords[0])
    lap = laplacian(f)
    composed = delta(d(f))
    assert (lap - composed).norm_inf() < 1e-14
    # eigenfunction of the composed operator with positive sign (s = 0)
    assert np.allclose(lap.components[()], np.sin(t2_flat.coords[0]), atol=1e-8)


def test_minkowski_harmonic_not_strong_harmonic(t4_mink):
    A = t4_mink.zeros(1)
    A.components[(2,)][:] = np.sin(t4_mink.coords[0] - t4_mink.coords[1])
    assert laplacian(A).norm_inf() < 1e-8  # light-cone mode: harmonic
    assert d(A).norm_inf() > 0.5  # but not closed


def _probe_symbol(grid, I):
    """Reference Fourier symbol of the Laplacian on component I: the FFT of
    its response to a delta function.  Also checks that no other component
    responds."""
    probe = grid.zeros(len(I))
    probe.components[I][(0,) * grid.dim] = 1.0
    response = laplacian(probe)
    sym = np.fft.fftn(response.components[I])
    scale = float(np.max(np.abs(sym)))
    assert float(np.max(np.abs(sym.imag))) <= 1e-12 * scale
    for J, other in response.components.items():
        if J != I:
            assert float(np.max(np.abs(other))) <= 1e-12 * scale
    return sym.real


@pytest.mark.parametrize(
    "points,periods",
    [
        ((6,), (1.3,)),
        ((8, 6), (2.0, 5.1)),
        ((6, 4, 8), (1.0, 2.5, TWO_PI)),
        ((4, 6, 4, 8), (1.0, 2.0, 3.5, TWO_PI)),
    ],
)
def test_closed_form_symbol_matches_delta_probe(points, periods):
    dim = len(points)
    for signature in itertools.product((1, -1), repeat=dim):
        grid = build_grid(GridSpec(dim, points, periods, signature))
        sym = calculus._symbol_sum(grid, calculus._axis_symbols(grid))
        for p in range(dim + 1):
            for I in grid.components_of_degree(p):
                ref = _probe_symbol(grid, I)
                scale = float(np.max(np.abs(ref)))
                assert float(np.max(np.abs(sym - ref))) <= 1e-12 * scale


def test_green_round_trip_flat(t2_flat):
    rng = np.random.default_rng(9)
    theta0 = fields.random_trig_form(t2_flat, 1, rng)
    src = laplacian(theta0)
    theta, rep = green_solve(src)
    # equal up to the harmonic (constant) component
    diff = theta0 - theta
    for I, arr in diff.components.items():
        assert float(np.max(np.abs(arr - arr.mean()))) < 1e-8
    assert rep.relative_residual <= 1e-10


def test_green_pure_kernel_source(t2_flat):
    g1 = t2_flat.constant_form(1, {(0,): 1.0 / TWO_PI})
    theta, rep = green_solve(g1)
    assert theta.norm_inf() < 1e-14
    assert rep.deflated_dims >= 1


@pytest.mark.parametrize("fixture,degrees", [("t2_flat", (0, 1, 2)), ("t2_embedded", (0, 2))])
def test_green_zero_source_runs_no_solve(request, monkeypatch, fixture, degrees):
    grid = request.getfixturevalue(fixture)
    rng = np.random.default_rng(11)
    for p in degrees:
        # a nonzero source of the same degree gives the deflated count
        ref = green_solve(laplacian(fields.random_trig_form(grid, p, rng)))[1]
        assert ref.iterations == (1 if grid.is_flat else 2)
        with monkeypatch.context() as m:
            calls = count_calls(m, calculus, ("laplacian",))
            ffts = count_calls(m, np.fft, ("rfft", "irfft", "rfftn", "irfftn", "fftn", "ifftn"))
            theta, rep = green_solve(grid.zeros(p))
        assert calls == {} and ffts == {}
        assert rep == SolveReport(0, 0.0, ref.deflated_dims)
        assert theta.degree == p and not theta.values.any()


def test_green_minkowski_off_lightcone(t4_mink):
    src = t4_mink.zeros(1)
    src.components[(1,)][:] = np.sin(t4_mink.coords[0] + 2.0 * t4_mink.coords[1])
    theta, rep = green_solve(src)
    assert (laplacian(theta) - src).norm_inf() < 1e-9 * src.norm_inf()


def test_green_minkowski_lightcone_deflated(t4_mink):
    src = t4_mink.zeros(1)
    src.components[(1,)][:] = np.sin(t4_mink.coords[0] + t4_mink.coords[1])
    theta, rep = green_solve(src)
    # the mode sits exactly on the discrete light cone: removed, not solved
    assert theta.norm_inf() < 1e-12
    assert rep.deflated_dims > 2


def test_green_curved_round_trip(t2_embedded):
    scalar = t2_embedded.zeros(0)
    scalar.components[()][:] = np.cos(t2_embedded.coords[1])
    src = laplacian(scalar)
    theta, rep = green_solve(src)
    diff = theta.components[()] - scalar.components[()]
    assert float(np.max(np.abs(diff - diff.mean()))) < 1e-7
    assert rep.relative_residual <= 1e-9


def test_green_curved_minimum_norm(t2_embedded):
    # theta is orthogonal to the constants under the metric pairing
    rng = np.random.default_rng(4)
    theta, _ = green_solve(delta(fields.random_trig_form(t2_embedded, 1, rng)))
    one = t2_embedded.constant_form(0, {(): 1.0})
    assert abs(pairing(theta, one)) <= 1e-12 * theta.norm_inf()


@FAST
@given(grid=embedded_grids_12(), seed=st.integers(0, 2**32 - 1))
def test_green_curved_solves_d_and_delta(grid, seed):
    phi = random_form(grid, 1, seed)
    for src in (delta(phi), d(phi)):
        theta, rep = green_solve(src)
        assert rep.relative_residual <= 1e-11
        assert rep.deflated_dims == 4
        assert theta.degree == src.degree
    with pytest.raises(NotImplementedError, match="degrees 0 and 2"):
        green_solve(phi)


def test_curved_decompose_does_not_import_scipy():
    script = """
import math, sys
import numpy as np
from formdec import GridSpec, build_grid, cohomology, decompose, fields
grid = build_grid(GridSpec(2, (32, 32), (2 * math.pi,) * 2, (1, 1), "embedded-torus", 2.0, 1.0))
basis = cohomology.build_basis(grid, 1)
decompose.hodge_decompose(fields.random_trig_form(grid, 1, np.random.default_rng(0)), basis)
print("scipy" in sys.modules)
"""
    src_dir = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_green_curved_indefinite_rejected(t2_embedded):
    g = build_grid(
        GridSpec(2, (16, 16), (TWO_PI, TWO_PI), (-1, 1), metric="embedded-torus", R=2.0, r=1.0)
    )
    src = g.zeros(0)
    src.components[()][:] = np.cos(g.coords[1])
    with pytest.raises(NotImplementedError, match="only for s = 0"):
        green_solve(src)
    # the signature is checked before the degree, and both before a zero source returns
    with pytest.raises(NotImplementedError, match="only for s = 0"):
        green_solve(g.zeros(1))
    with pytest.raises(NotImplementedError, match="degrees 0 and 2"):
        green_solve(t2_embedded.zeros(1))


def test_curved_potentials_are_two_green_solves(monkeypatch):
    grid = build_grid(
        GridSpec(2, (32, 32), (TWO_PI, TWO_PI), (1, 1), metric="embedded-torus", R=2.0, r=1.0)
    )
    phi = fields.random_trig_form(grid, 1, np.random.default_rng(7))
    expected = (green_solve(delta(phi))[0], green_solve(d(phi))[0])
    degrees = []

    def recorded(source, **kwargs):
        degrees.append(source.degree)
        return green_solve(source, **kwargs)

    monkeypatch.setattr(calculus, "green_solve", recorded)
    got = calculus.potentials(phi)
    assert degrees == [0, 2]
    for form, ref in zip(got, expected):
        assert form.values.tobytes() == ref.values.tobytes()


def test_errors_on_bad_degrees(t2_flat):
    with pytest.raises(ValueError):
        d(t2_flat.volume_form())
    with pytest.raises(ValueError):
        delta(t2_flat.constant_form(0, {(): 1.0}))
