import itertools
import math

import numpy as np
import pytest

from formdec import GridSpec, build_grid
from formdec import calculus, fields
from formdec.calculus import (
    GreenSolveError,
    d,
    delta,
    green_solve,
    laplacian,
    pairing,
    sign_C,
    sign_D,
    star,
)

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
        sym = calculus.laplacian_symbol(grid)
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
    theta, rep = green_solve(src, tol=1e-9)
    diff = theta.components[()] - scalar.components[()]
    assert float(np.max(np.abs(diff - diff.mean()))) < 1e-7
    assert rep.relative_residual <= 1e-9


def test_green_curved_indefinite_rejected():
    g = build_grid(
        GridSpec(2, (16, 16), (TWO_PI, TWO_PI), (-1, 1), metric="embedded-torus", R=2.0, r=1.0)
    )
    src = g.zeros(0)
    src.components[()][:] = np.cos(g.coords[1])
    with pytest.raises(NotImplementedError):
        green_solve(src)


def test_errors_on_bad_degrees(t2_flat):
    with pytest.raises(ValueError):
        d(t2_flat.volume_form())
    with pytest.raises(ValueError):
        delta(t2_flat.constant_form(0, {(): 1.0}))
