"""hodge_decompose on flat grids: alpha and beta from one real-FFT projection.

The projection is checked against the Green solves it replaces, and its
residue against the stencils: d(alpha) and delta(beta) stay stencil
operators, so a symbol that does not match them shows in the residue.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from formdec import GridSpec, build_grid, calculus, cohomology, fields
from formdec.decompose import hodge_decompose
from formdec.mesh import DiscreteForm

from test_decompose import every_degree_basis
from test_stencil_properties import (
    FAST,
    count_calls,
    deflation_mask,
    flat_grids,
    light_cone_condition,
    random_form,
)

TWO_PI = 2.0 * math.pi


def off_kernel_form(grid, p, seed):
    """random_form without the deflated modes, which belong to the residue."""
    mask = deflation_mask(grid)
    raw = random_form(grid, p, seed)
    comps = [np.fft.ifftn(np.where(mask, 0.0, np.fft.fftn(c))).real for c in raw.values]
    return DiscreteForm(grid, p, np.stack(comps))


def check_projection(grid, seed):
    """The projection's alpha, beta against the Green solves it replaces."""
    for basis in every_degree_basis(grid):
        p = basis.degree
        phi = off_kernel_form(grid, p, seed)
        bound = 1e-12 * max(1.0, phi.norm_inf())
        dec = hodge_decompose(phi, basis)
        if p > 0:
            alpha, _ = calculus.green_solve(calculus.delta(phi))
            assert (dec.alpha - alpha).norm_inf() <= bound, p
        if p < grid.dim:
            beta, _ = calculus.green_solve(calculus.d(phi))
            assert (dec.beta - beta).norm_inf() <= bound, p
        assert dec.reconstruction_error <= 1e-12, p


# The bounds are rounding bounds, and the rounding grows with the light-cone
# condition (light_cone_condition), up to 1/DEFLATION_TOL: near the discrete
# light cone the exact and coexact parts are each that factor larger than
# phi.  Up to 1e3 they hold with a margin of about 7.
@FAST
@given(grid=flat_grids(), seed=st.integers(0, 2**32 - 1))
def test_flat_projection_matches_green_solves(grid, seed):
    assume(light_cone_condition(grid) <= 1e3)
    check_projection(grid, seed)


@pytest.mark.xfail(strict=True, reason="rounding near the discrete light cone")
def test_flat_projection_near_light_cone():
    # light-cone condition 2.9e5: the residue reads 8.3e-12
    grid = build_grid(GridSpec(3, (10, 12, 8), (2.5, 2.5, 2.0), (1, -1, -1)))
    check_projection(grid, 0)


def test_flat_residue_ties_projection_to_stencils():
    # with every sigma_a off by 1e-6, d and G of the projection no longer
    # match the stencils that d(alpha) and delta(beta) apply
    residues = []
    for scale in (1.0, 1.0 + 1e-6):
        grid = build_grid(GridSpec(2, (32, 32), (TWO_PI, TWO_PI), (1, 1)))
        basis = cohomology.build_basis(grid, 1)
        # the cached symbols are read-only: replace them with scaled copies
        sigmas = calculus._axis_symbols(grid)
        grid._symbol_cache["sigma"] = tuple(sigma * scale for sigma in sigmas)
        phi = fields.random_trig_form(grid, 1, np.random.default_rng(63))
        residues.append(hodge_decompose(phi, basis).reconstruction_error)
    assert residues[0] <= 1e-12
    assert residues[1] > 1e-8


@pytest.mark.parametrize(
    "dim,signature,points,p,partials",
    [(2, (1, 1), 32, 1, 4), (4, (-1, 1, 1, 1), 16, 2, 24)],
)
def test_flat_decompose_runs_no_green_solve(monkeypatch, dim, signature, points, p, partials):
    # d(alpha) and delta(beta) are the only stencils; no Green solve and no
    # complex FFT runs
    grid = build_grid(GridSpec(dim, (points,) * dim, (TWO_PI,) * dim, signature))
    basis = cohomology.build_basis(grid, p)
    phi = fields.random_trig_form(grid, p, np.random.default_rng(64))
    calls = count_calls(monkeypatch, calculus, ("green_solve", "partial"))
    ffts = count_calls(monkeypatch, np.fft, ("fftn", "ifftn"))
    hodge_decompose(phi, basis)
    assert calls == {"partial": partials}
    assert ffts == {}
