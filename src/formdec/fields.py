"""Seeded random trigonometric-polynomial forms and named preset fields
used by the CLI and the test suites."""

from __future__ import annotations

import numpy as np

from . import calculus
from .mesh import DiscreteForm, linear_combination

KMAX = 3
NMODES = 4


def random_trig_form(grid, degree, rng):
    """Random form whose components are trig polynomials below Nyquist.

    Each component is a sum of NMODES waves amp*cos(k.x + phase) with
    integer wave vectors bounded by KMAX, so derivatives and integrals
    are exact for the spectral-accuracy arguments used in the checks.
    """
    f = grid.zeros(degree)
    for comp in f.values:
        for _ in range(NMODES):
            k = rng.integers(-KMAX, KMAX + 1, size=grid.dim)
            amp = float(rng.uniform(-1.0, 1.0))
            phase = float(rng.uniform(0.0, 2.0 * np.pi))
            arg = phase
            for a in range(grid.dim):
                arg = arg + (2.0 * np.pi * k[a] / grid.spec.periods[a]) * grid.coords[a]
            comp += amp * np.cos(arg)
    return f


def mixed_t2(grid, basis):
    """d(sin u) + 3 gamma_1 + 4 gamma_2 on a 2-torus; u = (3, 4) by design."""
    if grid.dim != 2:
        raise ValueError("mixed-t2 preset needs a 2-torus")
    sin_u = np.broadcast_to(np.sin(grid.coords[0]), (1,) + grid.shape)
    scalar = DiscreteForm(grid, 0, sin_u.copy())
    return linear_combination([calculus.d(scalar)] + basis.gammas, [1.0, 3.0, 4.0])


def exact_t2(grid):
    """Purely exact 1-form d(sin u + cos 2v) on a 2-torus."""
    if grid.dim != 2:
        raise ValueError("exact-t2 preset needs a 2-torus")
    scalar = DiscreteForm(grid, 0, (np.sin(grid.coords[0]) + np.cos(2.0 * grid.coords[1]))[None])
    return calculus.d(scalar)


def em_gauge_potential(grid):
    """A smooth gauge-fixed 1-form A0 = sin(x1) dx2 on the 4-torus."""
    A = grid.zeros(1)
    A.components[(2,)][:] = np.sin(grid.coords[1])
    return A


def em_preset(name, grid, basis2, mu0=1.0, c=1.0, charge_list=None):
    """Named electromagnetic 2-form presets on the Minkowski 4-torus.

    topological: mu0 c sum of charges on cohomology classes (default 1@01);
    exact:       F = d A0 for the smooth gauge potential A0;
    mixed:       both contributions together.
    """
    charge_list = charge_list or [(1.0, (0, 1))]
    comps = grid.components_of_degree(2)
    classes = []
    for q, pair in charge_list:
        if tuple(pair) not in comps:
            raise ValueError(f"unknown cohomology class {pair}")
        classes.append(basis2.gammas[comps.index(tuple(pair))])
    topo = linear_combination(classes, [mu0 * c * q for q, _ in charge_list])
    if name == "topological":
        return topo
    exact = calculus.d(em_gauge_potential(grid))
    if name == "exact":
        return exact
    if name == "mixed":
        return exact + topo
    raise ValueError(f"unknown em preset {name!r}")
