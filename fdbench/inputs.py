"""Seeded input pools for the benchmark workloads.

The generator lives here, not in ``formdec.fields``, so that editing the
package cannot change what the benchmark feeds it.  Forms are sums of
``amp * cos(k.x + phase)`` per component with integer wave vectors
``|k_a| <= 3`` and 4 modes, the distribution of the CLI ``random`` preset.
Draws are not filtered except where noted below.
"""

from __future__ import annotations

import math

import numpy as np

KMAX = 3
NMODES = 4


def wave_vectors(rng, dim, accept=None):
    """NMODES integer wave vectors, each redrawn until ``accept(k)`` holds."""
    out = []
    while len(out) < NMODES:
        k = rng.integers(-KMAX, KMAX + 1, size=dim)
        if accept is None or accept(k):
            out.append(k)
    return out


def trig_component(grid, rng, accept=None):
    """One component: a sum of NMODES random cosines sampled on the grid."""
    # phase of wave number k at node n is 2 pi k n / N, whatever the period
    axes = [np.arange(N) * (2.0 * math.pi / N) for N in grid.shape]
    comp = np.zeros(grid.shape)
    for k in wave_vectors(rng, grid.dim, accept):
        amp = float(rng.uniform(-1.0, 1.0))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        arg = phase
        for a, x in enumerate(axes):
            shape = [1] * grid.dim
            shape[a] = -1
            arg = arg + k[a] * x.reshape(shape)
        comp += amp * np.cos(arg)
    return comp


def trig_form(grid, degree, rng, accept=None):
    """A random degree-p form on the grid, one independent component each."""
    f = grid.zeros(degree)
    for I in f.components:
        f.components[I][:] = trig_component(grid, rng, accept)
    return f


def off_light_cone(k):
    """True unless k lies on the light cone k0^2 = k1^2 + k2^2 + k3^2.

    A light-cone (or zero) wave vector gives a 1-form A whose dA is
    harmonic on the Minkowski torus: it lands in the residue phi_0 by
    design, so the potentials' reconstruction check cannot pass on it.
    This is the one exclusion the generator makes.
    """
    return int(k[0]) ** 2 != int(k[1]) ** 2 + int(k[2]) ** 2 + int(k[3]) ** 2


def charge_vector(rng, betti):
    """Integer topological charges in -2..2, one per 2-cycle class."""
    return rng.integers(-2, 3, size=betti).astype(float)


def cli_seeds(rng, count):
    """Seeds handed to the CLI's --seed flag, one per op in the pool."""
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]
