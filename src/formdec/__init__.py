"""Numerical exterior calculus on pseudo-Riemannian periodic grids:
Hodge decomposition with cohomology terms, the duality matrix system
(E, T, Lambda, P), norm/action quantization, and the electromagnetic
application on a Minkowski 4-torus."""

from .mesh import (
    DiscreteForm,
    GridSpec,
    PeriodicGrid,
    build_grid,
    integrate_cycle_mean,
    integrate_manifold,
    wedge,
    wedge_integral,
)
from .calculus import (
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
from .cohomology import (
    CheckReport,
    CohomologyBasis,
    DualityError,
    StarExpansionError,
    build_basis,
    matrix_E,
    matrix_Lambda,
    matrix_T,
    verify_pair,
    verify_triple,
)
from .decompose import (
    Decomposition,
    NormBreakdown,
    cross_relation_check,
    dual_decompose,
    hodge_decompose,
    norm_decompose,
)
from .taxonomy import (
    InfeasibleGroupError,
    TaxonomySolution,
    admissible_groups,
)
from .em import (
    ActionBreakdown,
    ChargeSet,
    action,
    charge_relations,
    charges,
    currents,
    lambda_scale,
    maxwell_residuals,
    monopole_dipole,
    potentials,
)

__version__ = "0.1.0"
