"""Forward and inverse Born series for diffuse and scalar waves.

Discretizes the scattering problem on a ball support with spherical
source/detector arrays, solves the forward problem directly, evaluates the
Born series and the inverse Born series with explicit convergence, stability
and error constants, and certifies remainders against the direct solve.
"""

from .bounds import (
    ConstantSet,
    CertifiedBounds,
    closed_form_constants,
    convergence_radii,
    dilog,
    interpolate_constants,
    k_from_optical,
    mu_closed_form,
    mu_numeric_sweep,
    numeric_constants,
    nu_bound,
)
from .forward import (
    BornSeries,
    born_series,
    born_term,
    residual_certificate,
    solve_direct,
)
from .greens import (
    OperatorSet,
    WaveMode,
    assemble,
    greens_kernel,
    self_cell_integral,
)
from .grid import (
    BoundaryArray,
    Grid,
    build_ball_grid,
    build_sphere_boundary,
    data_norm,
    field_norm,
    lp_norm,
)
from .inverse import (
    LinearizedOperator,
    RegularizedInverse,
    diagnostics,
    inverse_series,
    linearized_operator,
    regularize,
    stability_probe,
)

__version__ = "0.1.0"
