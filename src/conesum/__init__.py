"""Exact cone sums over unit-periodic fans in totally real number fields.

The package computes, in exact rational arithmetic, the window sums of the
dual rational values attached to the top cones of a good fan and verifies
their convergence to 1/N(x0); it also carries the polyhedral cycle duality
these sums rest on, an admissible-unit search in log space, and a numeric
L-value verification table for real quadratic modules.
"""

__version__ = "0.1.0"

from .field import (
    FieldElement,
    ScaledRational,
    TotallyRealField,
    UnitGroupData,
    det_scaled,
    embed,
    fundamental_unit_quadratic,
    is_totally_positive,
    limit_pair,
    make_field,
    norm,
    trace_pairing,
)
from .interval import Interval
from .geometry import Cone, LinearSubspace, ProjPolyhedron, dual_cone, primitive_generator
from .cycles import (
    Cycle,
    SimplexSpec,
    boundary,
    boundary_cycle,
    cpd_extend,
    dual_cycle,
    duality_check,
    is_cycle,
    simplex_cycle,
)
from .fan import (
    FanDescription,
    TruncatedFan,
    VertexSequence,
    build_quadratic_fan,
    refine_insert_ray,
    truncate,
    validate_good_fan,
)
from .summation import (
    ConeTerm,
    ConvergenceRow,
    TermForm,
    cocycle_value,
    cone_term,
    converge,
    dual_cocycle_value,
    hurwitz_area,
    partial_sum,
    sum_via_dual_cycle,
)
from .unitsearch import (
    AdmissibleCandidate,
    HullChart,
    LogLattice,
    check_admissible,
    check_admissible_bounds,
    exhaustion_contains,
    hull_chart,
    search_admissible,
    verify_vertices,
)
from .arith import (
    IntersectionData,
    LatticeModule,
    SatakePrediction,
    bernoulli,
    lvalue_numeric,
    quadratic_intersections,
    satake_report,
    satake_rhs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
