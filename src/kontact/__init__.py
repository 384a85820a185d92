"""kontact: a symbolic/numeric engine for k-contact geometry.

Exact-rational expression trees feed an exterior-calculus layer on explicit
charts; on top sit k-contact structure verification, Reeb frames, Legendrian
parametrizations, the pointwise field-equation solver with its pseudo-gauge
nullspace, the extensive-hydrodynamics chart, and the boost-invariant
expansion worked example.
"""

from .config import DEFAULT_CONFIG, RunConfig, default_seed
from .errors import (
    ChartMismatch,
    DomainError,
    IncompatibleKFunction,
    InconsistentSystem,
    KMismatch,
    KontactError,
    LengthMismatch,
    NotHomogeneous,
    NotIsotropic,
    ParseError,
    SampleDomainEmpty,
    SingularSystem,
    SourceNotRk,
    StructureDegenerateAtPoint,
    UnboundVariable,
    ZeroDegree,
    ZeroTestInconclusive,
)
from .expr import (
    ScalarExpr,
    as_expr,
    const,
    differentiate,
    evaluate,
    exp,
    free_variables,
    log,
    parse_expr,
    sqrt,
    substitute,
    var,
)
from .forms import (
    Chart,
    DifferentialForm,
    KVectorField,
    RkValuedOneForm,
    SmoothMap,
    VectorField,
    exterior_derivative,
    form_on_vectors,
    interior_product,
    interior_product_k,
    lie_bracket,
    lie_derivative_form,
    parameter_chart,
    prolongation,
    pullback,
    wedge,
)
from .kcontact import (
    KContactStructure,
    canonical_structure,
    check_polarization,
    check_reeb,
    check_reeb_commutation,
    compute_reeb,
    reeb_frame_check,
    verify_kcontact,
)
from .legendrian import (
    ParametrizingKFunction,
    build_parametrization,
    check_compatibility,
    check_gibbs_equality,
    legendrian_dimension,
    thermo_parametrization,
    thermo_structure,
    verify_isotropic,
)
from .hddw import (
    HdDWPointSolution,
    KContactHamiltonianSystem,
    check_constrained_solution,
    expected_nullspace_dim,
    hddw_rhs,
    integrate_contact_flow,
    pseudo_gauge_shift,
    section_residual,
    solve_hddw_at_point,
)
from .hydro import (
    entropy_current,
    equilibrium_conditions_residual,
    equilibrium_legendrian,
    hydro_kcontact_form,
    hydro_polarization,
    hydro_system,
)
from .bjorken import (
    BjorkenFlow,
    DissipativeDecomposition,
    PGTSuperpotential,
    apply_pgt,
    check_sigma_identity,
    entropy_production,
    expansion_scalar,
    full_pgt_demo,
    shear_tensor,
)
from .zerotest import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    Check,
    SampleDomain,
    combine,
    is_probably_zero,
    zero_check,
    zero_test,
)

__version__ = "0.1.0"
