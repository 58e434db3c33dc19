"""Exact symbolic Cartan calculus on Lie algebroids.

Represents algebroids in polynomial coordinate charts with exact rational
coefficients and mechanically verifies infinitesimal-multiplicativity theory:
IM k-form conditions, the linear-form decomposition, tangent and cotangent
prolongation algebroids, Gerstenhaber-derivation conditions for linear
multivector fields, and the two central equivalences via independent
computational oracles (plus a third, Weil-cochain route for forms).
"""

from .algebroid import (
    CheckReport,
    FiberFunctional,
    LieAlgebroid,
    Section,
    Violation,
    anchor_apply,
    bracket_sections,
    check_axioms,
    check_morphism_to_line,
    cotangent_prolongation,
    section_bracket,
    tangent_prolongation,
)
from .errors import AlgebroidError, AxiomError, CrossCheckError, OracleDisagreement
from .forms import (
    DifferentialForm,
    Multivector,
    VectorField,
    contract,
    contract_covector,
    exterior_derivative,
    iterated_contract,
    lie_derivative,
    schouten,
    wedge,
)
from .imforms import (
    DiracCandidate,
    IMForm,
    check_im_form,
    check_lagrangian,
    dirac_candidate,
    im_form_from_base_form,
    im_form_relative,
    oracle_equivalence,
)
from .linforms import (
    BundleForms,
    NotLinearError,
    TotalChart,
    decompose,
    fiber_contraction,
    fiber_pairing_form,
    form_frame_functional,
    is_linear,
    linear_form,
    tangent_total_chart,
    total_chart,
    total_chart_of,
)
from .multivec import (
    Derivation,
    LinearMultivector,
    check_gerstenhaber_derivation,
    derivation_from_linear,
    gerstenhaber_bracket,
    is_linear_multivector,
    linear_from_derivation,
    multivector_frame_functional,
    oracle_equivalence_dual,
)
from .poly import (
    Chart,
    ChartError,
    Coord,
    ParseError,
    Polynomial,
    base_chart,
    format_polynomial,
    parse,
)
from .weil import (
    WeilCochain1,
    WeilCochain2Parts,
    check_weil_correspondence,
    cochain_from_bundle_forms,
    cochain_to_bundle_forms,
    horizontal_differential,
    horizontal_vanishing_report,
    linear_form_to_cochain,
)

__version__ = "0.1.0"
