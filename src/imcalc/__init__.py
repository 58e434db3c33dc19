"""Exact symbolic Cartan calculus on Lie algebroids.

Represents algebroids in polynomial coordinate charts with exact rational
coefficients and mechanically verifies infinitesimal-multiplicativity theory:
IM k-form conditions, the linear-form decomposition, tangent and cotangent
prolongation algebroids, Gerstenhaber-derivation conditions for linear
multivector fields, and the two central equivalences via independent
computational oracles (plus a third, Weil-cochain route for forms).

The package root re-exports the names of README's quick tour and the error
classes; everything else is imported from its module.
"""

from .algebroid import LieAlgebroid, tangent_prolongation
from .errors import AlgebroidError, AxiomError, CrossCheckError, OracleDisagreement
from .forms import DifferentialForm
from .imforms import IMForm, check_im_form, im_form_from_base_form, oracle_equivalence
from .linforms import BundleForms, NotLinearError
from .poly import ChartError, ParseError, base_chart, parse

__version__ = "0.1.0"
