"""gawb: exact-arithmetic workbench for additive group actions on
hypersurface threefolds, torsors over the punctured plane and the projective
line, and divisor arithmetic on ruled surfaces."""

__version__ = "0.1.0"

from .poly import Poly, TermOrder, degrevlex, lex, render_poly
from .parse import PolyParseError, UndeclaredVariableError, parse_poly
from .quotient import (
    AlgebraPresentation,
    RationalPoint,
    RingElement,
    SmoothnessVerdict,
    sample_point,
    smoothness_check,
    unit_ideal_test,
)
from .derivations import (
    ActionMap,
    Derivation,
    GroupLaw,
    NilpotencyCertificate,
    NotNilpotentWithinBound,
    descends_to_quotient,
    exponential,
    is_slice,
    kernel_member,
    nilpotency_certificate,
    verify_action,
)

__all__ = [
    "__version__",
    "Poly",
    "TermOrder",
    "degrevlex",
    "lex",
    "render_poly",
    "PolyParseError",
    "UndeclaredVariableError",
    "parse_poly",
    "AlgebraPresentation",
    "RationalPoint",
    "RingElement",
    "SmoothnessVerdict",
    "sample_point",
    "smoothness_check",
    "unit_ideal_test",
    "ActionMap",
    "Derivation",
    "GroupLaw",
    "NilpotencyCertificate",
    "NotNilpotentWithinBound",
    "descends_to_quotient",
    "exponential",
    "is_slice",
    "kernel_member",
    "nilpotency_certificate",
    "verify_action",
]
