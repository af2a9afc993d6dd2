"""Split-quaternion matrix machinery for a six-coordinate metric space.

Scalars live in the eight-dimensional algebra spanned by the split
units K, KL, L and a commuting complex unit l.  Six 4x4 matrices over
that algebra anticommute to twice a (+,+,+,-,-,+) metric; their plane
products exponentiate in closed form to a transformation group whose
coordinate action preserves the metric.  Null vectors with p + q != 0
project to four-coordinate points, on which the group acts by Lorentz
maps, a dilation, translations, and conformal translations.  A real
16x16 Kronecker representation mirrors everything over the plain reals.

Bundled reference tables (matrix transcriptions, coefficient tables)
are diffed against recomputation by the verification suites; the
recomputed values are always the ground truth, and table mismatches
are documented in reports rather than failing them.
"""

from .algebra import BASIS, H_UNITS, TensorScalar
from .clifford import (
    COORDS,
    METRIC,
    Vector6,
    build_P,
    build_X,
    extract_coords,
    gamma,
    inner_product,
    metric_form,
    sigma,
    verify_clifford,
)
from .conformal import (
    AT_INFINITY,
    MinkowskiPoint,
    NullVector,
    PointAtInfinity,
    apply_conformal_translation,
    classify_generators,
    conformal_translation_generator,
    embed_point,
    mobius_oracle,
    q_from_p,
    translation_generator,
    verify_conformal,
)
from .group import (
    PLANES,
    act_on_P,
    act_on_X,
    act_on_vector,
    appendix_check,
    canonical_plane,
    generator,
    plane_kind,
    so6_matrix,
    so6_step,
    verify_group,
    verify_properties,
)
from .matrices import (
    TensorMatrix,
    exp_nilpotent,
    quadratic_form,
)
from .report import Check, Report

__version__ = "1.0.0"

# Served by __getattr__, so that importing the package loads neither
# realrep nor numpy.
_REALREP_NAMES = (
    "real_gamma", "realify_matrix", "realify_scalar",
    "restrict_so31_second", "verify_realrep",
)


def __getattr__(name):
    if name in _REALREP_NAMES:
        from . import realrep
        return getattr(realrep, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_REALREP_NAMES))


__all__ = [
    "BASIS",
    "H_UNITS",
    "TensorScalar",
    "COORDS",
    "METRIC",
    "Vector6",
    "build_P",
    "build_X",
    "extract_coords",
    "gamma",
    "inner_product",
    "metric_form",
    "sigma",
    "verify_clifford",
    "AT_INFINITY",
    "MinkowskiPoint",
    "NullVector",
    "PointAtInfinity",
    "apply_conformal_translation",
    "classify_generators",
    "conformal_translation_generator",
    "embed_point",
    "mobius_oracle",
    "q_from_p",
    "translation_generator",
    "verify_conformal",
    "PLANES",
    "act_on_P",
    "act_on_X",
    "act_on_vector",
    "appendix_check",
    "canonical_plane",
    "generator",
    "plane_kind",
    "so6_matrix",
    "so6_step",
    "verify_group",
    "verify_properties",
    "TensorMatrix",
    "exp_nilpotent",
    "quadratic_form",
    "real_gamma",
    "realify_matrix",
    "realify_scalar",
    "restrict_so31_second",
    "verify_realrep",
    "Check",
    "Report",
    "__version__",
]
