"""Numerical toolkit for generalized Orlicz growth functions.

Piecewise power-law growth functions phi(x, t), executable checkers for
their regularity conditions, constructive transforms between them,
modular/norm computation on gridded functions, and a discrete maximal
operator with norm-ratio diagnostics.
"""

from .phi_core import (
    UNIT_BALL_VOLUME,
    ConstructionError,
    Domain,
    DomainError,
    PhiCurve,
    PhiFunction,
    PowerTable,
    PowerTerm,
    Region,
    from_curve,
    make_family,
    power_curve,
    region_from_dict,
)
from .conditions import (
    ConditionReport,
    weight_from_dict,
    SampleSpec,
    WeightFunction,
    check_a0,
    check_a1,
    check_a2,
    check_adec,
    check_ainc,
    check_equivalence,
    check_weak_equivalence,
    default_x_samples,
    doubling_scale,
    enlarge_ainc_constant,
    exponent_from_doubling,
    reports_table,
)

from .transforms import (
    AsymptoteEstimate,
    AsymptotePair,
    cap_curve,
    glue_small_values,
    rebuild_with_ainc,
    repair_asymptote,
    small_value_threshold,
    tail_asymptotes,
)
from .norms import (
    ConjugateFunction,
    GridFunction,
    annulus_test_function,
    ball_norm_check,
    conjugate_function,
    duality_lower_bound,
    luxemburg_norm,
    modular,
    pairing,
)
from .maximal import (
    MaximalConfig,
    default_config,
    maximal,
    modular_growth,
    operator_norm_estimate,
)
from .gallery import (
    EXAMPLE_NAMES,
    SpecError,
    run_example,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
