"""Chase-escape with death on d-ary trees.

Red particles spread to white children at rate lambda, blue particles
overtake red parents-to-children at rate 1, and red particles die at
rate rho.  This package computes the associated weighted Catalan
numbers and continued fractions exactly, decides whether a death rate
sits below or above the coexistence threshold with machine-checkable
certificates, brackets the threshold by certified bisection, and
cross-validates the analytic renewal probabilities by Monte Carlo.
"""

__version__ = "0.1.0"

from ced.params import (
    Enclosure,
    LambdaInterval,
    ModelParams,
    WindowPosition,
    growth_bounds,
    lambda_interval,
    m_at_zero,
    rho_extinction,
    sqrt_enclosure,
    weight_a,
    weight_b,
    weight_u,
    weight_v,
    window_position,
)
from ced.catalan import (
    CatalanValue,
    WeightTable,
    partial_series,
    weighted_catalan,
    weighted_catalan_bruteforce,
    weighted_catalan_sequence,
)
from ced.contfrac import (
    CFEval,
    GoodCheck,
    PsiBound,
    below_witness,
    eval_finite,
    is_good,
    km_good,
    psi_bounds,
)
from ced.decision import (
    CriticalBracket,
    CurvePoint,
    DecisionOutcome,
    Phase,
    Verdict,
    classify_phase,
    critical_rho,
    decide,
    rho_c_curve,
    verify_certificate,
)
from ced.simulate import (
    SimSummary,
    compare_renewals,
    max_abs_z,
    simulate_line,
    simulate_tree,
)

__all__ = [
    "CatalanValue",
    "CFEval",
    "CriticalBracket",
    "CurvePoint",
    "DecisionOutcome",
    "Enclosure",
    "GoodCheck",
    "LambdaInterval",
    "ModelParams",
    "Phase",
    "PsiBound",
    "SimSummary",
    "Verdict",
    "WeightTable",
    "WindowPosition",
    "below_witness",
    "classify_phase",
    "compare_renewals",
    "critical_rho",
    "decide",
    "eval_finite",
    "growth_bounds",
    "is_good",
    "km_good",
    "lambda_interval",
    "m_at_zero",
    "max_abs_z",
    "partial_series",
    "psi_bounds",
    "rho_c_curve",
    "rho_extinction",
    "simulate_line",
    "simulate_tree",
    "sqrt_enclosure",
    "verify_certificate",
    "weight_a",
    "weight_b",
    "weight_u",
    "weight_v",
    "weighted_catalan",
    "weighted_catalan_bruteforce",
    "weighted_catalan_sequence",
    "window_position",
]
