"""Composite binary losses: construction, evaluation, certification.

A proper loss for class probability estimation is determined by its weight
function (the curvature of its conditional Bayes risk); a composite loss
evaluates a proper loss through the inverse of a strictly monotone link.
This package synthesises losses from weights, certifies convexity,
properness and classification calibration, computes regrets and Bregman
divergences, analyses robustness to symmetric label noise, and reproduces
a two-surrogate risk study with frozen reference values.

Kept public though no entry point needs them: the return types ``MinimizeResult``,
``RobustInterval``, ``SurrogateReport``, ``ConvexityReport``, ``RegionCurve`` and
``QuadratureSpec``, and the tested paper identities ``bayes_risk_prime``,
``surrogate_penalty`` and ``zero_one_linear_risk``.  The identities of
:mod:`cploss.proper` take proper losses only.  ``finite_diff`` and
``DEFAULT_QUADRATURE`` stay internal to :mod:`cploss.numerics`.
"""

from .numerics import (
    IntegrationError,
    MinimizeResult,
    NumericsError,
    QuadratureSpec,
    antiderivative,
    integrate,
    lambert_w0,
    minimize_scalar,
)
from .weights import WeightFunction, catalog_weight, tabulated_weight
from .links import Link, canonical_link, catalog_link, numeric_inverse, rho_of
from .proper import (
    ImpropernessError,
    ProperLoss,
    bayes_risk,
    bayes_risk_prime,
    catalog_loss,
    conditional_risk,
    cost_loss,
    from_weight,
    reconstruct_symmetric,
    regret,
    savage_check,
    schervish_check,
    weight_from_loss,
    zero_one_loss,
)
from .composite import (
    CompositeLoss,
    MarginLoss,
    composite_from_margin,
    duality_residual,
    exponential_margin,
    logistic_margin,
    make_composite,
    margin_to_link,
    reference_link,
    score_gradients,
    zhang_margin,
)
from .analysis import (
    ConvexityReport,
    RegionCurve,
    StrictnessError,
    allowable_region,
    calibration_cc,
    calibration_composite,
    certification_grid,
    check_proper,
    convexity_characterization,
    convexity_oracle,
)
from .robustness import (
    NoisyLoss,
    RobustInterval,
    corrupt,
    cost_robust_interval,
    minimizer_set,
    noisy_loss,
    nonrobust_region_report,
    proper_nonrobust_region,
)
from .experiments import (
    Experiment,
    LinearHypothesisClass,
    SurrogateReport,
    affine_experiment,
    constrained_bayes,
    full_risk,
    minimal_loss,
    quadratic_experiment,
    regret_bound_invert,
    regret_bound_rhs,
    run_surrogate_experiment,
    surrogate_penalty,
    zero_one_linear_risk,
)
from .expressions import ExpressionError, compile_expression

__version__ = "0.1.0"
