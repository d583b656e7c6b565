"""The callable contract: every callable a cploss object holds maps float
arrays to float arrays of the same shape, silently, and is wrapped once.
Also the list of public settings that have a default."""

import dataclasses
import inspect
import warnings

import numpy as np
import pytest

from cploss import (
    analysis,
    composite,
    experiments,
    expressions,
    links,
    numerics,
    proper,
    robustness,
    weights,
)
from cploss.composite import (
    CompositeLoss,
    composite_from_margin,
    exponential_margin,
    logistic_margin,
    make_composite,
    zhang_margin,
)
from cploss.experiments import affine_experiment, minimal_loss, quadratic_experiment
from cploss.expressions import compile_expression
from cploss.links import LINK_CATALOG_INFO, canonical_link, catalog_link
from cploss.numerics import NumericsError, array_fn
from cploss.proper import (
    catalog_loss,
    cost_loss,
    from_weight,
    reconstruct_symmetric,
    weight_from_loss,
    zero_one_loss,
)
from cploss.weights import (
    WEIGHT_CATALOG_INFO,
    WeightFunction,
    catalog_weight,
    normalize_weight,
)

_PARAMS = {"cost": {"c0": 0.3},
           "custom-tabulated": {"table": [[0.1, 1.0], [0.4, 2.0], [0.6, 0.5], [0.9, 1.5]]}}


def _objects() -> dict:
    weights = {name: catalog_weight(name, _PARAMS.get(name)) for name in WEIGHT_CATALOG_INFO}
    out = {f"weight:{name}": wf for name, wf in weights.items()}
    out.update({f"loss:{name}": from_weight(wf) for name, wf in weights.items()})
    out.update({f"link:{name}": catalog_link(name) for name in LINK_CATALOG_INFO})
    out.update({f"canonical:{name}": canonical_link(wf) for name, wf in weights.items()
                if not wf.has_atoms and wf.W is not None})
    expr = WeightFunction(w=compile_expression("c^-0.5*(1-c)^-0.5"), name="beta(1/2,1/2)")
    out["weight:expression"] = expr
    out["canonical:expression"] = canonical_link(expr)
    out["loss:zero-one"] = zero_one_loss()
    out["loss:cost"] = cost_loss(0.3)
    out["loss:minimal"] = minimal_loss()
    for m in (exponential_margin(), logistic_margin(), zhang_margin(2.0)):
        cl = composite_from_margin(m)
        out[f"margin:{m.name}"] = m
        out[f"margin-composite:{m.name}"] = cl
        out[f"margin-link:{m.name}"] = cl.link
        out[f"margin-loss:{m.name}"] = cl.base
        out[f"margin-weight:{m.name}"] = cl.base.weight
    out["composite:log@logit"] = make_composite(catalog_loss("log"), catalog_link("logit"))
    # a canonical pair reads rho = 1 through a branch of its own
    out.update({f"composite:{name}@canonical": make_composite(out[f"loss:{name}"],
                                                              out[f"canonical:{name}"])
                for name in weights if f"canonical:{name}" in out})
    out["normalized:boosting"] = normalize_weight(weights["boosting"])
    out["weight-from-loss:log"] = weight_from_loss(catalog_loss("log"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the implied weight is huge near the ends
        out["reconstructed"] = reconstruct_symmetric(lambda e: 1.0 / (1.0 - e), "lower")
    out["experiment:eta1"] = quadratic_experiment()
    out["experiment:eta2"] = affine_experiment()
    return out


OBJECTS = _objects()


def _held(obj) -> list:
    return [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)
            if callable(getattr(obj, f.name))]


HELD = [pytest.param(fn, id=f"{label}.{name}")
        for label, obj in OBJECTS.items() for name, fn in _held(obj)]
# rho is derived from the base and the link on each read, not held, and keeps the same contract
HELD += [pytest.param(obj.rho, id=f"{label}.rho")
         for label, obj in OBJECTS.items() if isinstance(obj, CompositeLoss)]


def test_every_kind_of_held_callable_is_covered():
    kinds = {(type(obj).__name__, name) for obj in OBJECTS.values() for name, _ in _held(obj)}
    assert kinds == {
        ("WeightFunction", "w"), ("WeightFunction", "W"), ("WeightFunction", "Wbar"),
        ("Link", "psi"), ("Link", "psi_prime"), ("Link", "q"),
        ("ProperLoss", "ell_pos"), ("ProperLoss", "ell_neg"),
        ("MarginLoss", "phi"), ("MarginLoss", "phi_prime"), ("Experiment", "eta"),
    }


def test_a_composite_holds_only_its_base_and_link():
    assert [f.name for f in dataclasses.fields(CompositeLoss)] == ["base", "link"]


@pytest.mark.parametrize("fn", HELD)
@pytest.mark.parametrize("x", [0.3, np.asarray(0.3), np.array([0.3, 0.6]),
                               np.array([[0.3], [0.6], [0.7]])],
                         ids=["float", "0-d", "1-d", "2-d"])
def test_float_arrays_in_and_out_of_the_same_shape(fn, x):
    out = fn(x)
    assert isinstance(out, np.ndarray)
    assert out.dtype == np.float64
    assert out.shape == np.shape(x)


@pytest.mark.parametrize("fn", HELD)
def test_quiet_at_zero_and_one(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x in (0.0, 1.0, np.array([0.0, 1.0])):
            try:
                fn(x)
            except NumericsError:
                pass  # a quadrature that cannot reach an endpoint may say so


@pytest.mark.parametrize("fn", HELD)
def test_held_callables_are_wrapped_once(fn):
    assert array_fn(fn) is fn


def test_compiled_expressions_count_as_wrapped():
    fn = compile_expression("1/c")
    assert array_fn(fn) is fn
    assert WeightFunction(w=fn, name="w").w is fn


@pytest.mark.parametrize("label", list(OBJECTS))
def test_replace_keeps_the_same_callables(label):
    obj = OBJECTS[label]
    copy = dataclasses.replace(obj)
    for name, fn in _held(obj):
        assert getattr(copy, name) is fn


# Every public setting that has a default: a field of a public dataclass, or
# a parameter of a public function or method.  A new one shows up here.
DEFAULTED_SETTINGS = [
    "QuadratureSpec.abs_tol", "QuadratureSpec.rel_tol", "integrate(spec)",
    "minimize_scalar(tol)", "finite_diff(order)", "finite_diff(h)",
    "WeightFunction.W", "WeightFunction.Wbar",
    "WeightFunction.atoms", "WeightFunction.name", "WeightFunction.knots",
    "catalog_weight(params)", "tabulated_weight(name)",
    "Link.range", "Link.name",
    "numeric_inverse(tol)", "numeric_inverse(domain)", "numeric_inverse(dpsi)",
    "ProperLoss.fair", "ProperLoss.strictly_proper", "ProperLoss.name",
    "catalog_loss(params)", "weight_from_loss(grid)",
    "MarginLoss.name", "reference_link(v_range)", "margin_to_link(v_range)",
    "composite_from_margin(v_range)",
    "ConvexityReport.grid_size", "ConvexityReport.tolerance",
    "ConvexityReport.violation_xs(side)", "RegionCurve.link_name", "RegionCurve.contains(tol)",
    "certification_grid(n)", "convexity_characterization(grid)",
    "convexity_characterization(tol)", "convexity_oracle(score_grid)", "convexity_oracle(tol)",
    "allowable_region(grid)", "proper_nonrobust_region(grid)", "nonrobust_region_report(grid)",
    "Experiment.name", "constrained_bayes(tol)", "regret_bound_rhs(loss)",
]


def _defaulted(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty]


def test_every_defaulted_public_setting_is_listed():
    found = []
    for module in (numerics, weights, links, proper, composite, analysis, robustness,
                   experiments, expressions):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found += [f"{name}({p})" for p in _defaulted(obj)]
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found += [f"{name}.{f.name}" for f in dataclasses.fields(obj)
                              if f.default is not dataclasses.MISSING
                              or f.default_factory is not dataclasses.MISSING]
                found += [f"{name}.{attr}({p})" for attr, fn in vars(obj).items()
                          if inspect.isfunction(fn) and not attr.startswith("_")
                          for p in _defaulted(fn)]
    assert found == DEFAULTED_SETTINGS
    assert len(found) == 43
