"""Exact optimal transport and unit-slope field verification on discrete measures."""

__version__ = "0.1.0"

from .base_space import (
    BaseRay,
    BusemannField,
    CustomField,
    DistanceField,
    MinField,
    ScalarField,
    as_point,
    base_field_from_config,
)
from .discrete_measure import (
    DiscreteMeasure,
    MeasureSetSequence,
    dirac,
    random_measure,
    validate_measure,
)
from .ot_exact import (
    Coupling,
    TransportResult,
    brute_force_oracle,
    wasserstein_1d_oracle,
    wasserstein_exact,
)
from .viscosity import (
    ConstantField,
    DistanceToField,
    InfField,
    LiftedField,
    MeasureField,
    RayBusemannField,
    SlopeEstimate,
    DescentPolyline,
    dlg_test,
    global_slope_estimate,
    greedy_descent,
    lift,
    lifted_ray,
    lipschitz_probe,
    local_slope_estimate,
    measure_field_from_config,
    representation_check,
    viscosity_sphere_test,
)
from .wgeom import (
    BusemannEstimate,
    WassersteinPath,
    WassersteinRay,
    busemann_estimate,
    cs_diagnostic,
    dirac_ray,
    displacement_path,
    dlc_limit,
    sphere_sample,
)
from . import errors

__all__ = [
    "BaseRay", "BusemannField", "CustomField", "DistanceField", "MinField",
    "ScalarField", "as_point", "base_field_from_config",
    "DiscreteMeasure", "MeasureSetSequence", "dirac", "random_measure",
    "validate_measure",
    "Coupling", "TransportResult", "brute_force_oracle", "wasserstein_1d_oracle",
    "wasserstein_exact",
    "ConstantField", "DistanceToField", "InfField", "LiftedField", "MeasureField",
    "RayBusemannField", "SlopeEstimate", "DescentPolyline",
    "dlg_test", "global_slope_estimate", "greedy_descent",
    "lift", "lifted_ray", "lipschitz_probe",
    "local_slope_estimate", "measure_field_from_config", "representation_check",
    "viscosity_sphere_test",
    "BusemannEstimate", "WassersteinPath", "WassersteinRay", "busemann_estimate",
    "cs_diagnostic", "dirac_ray", "displacement_path", "dlc_limit",
    "sphere_sample",
    "errors",
]
