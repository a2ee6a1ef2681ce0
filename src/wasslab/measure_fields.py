"""Scalar fields on measure space, and each field's work at one base point.

The central operator is `lift`: integrating a 1-Lipschitz base field against
a measure gives a 1-Lipschitz field on measure space whose steepest-descent
rays move every atom along the base field's own descent rays. Distances to a
target measure, horizon functions of rays, constants and finite infima
complete the set.

`MeasureField.at(omega)` builds what the verdicts of `viscosity` share
around a base point omega, once per call: U(omega), the analytic descent
candidate at any arc length, and, where the field has one, a proven floor
under its value at a candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .base_space import ScalarField, base_field_from_config
from .discrete_measure import DiscreteMeasure, check_exponent, validate_measure
from .errors import (
    DimensionError,
    DomainError,
    EmptyCollection,
    ParseError,
    UnsupportedField,
    json_numbers,
)
from .ot_exact import dual_floor, wasserstein_exact
from .wgeom import (
    WassersteinPath,
    WassersteinRay,
    busemann_estimate,
    certified_distance,
    shift_distance,
)

FLOOR_TOL = 1e-9  # relative round-off allowance of a proven value floor


class MeasureField:
    """Real function on the space of discrete measures, W_p-1-Lipschitz."""

    p: float

    def __post_init__(self):
        # every dataclass field runs this when built: W_p is no metric below p = 1
        check_exponent(self.p)

    def evaluate(self, omega: DiscreteMeasure) -> float:
        raise NotImplementedError

    def at(self, omega: DiscreteMeasure) -> BasePoint:
        """The field's work at base point omega, which every candidate around it shares."""
        return BasePoint(self, omega)

    @property
    def exhaustive(self) -> bool:
        """Whether a failed candidate search is a complete (honest) negative."""
        return False

    def __call__(self, omega: DiscreteMeasure) -> float:
        return self.evaluate(omega)


class BasePoint:
    """A field at one base point omega, built once per verdict call (and descent step).

    `value` is U(omega), the float `U.evaluate(omega)` returns. `candidate(t)`
    is the analytic point x at arc length t with exact value drop t, if
    known: (x, certified W_p(omega, x), U(x)), each taken from x's
    construction where that pins it down, else solved. `floor(x)` is a
    proven lower bound on U(x), -inf where nothing is proven; `lower(x, d)`
    is what a verdict reads. Fields refine `candidate` and `floor` in their
    own subclasses.
    """

    def __init__(self, field: MeasureField, omega: DiscreteMeasure):
        self.field, self.omega = field, omega

    @cached_property
    def value(self) -> float:
        return self.field.evaluate(self.omega)

    def candidate(self, t: float) -> tuple[DiscreteMeasure, float, float] | None:
        return None

    def floor(self, x: DiscreteMeasure) -> float:
        return -math.inf

    def lower(self, x: DiscreteMeasure, d: float) -> float:
        """A lower bound on the float U.evaluate(x) for x at distance d; -inf without a floor.

        The floor is lowered by FLOOR_TOL * max(1, |U(omega)|, d), which
        covers the round-off of the floor and of the solved value.
        """
        return self.floor(x) - FLOOR_TOL * max(1.0, abs(self.value), d)


@dataclass(frozen=True, eq=False)
class LiftedField(MeasureField):
    """omega -> integral of the base field against omega, of a base declared 1-Lipschitz."""

    base: ScalarField
    p: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        if self.base.lipschitz > 1.0 + 1e-9:
            raise DomainError(f"declared Lipschitz bound {self.base.lipschitz} exceeds 1")

    def evaluate(self, omega: DiscreteMeasure) -> float:
        self._check_dim(omega)
        return float(np.dot(omega.weights, self.base.evaluate_many(omega.support)))

    def _check_dim(self, omega: DiscreteMeasure) -> None:
        if self.base.dim != omega.dim:
            raise DimensionError(f"field dim {self.base.dim} vs measure dim {omega.dim}")

    def at(self, omega):
        return _LiftedPoint(self, omega)

    @property
    def exhaustive(self) -> bool:
        return self.base.has_analytic_rays


class _LiftedPoint(BasePoint):
    """The base field's descent directions at omega's atoms, taken on the first candidate.

    `directions` is `descent_rays` on omega's support, one unit row per
    atom, and the candidate at arc length t moves each atom x_i to
    x_i + t * directions[i].
    """

    @cached_property
    def directions(self) -> np.ndarray:
        U = self.field
        U._check_dim(self.omega)
        return U.base.descent_rays(self.omega.support)

    def candidate(self, t):
        U = self.field
        if not U.base.has_analytic_rays:
            return None
        rows = self.omega.support + t * self.directions
        x = validate_measure(rows, self.omega.weights)
        value = U.evaluate(x)
        # a shift bracket, tight when every atom moves the same way; a base that is
        # 1-Lipschitz by construction adds its gain, W_p >= W_1 >= U(omega) - U(x)
        # (Kantorovich-Rubinstein), which is t. A declared bound is what the verdicts
        # test, so it proves nothing here.
        gain = self.value - value if U.base.lipschitz_proven else 0.0
        return x, shift_distance(self.omega, x, rows, U.p, gain), value


@dataclass(frozen=True, eq=False)
class DistanceToField(MeasureField):
    """omega -> W_p(omega, target) - offset."""

    target: DiscreteMeasure
    offset: float = 0.0
    p: float = 2.0

    def evaluate(self, omega: DiscreteMeasure) -> float:
        return wasserstein_exact(omega, self.target, self.p).value - self.offset

    def at(self, omega):
        return _DistancePoint(self, omega)


class _DistancePoint(BasePoint):
    """One solve of W_p(omega, target): the value, the geodesic along its plan and a dual floor.

    The floor is `dual_floor` on that solve's certified potentials `psi`,
    a weak-duality bound at every x and the solved value at x = omega.
    """

    def __init__(self, field: DistanceToField, omega: DiscreteMeasure):
        super().__init__(field, omega)
        self.res = res = wasserstein_exact(omega, field.target, field.p)
        self.length = res.value
        self.value = res.value - field.offset

    @cached_property
    def path(self) -> WassersteinPath:
        return WassersteinPath.from_result(self.res)

    def candidate(self, t):
        # the geodesic toward the target calibrates exactly, but only up to it;
        # its cut brackets both the distance from omega and the value
        if t >= self.length - 1e-9:
            return None
        U = self.field
        x, near, far = self.path.cut(t)
        return (x, certified_distance(self.omega, x, U.p, *near),
                certified_distance(x, U.target, U.p, *far) - U.offset)

    def floor(self, x):
        U = self.field
        return dual_floor(x, U.target, self.res.psi, U.p) - U.offset


@dataclass(frozen=True, eq=False)
class RayBusemannField(MeasureField):
    """Horizon function of a unit-speed ray, evaluated by truncation.

    The truncation parameters are part of the field identity, so two fields
    with different schedules are different functions.
    """

    ray: WassersteinRay
    tol: float = 1e-6
    t_max: float = 1e6

    @property
    def p(self) -> float:
        return self.ray.p

    def evaluate(self, omega: DiscreteMeasure) -> float:
        return busemann_estimate(self.ray, omega, tol=self.tol, t_max=self.t_max).value


@dataclass(frozen=True, eq=False)
class InfField(MeasureField):
    """Pointwise minimum of measure fields sharing one exponent."""

    members: tuple[MeasureField, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise EmptyCollection("InfField needs at least one member field")
        exponents = {m.p for m in members}
        if len(exponents) != 1:
            raise DomainError(f"member fields disagree on the exponent: {sorted(exponents)}")
        object.__setattr__(self, "members", members)

    @property
    def p(self) -> float:
        return self.members[0].p

    def evaluate(self, omega: DiscreteMeasure) -> float:
        return min(m.evaluate(omega) for m in self.members)

    def at(self, omega):
        return _InfPoint(self, omega)

    @property
    def exhaustive(self) -> bool:
        return all(m.exhaustive for m in self.members)


class _InfPoint(BasePoint):
    """Every member at omega; the lowest one supplies the candidate."""

    def __init__(self, field: InfField, omega: DiscreteMeasure):
        super().__init__(field, omega)
        self.members = [m.at(omega) for m in field.members]
        values = [m.value for m in self.members]
        self.value = min(values)
        self.lowest = int(np.argmin(values))

    def candidate(self, t):
        found = self.members[self.lowest].candidate(t)
        if found is None:
            return None
        x, cert, value = found
        others = [m.evaluate(x) for j, m in enumerate(self.field.members) if j != self.lowest]
        return x, cert, min([value] + others)

    def floor(self, x):
        return min([m.floor(x) for m in self.members])


@dataclass(frozen=True, eq=False)
class ConstantField(MeasureField):
    """Constant function; slope zero everywhere, so calibration must fail."""

    value: float
    p: float = 2.0

    def evaluate(self, omega: DiscreteMeasure) -> float:
        return self.value

    @property
    def exhaustive(self) -> bool:
        return True


def lift(u: ScalarField, p: float = 2.0) -> LiftedField:
    """Lift a 1-Lipschitz base field to measure space by integration."""
    return LiftedField(u, p)


def lifted_ray(U: MeasureField, omega: DiscreteMeasure) -> WassersteinRay:
    """Per-atom descent ray of a lifted field; exact unit-rate value drop."""
    if not isinstance(U, LiftedField):
        raise UnsupportedField(f"{type(U).__name__} has no lifted descent ray")
    return WassersteinRay(omega, U.at(omega).directions, U.p)


def measure_field_from_config(cfg: dict, default_p: float = 2.0) -> MeasureField:
    """Build a measure field from its JSON description: {"kind": ..., ...}.

    A description, or a nested base field, that misses a required entry, has
    an entry of the wrong JSON type or is not a JSON object is a `ParseError`.
    """
    if not isinstance(cfg, dict):
        raise ParseError(f"a measure field config must be a JSON object, got {cfg!r}")
    kind = cfg.get("kind")
    try:
        p = float(json_numbers(cfg.get("p", default_p)))
        if kind == "lifted":
            return lift(base_field_from_config(cfg["base"]), p)
        if kind == "distance_to":
            target = DiscreteMeasure.from_json_dict(cfg["target"])
            return DistanceToField(target, float(json_numbers(cfg.get("offset", 0.0))), p)
        if kind == "constant":
            return ConstantField(float(json_numbers(cfg["value"])), p)
        if kind == "inf":  # a single member passes through
            members = [measure_field_from_config(m, p) for m in cfg["members"]]
            return members[0] if len(members) == 1 else InfField(members)
    except KeyError as exc:
        raise ParseError(f"{kind} field config is missing the {exc.args[0]!r} entry") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{kind} field config has an entry of the wrong type: {exc}") from exc
    raise DomainError(f"unknown measure field kind {kind!r}")
