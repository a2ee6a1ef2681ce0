"""Euclidean base space: points, rays, and closed-form 1-Lipschitz scalar fields.

The base space is R^d with the Euclidean metric, so geodesics are straight
segments and the unit-slope fields used throughout the package (linear
"horizon" fields, their finite minima, signed distance fields) come with
analytically known steepest-descent rays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    EmptyCollection,
    ParseError,
    UnsupportedField,
    json_numbers,
)

# Unit vectors are accepted as-is within UNIT_TOL, silently renormalized when
# within UNIT_FIX of unit norm, and rejected beyond that.
UNIT_TOL = 1e-12
UNIT_FIX = 1e-9

BasePoint = np.ndarray


def as_point(x) -> BasePoint:
    """Coerce to a finite 1-d float vector, the package's point type."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1 or p.size < 1:
        raise DimensionError(f"point must be a 1-d vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError("point has non-finite coordinates")
    return p


def _same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def _unit_vector(v, like: np.ndarray | None = None) -> np.ndarray:
    """A read-only copy of v as a unit vector, checked against `like`'s shape first.

    A scalar is a 1-vector. A norm within UNIT_TOL of 1 is kept as is, one
    within UNIT_FIX is renormalized, and one farther off, or nan, is a
    `DomainError`. The copy spares the caller's array from being frozen.
    """
    u = np.array(v, dtype=float)
    if u.ndim == 0:
        u = u.reshape(1)
    if like is not None:
        _same_dim(like, u)
    norm = float(np.linalg.norm(u))
    if not abs(norm - 1.0) <= UNIT_FIX:  # nan fails it too
        raise DomainError(f"direction norm {norm} too far from 1 to renormalize")
    if abs(norm - 1.0) > UNIT_TOL:
        u = u / norm
    u.setflags(write=False)
    return u


@dataclass(frozen=True, eq=False)
class BaseRay:
    """Unit-speed ray t -> origin + t * direction, t >= 0, with a unit direction vector."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        # a copy, so that freezing it never freezes the caller's array
        origin = as_point(self.origin).copy()
        direction = _unit_vector(self.direction, origin)
        origin.setflags(write=False)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "direction", direction)

    @property
    def dim(self) -> int:
        return self.origin.shape[0]

    def eval(self, t: float) -> BasePoint:
        check_ray_time(t)
        return self.origin + t * self.direction


def check_ray_time(t: float) -> None:
    """Raise `DomainError` unless the ray parameter t is finite and non-negative."""
    if not (math.isfinite(t) and t >= 0.0):  # nan fails every comparison
        raise DomainError(f"ray parameter t={t} must be finite and non-negative")


class ScalarField:
    """A real function on R^d with a declared Lipschitz bound.

    Subclasses provide `evaluate`; the built-in variants are all exactly
    1-Lipschitz, which `lipschitz_proven` says, and, except where noted,
    give the steepest-descent rays through a batch of points via
    `descent_rays`. A declared bound is not a proven one: verdicts test it.
    """

    dim: int
    lipschitz: float = 1.0
    lipschitz_proven: bool = False  # the bound holds by construction

    def evaluate(self, x) -> float:
        raise NotImplementedError

    def evaluate_many(self, pts: np.ndarray) -> np.ndarray:
        return np.array([self.evaluate(p) for p in pts], dtype=float)

    def descent_rays(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unit-speed descent rays through the rows of an (n, dim) array.

        Returns (origins, directions), both (n, dim), with unit direction rows.
        """
        raise UnsupportedField(f"{type(self).__name__} has no registered descent ray")

    def negative_gradient_ray(self, x) -> BaseRay:
        """The descent ray through the single point x."""
        p = as_point(x)
        if p.shape[0] != self.dim:
            raise DimensionError(f"dimension mismatch: {p.shape[0]} vs {self.dim}")
        origins, directions = self.descent_rays(p[None, :])
        return BaseRay(origins[0], directions[0])

    @property
    def has_analytic_rays(self) -> bool:
        return False

    def __call__(self, x) -> float:
        return self.evaluate(x)


@dataclass(frozen=True, eq=False)
class BusemannField(ScalarField):
    """u(x) = offset - <x, direction> with a unit direction vector.

    Decreases at exactly unit rate along `direction`, so its descent ray
    from x is t -> x + t * direction.
    """

    direction: np.ndarray
    offset: float = 0.0
    lipschitz_proven = True

    def __post_init__(self):
        object.__setattr__(self, "direction", _unit_vector(self.direction))
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

    def evaluate(self, x) -> float:
        p = as_point(x)
        _same_dim(p, self.direction)
        return self.offset - float(np.dot(p, self.direction))

    def evaluate_many(self, pts: np.ndarray) -> np.ndarray:
        return self.offset - pts.dot(self.direction)

    def descent_rays(self, pts):
        return pts, self.direction[None, :].repeat(pts.shape[0], axis=0)

    @property
    def has_analytic_rays(self) -> bool:
        return True


@dataclass(frozen=True, eq=False)
class MinField(ScalarField):
    """Pointwise minimum of a family of fields.

    Descent follows the member attaining the minimum; ties break to the
    lowest list index so the selection is deterministic.
    """

    fields: tuple[ScalarField, ...]

    def __post_init__(self):
        fields = tuple(self.fields)
        if not fields:
            raise EmptyCollection("MinField needs at least one member field")
        dims = {f.dim for f in fields}
        if len(dims) != 1:
            raise DimensionError(f"member fields disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "fields", fields)

    @property
    def dim(self) -> int:
        return self.fields[0].dim

    @property
    def lipschitz(self) -> float:
        return max(f.lipschitz for f in self.fields)

    @property
    def lipschitz_proven(self) -> bool:
        return all(f.lipschitz_proven for f in self.fields)

    def evaluate(self, x) -> float:
        return min(f.evaluate(x) for f in self.fields)

    def evaluate_many(self, pts: np.ndarray) -> np.ndarray:
        return functools.reduce(np.minimum, [f.evaluate_many(pts) for f in self.fields])

    def descent_rays(self, pts):
        """The rays of the member attaining the minimum at each row; only those are asked."""
        pick = np.array([f.evaluate_many(pts) for f in self.fields]).argmin(axis=0)
        # the rows grouped by member, in member order, so each group is one slice
        order = pick.argsort(kind="stable")
        picked, rows = pick[order].tolist(), pts[order]
        grouped_o, grouped_d = np.empty_like(rows), np.empty_like(rows)
        start = 0
        while start < len(picked):
            k = picked[start]
            end = start + picked.count(k)
            grouped_o[start:end], grouped_d[start:end] = self.fields[k].descent_rays(
                rows[start:end])
            start = end
        origins, directions = np.empty_like(pts), np.empty_like(pts)
        origins[order], directions[order] = grouped_o, grouped_d
        return origins, directions

    @property
    def has_analytic_rays(self) -> bool:
        return all(f.has_analytic_rays for f in self.fields)


@dataclass(frozen=True, eq=False)
class DistanceField(ScalarField):
    """Signed distance to a finite point set: u(x) = sign * min_k |x - p_k|.

    Global descent rays exist only for a single anchor with sign -1, where
    moving straight away from it decreases the value at unit rate forever.
    With several anchors the away-from-nearest direction stops calibrating
    once another anchor becomes the nearest, and with sign +1 descent
    terminates at the anchor set, so both cases refuse to produce a ray.
    """

    points: np.ndarray
    sign: int = -1
    lipschitz_proven = True

    def __post_init__(self):
        pts = np.atleast_2d(np.array(self.points, dtype=float))  # a copy, as in BusemannField
        if pts.size == 0:
            raise EmptyCollection("DistanceField needs at least one anchor point")
        if not np.all(np.isfinite(pts)):
            raise DomainError("anchor points must be finite")
        if self.sign not in (-1, 1):
            raise DomainError(f"sign must be -1 or +1, got {self.sign}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def evaluate(self, x) -> float:
        p = as_point(x)
        if p.shape[0] != self.dim:
            raise DimensionError(f"dimension mismatch: {p.shape[0]} vs {self.dim}")
        return self.sign * float(np.min(np.linalg.norm(self.points - p, axis=1)))

    def evaluate_many(self, pts: np.ndarray) -> np.ndarray:
        diffs = pts[:, None, :] - self.points[None, :, :]
        return self.sign * np.min(np.linalg.norm(diffs, axis=2), axis=1)

    def descent_rays(self, pts):
        if self.sign != -1:
            raise UnsupportedField("descent of +distance stops at the anchor set")
        if self.points.shape[0] != 1:
            raise UnsupportedField(
                "away-from-nearest is not a global descent ray with several anchors"
            )
        away = pts - self.points[0]
        # a (1, d) @ (d, 1) product per row is the dot product np.linalg.norm
        # takes of one point, so the rows keep its bits; a sum of squares does not
        dist = np.sqrt((away[:, None, :] @ away[:, :, None]).reshape(-1))
        at_anchor = dist <= UNIT_TOL
        # at the anchor every outward direction calibrates; pick e_1
        directions = np.where(at_anchor[:, None], np.eye(self.dim)[0],
                              away / np.where(at_anchor, 1.0, dist)[:, None])
        return pts, directions

    @property
    def has_analytic_rays(self) -> bool:
        return self.sign == -1 and self.points.shape[0] == 1


@dataclass(frozen=True, eq=False)
class CustomField(ScalarField):
    """User-supplied evaluator with a declared Lipschitz constant.

    A descent-ray generator may be registered: it maps a point to the
    `BaseRay` through it, which has unit speed by construction. Without one
    the field cannot participate in ray-based operations.
    """

    fn: Callable[[np.ndarray], float]
    dim: int
    lipschitz: float = 1.0
    ray_fn: Callable[[np.ndarray], BaseRay] | None = None

    def evaluate(self, x) -> float:
        p = as_point(x)
        if p.shape[0] != self.dim:
            raise DimensionError(f"dimension mismatch: {p.shape[0]} vs {self.dim}")
        return float(self.fn(p))

    def descent_rays(self, pts):
        if self.ray_fn is None:
            raise UnsupportedField("custom field has no registered descent-ray generator")
        rays = [self.ray_fn(p) for p in pts]
        return np.array([r.origin for r in rays]), np.array([r.direction for r in rays])

    @property
    def has_analytic_rays(self) -> bool:
        return self.ray_fn is not None


def base_field_from_config(cfg: dict) -> ScalarField:
    """Build a field from its JSON description: {"variant": ..., ...}.

    A description that misses a required entry, has an entry of the wrong
    JSON type or is not a JSON object is a `ParseError`.
    """
    if not isinstance(cfg, dict):
        raise ParseError(f"a base field config must be a JSON object, got {cfg!r}")
    variant = cfg.get("variant")
    try:
        if variant == "busemann":
            return BusemannField(np.asarray(json_numbers(cfg["direction"]), dtype=float),
                                 float(json_numbers(cfg.get("offset", 0.0))))
        if variant == "min":  # a single member passes through
            fields = [base_field_from_config(f) for f in cfg["fields"]]
            return fields[0] if len(fields) == 1 else MinField(fields)
        if variant == "distance":
            # DistanceField itself refuses a sign other than -1 or +1
            return DistanceField(np.asarray(json_numbers(cfg["points"]), dtype=float),
                                 json_numbers(cfg.get("sign", -1)))
    except KeyError as exc:
        raise ParseError(
            f"{variant} base field config is missing the {exc.args[0]!r} entry"
        ) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(
            f"{variant} base field config has an entry of the wrong type: {exc}"
        ) from exc
    raise DomainError(f"unknown base field variant {variant!r}")
