"""Euclidean base space: points, unit directions, and closed-form 1-Lipschitz scalar fields.

The base space is R^d with the Euclidean metric, so geodesics are straight
segments and the unit-slope fields used throughout the package (linear
"horizon" fields, their finite minima, signed distance fields) come with
analytically known steepest-descent rays.
"""

from __future__ import annotations

import functools
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


def as_point(x) -> np.ndarray:
    """Coerce to a finite 1-d float vector, the package's point type."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1 or p.size < 1:
        raise DimensionError(f"point must be a 1-d vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError("point has non-finite coordinates")
    return p


def _unit_vector(v, like: np.ndarray | None = None) -> np.ndarray:
    """A read-only copy of v as a unit vector, checked against `like`'s shape first.

    A scalar is a 1-vector. A norm within UNIT_TOL of 1 is kept as is, one
    within UNIT_FIX is renormalized, and one farther off, or nan, is a
    `DomainError`. The copy spares the caller's array from being frozen.
    """
    u = np.array(v, dtype=float)
    if u.ndim == 0:
        u = u.reshape(1)
    if like is not None and like.shape != u.shape:
        raise DimensionError(f"dimension mismatch: {like.shape[0]} vs {u.shape[0]}")
    norm = float(np.linalg.norm(u))
    if not abs(norm - 1.0) <= UNIT_FIX:  # nan fails it too
        raise DomainError(f"direction norm {norm} too far from 1 to renormalize")
    if abs(norm - 1.0) > UNIT_TOL:
        u = u / norm
    u.setflags(write=False)
    return u


class ScalarField:
    """A real function on R^d with a declared Lipschitz bound.

    Subclasses provide `evaluate_many`, the values at the rows of an (n, dim)
    array; `evaluate(x)` is it on the one row x. The built-in variants are all
    exactly 1-Lipschitz, which `lipschitz_proven` says, and, except where
    noted, give the unit directions of the steepest-descent rays through a
    batch of points via `descent_rays`. A declared bound is not a proven
    one: verdicts test it.
    """

    dim: int
    lipschitz: float = 1.0
    lipschitz_proven: bool = False  # the bound holds by construction

    def evaluate(self, x) -> float:
        p = as_point(x)
        if p.shape[0] != self.dim:
            raise DimensionError(f"dimension mismatch: {p.shape[0]} vs {self.dim}")
        return float(self.evaluate_many(p[None, :])[0])

    def evaluate_many(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def descent_rays(self, pts: np.ndarray) -> np.ndarray:
        """Unit directions of the steepest-descent rays through the rows of an (n, dim) array.

        Returns an (n, dim) array of unit rows; the ray through row i is
        t -> pts[i] + t * directions[i], t >= 0.
        """
        raise UnsupportedField(f"{type(self).__name__} has no registered descent ray")

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

    def evaluate_many(self, pts: np.ndarray) -> np.ndarray:
        return self.offset - pts.dot(self.direction)

    def descent_rays(self, pts):
        return self.direction[None, :].repeat(pts.shape[0], axis=0)

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

    def evaluate_many(self, pts: np.ndarray) -> np.ndarray:
        return functools.reduce(np.minimum, [f.evaluate_many(pts) for f in self.fields])

    def descent_rays(self, pts):
        """The directions of the member attaining the minimum at each row; only those are asked."""
        pick = np.array([f.evaluate_many(pts) for f in self.fields]).argmin(axis=0)
        # the rows grouped by member, in member order, so each group is one slice
        order = pick.argsort(kind="stable")
        picked, rows = pick[order].tolist(), pts[order]
        grouped = np.empty_like(rows)
        start = 0
        while start < len(picked):
            k = picked[start]
            end = start + picked.count(k)
            grouped[start:end] = self.fields[k].descent_rays(rows[start:end])
            start = end
        directions = np.empty_like(pts)
        directions[order] = grouped
        return directions

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
        return np.where(at_anchor[:, None], np.eye(self.dim)[0],
                        away / np.where(at_anchor, 1.0, dist)[:, None])

    @property
    def has_analytic_rays(self) -> bool:
        return self.sign == -1 and self.points.shape[0] == 1


@dataclass(frozen=True, eq=False)
class CustomField(ScalarField):
    """User-supplied evaluator with a declared Lipschitz constant.

    A descent direction may be registered: `direction_fn` maps a point x to
    the direction of the descent ray from x, which is checked against x's
    dimension first and then made unit by `_unit_vector`'s rule. Without one
    the field cannot participate in ray-based operations.
    """

    fn: Callable[[np.ndarray], float]
    dim: int
    lipschitz: float = 1.0
    direction_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def evaluate_many(self, pts: np.ndarray) -> np.ndarray:
        return np.array([float(self.fn(p)) for p in pts])

    def descent_rays(self, pts):
        if self.direction_fn is None:
            raise UnsupportedField("custom field has no registered descent direction")
        return np.array([_unit_vector(self.direction_fn(x), x) for x in pts])

    @property
    def has_analytic_rays(self) -> bool:
        return self.direction_fn is not None


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
