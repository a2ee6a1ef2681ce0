"""Finitely supported probability measures on R^d.

Measures are stored in a canonical form: support rows sorted
lexicographically, near-duplicate atoms merged, negligible weights pruned,
weights summing to 1. Construction goes through `validate_measure`, which is
idempotent, so a canonical measure passed in again comes back bit-identical.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    EmptyMeasure,
    InvalidWeight,
    NotNormalized,
    ParseError,
    json_numbers,
)

MERGE_TOL = 1e-12    # support points closer than this are one atom
PRUNE_TOL = 1e-15    # weights below this are dropped
SUM_FIX_TOL = 1e-9   # weight sums off by more than this are rejected
SUM_KEEP_TOL = 1e-12  # weight sums within this of 1 are left untouched


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Probability measure sum_i weights[i] * delta_{support[i]}.

    Immutable; build instances with `validate_measure`, `dirac`, or
    `DiscreteMeasure.from_json_dict`.
    """

    support: np.ndarray  # (n, d), lexicographically sorted rows
    weights: np.ndarray  # (n,), positive, sums to 1 within 1e-12

    @property
    def n_atoms(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def translate(self, v) -> "DiscreteMeasure":
        """Rigid translation by the vector v (exact on coordinates)."""
        vec = np.asarray(v, dtype=float).reshape(-1)
        if vec.shape[0] != self.dim:
            raise DimensionError(f"translation vector dim {vec.shape[0]} vs {self.dim}")
        return validate_measure(self.support + vec, self.weights)

    def cache_key(self) -> bytes:
        return self.support.tobytes() + b"|" + self.weights.tobytes()

    def to_json_dict(self) -> dict:
        return {
            "dim": int(self.dim),
            "support": [[float(c) for c in row] for row in self.support],
            "weights": [float(w) for w in self.weights],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DiscreteMeasure":
        if not isinstance(obj, dict):
            raise ParseError(f"a measure must be a JSON object, got {obj!r}")
        try:
            support, weights = obj["support"], obj["weights"]
        except KeyError as exc:
            raise ParseError(f"measure is missing the {exc.args[0]!r} entry") from exc
        try:
            support = np.asarray(json_numbers(support), dtype=float)
            weights = np.asarray(json_numbers(weights), dtype=float)
            dim = json_numbers(obj["dim"]) if "dim" in obj else None
            if dim is not None and dim != int(dim):
                raise ValueError(f"dim {dim!r} is not a whole number")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"measure entries must be numbers: {exc}") from exc
        if support.ndim < 2:
            support = support.reshape(-1, 1)
        if dim is not None and support.shape[1] != dim:
            raise DimensionError(
                f"declared dim {obj['dim']} does not match support dim {support.shape[1]}"
            )
        return validate_measure(support, weights)

    def __repr__(self) -> str:
        return f"DiscreteMeasure(n={self.n_atoms}, dim={self.dim})"


def _canonical_support(support) -> np.ndarray:
    pts = np.asarray(support, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise DimensionError(
            f"support must be an (n, d) array with d >= 1, got shape {pts.shape}"
        )
    return pts


def validate_measure(support, weights) -> DiscreteMeasure:
    """Normalize, merge, and prune raw support/weights into a valid measure.

    Weight sums within SUM_FIX_TOL of 1 are renormalized with a warning;
    anything farther is rejected. Atoms within MERGE_TOL of each other in the
    max norm merge, transitively and whatever their order: each connected
    group keeps its lexicographically first point and the sum of its weights,
    so a chain 0, 0.9e-12, 1.8e-12 becomes one atom at 0. Weights below
    PRUNE_TOL are then dropped.
    """
    pts = _canonical_support(support)
    n = pts.shape[0]
    if n == 0:
        raise EmptyMeasure("measure needs at least one atom")
    # a finite sum means finite entries; the full check runs only when it is not
    if not math.isfinite(pts.sum()) and not np.isfinite(pts).all():
        raise DomainError("support has non-finite coordinates")
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != n:
        raise InvalidWeight(f"{n} atoms but {w.shape[0]} weights")
    total = float(w.sum())
    if not (math.isfinite(total) and w.min() >= 0.0):  # else both checks pass
        if not np.isfinite(w).all():
            raise InvalidWeight("weights must be finite")
        if (w < 0.0).any():
            raise InvalidWeight(f"negative weight {float(w.min())}")
    # the 1e-15 grace keeps decimal inputs sitting exactly on the boundary
    # (e.g. a sum printed as 0.999999999) on the repairable side
    if abs(total - 1.0) > SUM_FIX_TOL + 1e-15:
        raise NotNormalized(f"weight sum {total} differs from 1 by more than {SUM_FIX_TOL}")
    if abs(total - 1.0) > SUM_KEEP_TOL:
        warnings.warn(f"weights sum to {total}, renormalizing", stacklevel=2)
        w = w / total

    if n > 1:
        order = np.lexsort(pts.T[::-1])
        pts, w = pts[order], w[order]
        # rows within MERGE_TOL of each other sit in one run of sorted rows
        # whose first coordinates step by at most MERGE_TOL
        x0 = pts[:, 0]
        gaps = x0[1:] - x0[:-1]
        if gaps.min() <= MERGE_TOL:
            pts, w = _merge_runs(pts, w, gaps <= MERGE_TOL)
    else:  # copies, so the measure never shares memory with the caller
        pts, w = pts.copy(), w.copy()

    if w.min() < PRUNE_TOL:
        keep = w >= PRUNE_TOL
        pts, w = pts[keep], w[keep]
        if pts.shape[0] == 0:
            raise EmptyMeasure("all atoms pruned; measure has no mass")
    total = float(w.sum())
    if abs(total - 1.0) > SUM_KEEP_TOL:
        w = w / total

    pts.setflags(write=False)
    w.setflags(write=False)
    return DiscreteMeasure(pts, w)


def _merge_runs(pts: np.ndarray, w: np.ndarray, near: np.ndarray):
    """Merge the connected groups of sorted rows within MERGE_TOL in max norm.

    `near[i]` says rows i and i+1 have first coordinates within MERGE_TOL.
    Closeness is only computed inside each run of such rows, so memory is
    bounded by the longest run squared. Each group keeps its first row, and
    its weights are summed in sorted order.
    """
    first = np.arange(pts.shape[0])  # sorted index of each row's group's first row
    edges = np.flatnonzero(np.diff(np.concatenate(([False], near, [False]))))
    for lo, hi in edges.reshape(-1, 2):
        run = pts[lo:hi + 1]
        linked = np.abs(run[:, None, :] - run[None, :, :]).max(axis=2) <= MERGE_TOL
        label = np.arange(run.shape[0])
        while True:  # spread the smallest index through each connected group
            spread = np.where(linked, label, run.shape[0]).min(axis=1)
            spread = spread[spread]  # pointer jumping: a chain takes O(log k) steps
            if np.array_equal(spread, label):
                break
            label = spread
        first[lo:hi + 1] = lo + label
    leads = first == np.arange(pts.shape[0])
    group = np.cumsum(leads)[first] - 1
    return pts[leads], np.bincount(group, weights=w)


def dirac(x) -> DiscreteMeasure:
    """Unit mass at a single point."""
    pts = np.asarray(x, dtype=float).reshape(1, -1)
    return validate_measure(pts, np.ones(1))


def check_exponent(p: float) -> None:
    """Raise `DomainError` unless p is a finite exponent of at least 1."""
    if not (math.isfinite(p) and p >= 1.0):  # nan fails every comparison, p < 1.0 too
        raise DomainError(f"exponent p={p} must be finite and at least 1")


def random_measure(rng: np.random.Generator, max_atoms: int, dim: int,
                   box: float = 10.0, min_atoms: int = 1) -> DiscreteMeasure:
    """Seeded test-instance generator: uniform atoms in a box, random weights."""
    n = int(rng.integers(min_atoms, max_atoms + 1))
    pts = rng.uniform(-box, box, size=(n, dim))
    w = rng.random(n) + 0.05
    return validate_measure(pts, w / w.sum())


@dataclass(frozen=True)
class MeasureSetSequence:
    """Indexed family of finite measure sets H_n with scalar shifts c_n.

    `generator(n)` returns the finite list H_n and `shifts(n)` the shift c_n.
    Generation is lazy so limit probes can reach arbitrarily large n.
    """

    generator: Callable[[int], Sequence[DiscreteMeasure]]
    shifts: Callable[[int], float]
