"""Geometry of the space of discrete measures under W_p.

Displacement-interpolation geodesics, unit-speed rays driven by per-atom base
rays, truncated horizon-function estimates, exact sphere sampling, a
compactness diagnostic for escaping sequences, and distance-limit evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_space import UNIT_TOL, BaseRay, check_ray_time
from .discrete_measure import DiscreteMeasure, MeasureSetSequence, check_exponent, validate_measure
from .errors import (
    DimensionError,
    DomainError,
    EmptyCollection,
    InvalidRay,
    NumericalInconsistency,
    SequenceTooClose,
    SphereSamplingFailed,
)
from .ot_exact import wasserstein_exact

_T_EDGE_TOL = 1e-12
_MONOTONE_TOL = 1e-9

# The doubling schedule certifies only the observed increment; the tail beyond
# the last sample is monotone but not quantitatively bounded.
TAIL_CAVEAT = "doubling certificate bounds the observed increment, not the unreported tail"


def ensure_rng(rng) -> np.random.Generator:
    """Accept a Generator, a seed, or None (fixed default seed 0)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(0 if rng is None else rng)


@dataclass(frozen=True, eq=False)
class WassersteinPath:
    """Constant-speed geodesic from an optimal coupling.

    Coupled atom pairs move along straight base segments; `eval(t)` returns
    the interpolated measure at arc length t in [0, length]. A zero-length
    path is flagged degenerate and stays constant. For p = 1 the plan need
    not be unique, which `nonunique` records.
    """

    source: DiscreteMeasure
    target: DiscreteMeasure
    p: float
    pair_sources: np.ndarray  # (k, d) coupled source atoms
    pair_targets: np.ndarray  # (k, d) coupled target atoms
    masses: np.ndarray        # (k,)
    length: float
    degenerate: bool
    nonunique: bool

    def eval(self, t: float) -> DiscreteMeasure:
        if not math.isfinite(t):
            raise DomainError(f"time t={t} must be finite")
        if self.degenerate:
            if abs(t) > _T_EDGE_TOL:
                raise DomainError(f"degenerate path is defined only at t=0, got {t}")
            return self.source
        if t < -_T_EDGE_TOL or t > self.length + _T_EDGE_TOL:
            raise DomainError(f"time {t} outside [0, {self.length}]")
        s = min(max(t / self.length, 0.0), 1.0)
        pts = (1.0 - s) * self.pair_sources + s * self.pair_targets
        return validate_measure(pts, self.masses)


def displacement_path(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 2.0,
                      check: bool = False) -> WassersteinPath:
    """Geodesic between mu and nu built from an exact optimal coupling."""
    check_exponent(p)
    res = wasserstein_exact(mu, nu, p)
    plan = res.plan
    path = WassersteinPath(
        source=mu,
        target=nu,
        p=p,
        pair_sources=mu.support[plan.rows],
        pair_targets=nu.support[plan.cols],
        masses=plan.masses.copy(),
        length=res.value,
        degenerate=(res.value == 0.0),
        nonunique=(p == 1.0),
    )
    if check and not path.degenerate:
        for t, other in ((0.0, mu), (path.length, nu)):
            gap = wasserstein_exact(path.eval(t), other, p).value
            if gap > 1e-10:
                raise NumericalInconsistency(f"endpoint gap {gap:.3e} at t={t}")
        for fs, ft in ((0.25, 0.75), (0.0, 0.5)):
            s, t = fs * path.length, ft * path.length
            d = wasserstein_exact(path.eval(s), path.eval(t), p).value
            if abs(d - (t - s)) > 1e-8:
                raise NumericalInconsistency(
                    f"speed defect {abs(d - (t - s)):.3e} on [{s}, {t}]"
                )
    return path


@dataclass(frozen=True, eq=False)
class WassersteinRay:
    """Unit-speed ray t -> sum_i w_i delta_{origins[i] + t * directions[i]}.

    `origins` and `directions` are (n, d) arrays with one row per atom of
    `base` (whose weights the ray carries) and unit direction rows. Valid
    when the rows are descent rays of one shared 1-Lipschitz base field;
    `viscosity.lifted_ray` constructs exactly that. Rays assembled by hand
    should go through `wasserstein_ray`, which certifies unit speed with the
    transport solver.
    """

    base: DiscreteMeasure
    origins: np.ndarray
    directions: np.ndarray
    p: float = 2.0

    def __post_init__(self):
        n, d = self.base.n_atoms, self.base.dim
        for name in ("origins", "directions"):
            rows = np.array(getattr(self, name), dtype=float)
            if rows.ndim != 2 or rows.shape[0] != n:
                raise InvalidRay(f"{n} atoms but {name} of shape {rows.shape}")
            if rows.shape[1] != d:
                raise DimensionError(f"ray dim {rows.shape[1]} vs measure dim {d}")
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)
        speeds = np.sqrt((self.directions * self.directions).sum(axis=1))
        if not (np.abs(speeds - 1.0) <= UNIT_TOL).all():  # nan fails it too
            raise InvalidRay(f"per-atom rays must be unit speed, got {speeds.tolist()}")

    def eval(self, t: float) -> DiscreteMeasure:
        check_ray_time(t)
        return validate_measure(self.origins + t * self.directions, self.base.weights)


def _ray_rows(rays) -> tuple[np.ndarray, np.ndarray]:
    """(origins, directions) of per-atom rays; a direction row carries its ray's speed."""
    rays = tuple(rays)
    dims = {r.dim for r in rays}
    if len(dims) > 1:
        raise DimensionError(f"per-atom rays disagree on dimension: {sorted(dims)}")
    return (np.array([r.origin for r in rays]),
            np.array([r.speed * r.direction for r in rays]))


def wasserstein_ray(base: DiscreteMeasure, rays, p: float = 2.0) -> WassersteinRay:
    """Assemble a ray from explicit per-atom rays, solver-certifying unit speed."""
    ray = WassersteinRay(base, *_ray_rows(rays), p)
    start = ray.eval(0.0)
    for t in (1.0, 10.0):
        d = wasserstein_exact(start, ray.eval(t), p).value
        if abs(d - t) > 1e-8:
            raise InvalidRay(f"span {d} at t={t} is not unit speed (gap {abs(d - t):.3e})")
    return ray


def dirac_ray(x, direction, p: float = 2.0) -> WassersteinRay:
    """Ray of unit masses along a base ray; always unit speed."""
    origin = np.asarray(x, dtype=float).reshape(1, -1)
    base = validate_measure(origin, np.ones(1))
    return WassersteinRay(base, *_ray_rows([BaseRay(origin[0], direction)]), p)


@dataclass(frozen=True)
class BusemannEstimate:
    """Truncated evaluation of lim_t [W_p(omega, ray(t)) - t].

    The sampled values are non-increasing by the triangle inequality, so the
    last doubling increment is the convergence certificate.
    """

    value: float
    truncation: float
    tail_gap: float
    converged: bool
    samples: tuple[tuple[float, float], ...]
    caveat: str = TAIL_CAVEAT


def _doubling_schedule(t_max: float):
    t = 1.0
    while t <= t_max:
        yield t
        if 2.0 * t > t_max:
            if t < t_max:
                yield t_max
            return
        t *= 2.0


def busemann_estimate(ray: WassersteinRay, omega: DiscreteMeasure,
                      tol: float = 1e-6, t_max: float = 1e6) -> BusemannEstimate:
    """Estimate the horizon value of a unit-speed ray at omega.

    Samples g(t) = W_p(omega, ray(t)) - t on 1, 2, 4, ... (ending exactly at
    t_max when the doubling grid undershoots it) until the increment drops
    below tol or the cap is reached. A monotonicity breach beyond 1e-9 means
    a solver defect and raises.
    """
    if not tol > 0.0:  # nan fails it too, and the t_max check
        raise DomainError(f"tolerance {tol} must be positive")
    if not (math.isfinite(t_max) and t_max >= 1.0):
        raise DomainError(f"t_max {t_max} must be finite and at least 1")
    samples: list[tuple[float, float]] = []
    prev = None
    converged = False
    gap = math.inf
    for t in _doubling_schedule(t_max):
        g = wasserstein_exact(omega, ray.eval(t), ray.p).value - t
        samples.append((t, g))
        if prev is not None:
            if g > prev + _MONOTONE_TOL:
                raise NumericalInconsistency(
                    f"horizon samples increased by {g - prev:.3e} at t={t}"
                )
            gap = abs(g - prev)
            if gap <= tol:
                converged = True
                break
        prev = g
    t_last, g_last = samples[-1]
    return BusemannEstimate(g_last, t_last, gap, converged, tuple(samples))


# ---------------------------------------------------------------------------
# sphere sampling
# ---------------------------------------------------------------------------

SPHERE_BAND = (0.9, 1.1)  # accepted certified-distance band around the radius


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.normal(size=dim)
        norm = math.sqrt(v.dot(v))  # the bits of np.linalg.norm, without its overhead
        if norm > 1e-8:
            return v / norm


def _in_band(cert: float, r: float) -> bool:
    return SPHERE_BAND[0] * r <= cert <= SPHERE_BAND[1] * r


def _translate_candidate(omega, r, p, rng):
    cand = omega.translate(r * _random_unit(rng, omega.dim))
    return cand, wasserstein_exact(omega, cand, p).value


def _atom_shift_candidate(omega, r, p, rng):
    """Move one random atom by s along a random unit vector.

    The search starts at s = r * w_i^(-1/p), where moving atom i alone costs
    exactly r; a try outside the band (the atom met a neighbour) rescales s
    by r / cert, clipped to [0.2, 5], for at most 8 tries.
    """
    idx = int(rng.integers(omega.n_atoms))
    u = _random_unit(rng, omega.dim)
    s = r * omega.weights[idx] ** (-1.0 / p)
    for _ in range(8):
        pts = omega.support.copy()
        pts[idx] = pts[idx] + s * u
        cand = validate_measure(pts, omega.weights)
        cert = wasserstein_exact(omega, cand, p).value
        if _in_band(cert, r):
            break
        if cert <= 1e-12:
            s *= 10.0
        else:
            s *= min(max(r / cert, 0.2), 5.0)
    return cand, cert


def _path_candidate(omega, r, p, rng):
    shift = 2.0 * r * _random_unit(rng, omega.dim)
    pts = omega.support + shift + rng.normal(scale=max(r, 0.5), size=omega.support.shape)
    path = displacement_path(omega, validate_measure(pts, omega.weights), p)
    if path.length <= r:
        return None
    cand = path.eval(r)
    return cand, wasserstein_exact(omega, cand, p).value


# each proposes one (measure, certified distance), or None; taken in turn
_SPHERE_GENERATORS = (_translate_candidate, _atom_shift_candidate, _path_candidate)


def sphere_candidates(omega: DiscreteMeasure, r: float, p: float = 2.0,
                      budget: int = 8, rng=None):
    """Lazy stream of the candidates `sphere_sample` returns, in its order.

    The radius and budget are checked now, before any solve; each candidate
    is proposed and certified only when it is read. Read to the end, the
    stream draws from rng exactly what `sphere_sample` draws, and raises
    `SphereSamplingFailed` if no candidate landed in the band.
    """
    if not r > 0.0:
        raise DomainError(f"radius {r} must be positive")
    if budget < 1:
        raise DomainError(f"budget {budget} must be at least 1")
    return _sphere_stream(omega, r, p, budget, ensure_rng(rng))


def _sphere_stream(omega, r, p, budget, rng):
    found = attempts = 0
    max_attempts = 4 * budget + len(_SPHERE_GENERATORS)
    while found < budget and attempts < max_attempts:
        got = _SPHERE_GENERATORS[attempts % len(_SPHERE_GENERATORS)](omega, r, p, rng)
        attempts += 1
        if got is not None and _in_band(got[1], r):
            found += 1
            yield got
    if not found:
        raise SphereSamplingFailed(
            f"no candidate landed in [{SPHERE_BAND[0]*r:.3g}, {SPHERE_BAND[1]*r:.3g}] "
            f"after {attempts} attempts"
        )


def sphere_sample(omega: DiscreteMeasure, r: float, p: float = 2.0,
                  budget: int = 8, rng=None) -> list[tuple[DiscreteMeasure, float]]:
    """Candidate measures at solver-certified distance ~r from omega.

    Three generators, taken in turn: rigid translation (lands exactly at r),
    single-atom displacement with a scale search that starts where the move
    alone costs r, and transport toward a random target measure truncated at
    arc length r. Every sample carries the certified distance, which is what
    downstream calibration formulas use; acceptance requires it inside
    [0.9 r, 1.1 r]. Up to `budget` samples are kept from at most
    4 * budget + 3 attempts. The list is `sphere_candidates` read to the end.
    """
    return list(sphere_candidates(omega, r, p, budget, rng))


# ---------------------------------------------------------------------------
# compactness diagnostic and distance limits
# ---------------------------------------------------------------------------

def cs_diagnostic(seq, sigma: float, omega0: DiscreteMeasure, N: int,
                  eps: float, K: int, p: float = 2.0) -> dict:
    """Heuristic convergent-subsequence check along an escaping sequence.

    For each n the geodesic from omega0 toward seq(n) is cut at arc length
    sigma; the diagnostic PASSes when some cut point has at least K-1
    neighbours within eps, a finite-sample proxy for relative compactness.
    It is a labelled heuristic, not a proof: the report carries the full
    pairwise distance matrix and the parameters it was judged under.
    """
    if not sigma > 0.0:
        raise DomainError(f"sigma {sigma} must be positive")
    if not (N >= K >= 2):
        raise DomainError(f"need N >= K >= 2, got N={N}, K={K}")
    points = []
    for n in range(1, N + 1):
        path = displacement_path(omega0, seq(n), p)
        if path.length <= sigma:
            raise SequenceTooClose(
                f"element {n} is at distance {path.length} <= sigma={sigma} from the base point"
            )
        points.append(path.eval(sigma))
    mat = np.zeros((N, N))
    for i in range(N):
        for j in range(i + 1, N):
            mat[i, j] = mat[j, i] = wasserstein_exact(points[i], points[j], p).value
    neighbour_counts = (mat <= eps).sum(axis=1) - 1  # drop the diagonal
    witness = int(np.argmax(neighbour_counts))
    passed = bool(neighbour_counts[witness] >= K - 1)
    off_diag = mat[~np.eye(N, dtype=bool)]
    return {
        "op": "cs_diagnostic",
        "verdict": "PASS" if passed else "FAIL",
        "heuristic": True,
        "witness_index": witness if passed else None,
        "min_offdiag": float(off_diag.min()),
        "matrix": mat.tolist(),
        "params": {"sigma": sigma, "N": N, "K": K, "eps": eps, "p": p},
    }


def dlc_limit(seq: MeasureSetSequence, omega: DiscreteMeasure, p: float = 2.0,
              tol: float = 1e-6, n_max: int = 1024):
    """Distance-limit value lim_n [min_{h in H_n} W_p(omega, h) - c_n].

    Indices double up to n_max (with a final sample exactly at n_max);
    convergence is declared when the last increment is within tol. Returns
    (value, converged, samples) with the full (n, a_n) trace.
    """
    if n_max < 2:
        raise DomainError(f"n_max {n_max} must be at least 2")
    samples: list[tuple[int, float]] = []
    prev = None
    converged = False
    for n in _doubling_schedule(float(n_max)):
        n = int(n)
        members = list(seq.generator(n))
        if not members:
            raise EmptyCollection(f"H_{n} is empty")
        a_n = min(wasserstein_exact(omega, h, p).value for h in members) - seq.shifts(n)
        samples.append((n, a_n))
        if prev is not None and abs(a_n - prev) <= tol:
            converged = True
            break
        prev = a_n
    return samples[-1][1], converged, samples
