"""Geometry of the space of discrete measures under W_p.

Displacement-interpolation geodesics, unit-speed rays that move each atom
along its own unit direction, truncated horizon-function estimates, exact
sphere sampling, a compactness diagnostic for escaping sequences, and
distance-limit evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_space import UNIT_TOL, _unit_vector
from .discrete_measure import (
    DiscreteMeasure,
    MeasureSetSequence,
    check_exponent,
    validate_measure,
)
from .errors import (
    DimensionError,
    DomainError,
    EmptyCollection,
    InvalidRay,
    NumericalInconsistency,
    SequenceTooClose,
    SphereSamplingFailed,
)
from .ot_exact import VALUE_CLAMP, TransportResult, dirac_value, dual_floor, wasserstein_exact

_T_EDGE_TOL = 1e-12
_MONOTONE_TOL = 1e-9
BRACKET_TOL = 1e-12  # relative width of a bracket on W_p that stands for the distance
MAX_COUNT = 10**6  # the largest count, or product of two counts, a caller may ask for

# The doubling schedule certifies only the observed increment; the tail beyond
# the last sample is monotone but not quantitatively bounded.
TAIL_CAVEAT = "doubling certificate bounds the observed increment, not the unreported tail"


def ensure_rng(rng) -> np.random.Generator:
    """Accept a Generator, a seed, or None (fixed default seed 0).

    A seed numpy refuses, such as -1 or 0.5, is a `DomainError` naming it.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    try:
        return np.random.default_rng(0 if rng is None else rng)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"seed {rng!r} must be a whole number of at least 0") from exc


def certified_distance(omega: DiscreteMeasure, x: DiscreteMeasure, p: float,
                       lo: float, hi: float) -> float:
    """W_p(omega, x), given a bracket lo <= W_p(omega, x) <= hi from how x was built.

    A bracket narrower than BRACKET_TOL * hi gives hi without a solve. A
    wider one, or an hi that the solver would clamp to zero or that
    overflowed, is solved exactly.
    """
    if hi - lo <= BRACKET_TOL * hi and VALUE_CLAMP <= hi < math.inf:
        return hi
    return wasserstein_exact(omega, x, p).value


def shift_bracket(omega: DiscreteMeasure, rows: np.ndarray, p: float,
                  lower: float = 0.0) -> tuple[float, float]:
    """[lo, hi] around W_p(omega, sum_i w_i delta_{rows[i]}), omega = sum_i w_i delta_{omega_i}.

    With shifts D_i = rows[i] - omega_i, moving each atom by its shift is a
    coupling, so W_p <= hi = (sum_i w_i |D_i|^p)^(1/p). The lower end is the
    largest of three proofs:

    - the 1-Lipschitz function <., e>, with e along the mean shift, gains
      |sum_i w_i D_i|, so W_p >= W_1 >= |sum_i w_i D_i|;
    - `lower`, a bound the caller proves, such as the gain of a field that
      is 1-Lipschitz by construction (Kantorovich-Rubinstein);
    - separation: if |D_k| + |D_j| <= |omega_k - omega_j| for every pair
      k != j, then |omega_k - rows[j]| >= |omega_k - omega_j| - |D_j| >= |D_k|,
      so every cell of every coupling costs at least its row's |D_k|^p and
      lo = hi. It is checked only when the other two leave the bracket open.

    `rows` follow omega's atom order.
    """
    shift = rows - omega.support
    lengths = np.sqrt((shift * shift).sum(axis=1))
    mean = omega.weights.dot(shift)
    hi = math.fsum((omega.weights * (lengths if p == 1.0 else lengths**p)).tolist())
    hi = hi if p == 1.0 else hi ** (1.0 / p)
    lo = max(math.sqrt(mean.dot(mean)), lower)
    if hi - lo > BRACKET_TOL * hi:
        pts = omega.support
        diff = pts[:, None, :] - pts[None, :, :]
        room = np.sqrt((diff * diff).sum(axis=2)) - lengths[:, None] - lengths[None, :]
        room.flat[::pts.shape[0] + 1] = 0.0  # the diagonal
        if room.item(room.argmin()) >= 0.0:
            lo = hi
    return lo, hi


def shifted_measure(omega: DiscreteMeasure, rows: np.ndarray,
                    p: float) -> tuple[DiscreteMeasure, float]:
    """x = sum_i w_i delta_{rows[i]} and its certified W_p distance from omega.

    The weights w are omega's, and `rows` follow omega's atom order.
    """
    x = validate_measure(rows, omega.weights)
    return x, shift_distance(omega, x, rows, p)


def shift_distance(omega: DiscreteMeasure, x: DiscreteMeasure, rows: np.ndarray, p: float,
                   lower: float = 0.0) -> float:
    """Certified W_p(omega, x) for x = validate_measure(rows, omega.weights).

    The distance comes from `shift_bracket` on the rows as built, not on the
    re-sorted support, with `lower` a further lower bound the caller proves.
    Atoms that merged have moved off their rows, and then the distance is
    solved.
    """
    if x.n_atoms != omega.n_atoms:
        return wasserstein_exact(omega, x, p).value
    return certified_distance(omega, x, p, *shift_bracket(omega, rows, p, lower))


@dataclass(frozen=True, eq=False)
class WassersteinPath:
    """Constant-speed geodesic from an optimal coupling.

    Coupled atom pairs move along straight base segments; `eval(t)` returns
    the interpolated measure at arc length t in [0, length], and `cut(t)`
    adds brackets on its distances to both ends. A zero-length path is
    flagged degenerate and stays constant. For p = 1 the plan need not be
    unique, which `nonunique` records.
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
    length_lower: float       # `dual_floor` of the solve's potentials; an oracle's value

    @classmethod
    def from_result(cls, res: TransportResult) -> WassersteinPath:
        """The geodesic along a solve's optimal plan, from its source to its target."""
        plan = res.plan
        mu, nu = plan.source, plan.target
        lower = res.value if res.psi is None else min(dual_floor(mu, nu, res.psi, res.p),
                                                       res.value)
        return cls(
            source=mu,
            target=nu,
            p=res.p,
            pair_sources=mu.support[plan.rows],
            pair_targets=nu.support[plan.cols],
            masses=plan.masses.copy(),
            length=res.value,
            degenerate=(res.value == 0.0),
            nonunique=(res.p == 1.0),
            length_lower=lower,
        )

    def eval(self, t: float) -> DiscreteMeasure:
        return self.cut(t)[0]

    def cut(self, t: float) -> tuple[DiscreteMeasure, tuple[float, float], tuple[float, float]]:
        """The point x at arc length t, with brackets on W_p(source, x) and W_p(x, target).

        At s = t / length the plan restricted to [0, s] costs s * length and
        the rest (1 - s) * length, which bound the two distances above; the
        triangle inequality through x bounds each below by `length_lower`
        minus the other's upper bound. Atoms that merged have moved off the
        plan's rows, and then the brackets have no lower end.
        """
        if not math.isfinite(t):
            raise DomainError(f"time t={t} must be finite")
        if self.degenerate:
            if abs(t) > _T_EDGE_TOL:
                raise DomainError(f"degenerate path is defined only at t=0, got {t}")
            return self.source, (0.0, 0.0), (0.0, 0.0)
        if t < -_T_EDGE_TOL or t > self.length + _T_EDGE_TOL:
            raise DomainError(f"time {t} outside [0, {self.length}]")
        s = min(max(t / self.length, 0.0), 1.0)
        pts = (1.0 - s) * self.pair_sources + s * self.pair_targets
        x = validate_measure(pts, self.masses)
        near, far = s * self.length, (1.0 - s) * self.length
        lower = self.length_lower if x.n_atoms == self.masses.shape[0] else -math.inf
        return x, (lower - far, near), (lower - near, far)


def displacement_path(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 2.0,
                      check: bool = False) -> WassersteinPath:
    """Geodesic between mu and nu built from an exact optimal coupling."""
    check_exponent(p)
    path = WassersteinPath.from_result(wasserstein_exact(mu, nu, p))
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
    """Unit-speed ray t -> sum_i w_i delta_{x_i + t * directions[i]}, t >= 0.

    `base` is sum_i w_i delta_{x_i}, and `directions` is an (n, d) array of
    unit rows, one per atom of `base`, in its order. Valid when the rows are
    descent directions of one shared 1-Lipschitz base field, as
    `measure_fields.lifted_ray` and `dirac_ray` build them; rows whose atoms
    cross may fall short of unit speed, and construction does not check it.
    """

    base: DiscreteMeasure
    directions: np.ndarray
    p: float = 2.0

    def __post_init__(self):
        check_exponent(self.p)
        n, d = self.base.n_atoms, self.base.dim
        rows = np.array(self.directions, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != n:
            raise InvalidRay(f"{n} atoms but directions of shape {rows.shape}")
        if rows.shape[1] != d:
            raise DimensionError(f"ray dim {rows.shape[1]} vs measure dim {d}")
        speeds = np.sqrt((rows * rows).sum(axis=1))
        if not (np.abs(speeds - 1.0) <= UNIT_TOL).all():  # nan fails it too
            raise InvalidRay(f"per-atom rays must be unit speed, got {speeds.tolist()}")
        rows.setflags(write=False)
        object.__setattr__(self, "directions", rows)

    def eval(self, t: float) -> DiscreteMeasure:
        return validate_measure(self.rows(t), self.base.weights)

    def rows(self, t: float) -> np.ndarray:
        """The atoms at time t, one row per atom of `base`, in its order."""
        if not (math.isfinite(t) and t >= 0.0):  # nan fails every comparison
            raise DomainError(f"ray parameter t={t} must be finite and non-negative")
        return self.base.support + t * self.directions


def dirac_ray(x, direction, p: float = 2.0) -> WassersteinRay:
    """Ray of a unit mass from x along `direction`, made unit by `_unit_vector`'s rule."""
    base = validate_measure(np.asarray(x, dtype=float).reshape(1, -1), np.ones(1))
    return WassersteinRay(base, _unit_vector(direction, base.support[0])[None, :], p)


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
    a solver defect and raises. On a ray of one atom each sample is read off
    the product plan, the only coupling with a Dirac, with no measure built
    and no solve; the value is the one `wasserstein_exact` returns.
    """
    if not tol > 0.0:  # nan fails it too, and the t_max check
        raise DomainError(f"tolerance {tol} must be positive")
    if not (math.isfinite(t_max) and t_max >= 1.0):
        raise DomainError(f"t_max {t_max} must be finite and at least 1")
    samples: list[tuple[float, float]] = []
    prev = None
    converged = False
    gap = math.inf
    if ray.base.n_atoms == 1:
        def distance(t):
            return dirac_value(omega, ray.rows(t), ray.base.weights, ray.p)
    else:
        def distance(t):
            return wasserstein_exact(omega, ray.eval(t), ray.p).value
    for t in _doubling_schedule(t_max):
        g = distance(t) - t
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
_ONE = np.ones(1)         # the weight of a unit Dirac
_ONE.setflags(write=False)


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.normal(size=dim)
        norm = math.sqrt(v.dot(v))  # the bits of np.linalg.norm, without its overhead
        if norm > 1e-8:
            return v / norm


def _in_band(cert: float, r: float) -> bool:
    return SPHERE_BAND[0] * r <= cert <= SPHERE_BAND[1] * r


def _translate_candidate(omega, r, p, rng):
    return shifted_measure(omega, omega.support + r * _random_unit(rng, omega.dim), p)


def _atom_shift_candidate(omega, r, p, rng):
    """Move one random atom by s along a random unit vector.

    The search starts at s = r * w_i^(-1/p), where moving atom i alone costs
    exactly r; a try outside the band (the atom met a neighbour) rescales s
    by r / cert, clipped to [0.2, 5], for at most 8 tries. A try whose s
    stays within atom i's distance to its nearest other atom is certified
    by the shift bracket's separation end, at w_i^(1/p) s; a longer one is
    solved.
    """
    idx = int(rng.integers(omega.n_atoms))
    u = _random_unit(rng, omega.dim)
    s = r * omega.weights[idx] ** (-1.0 / p)
    for _ in range(8):
        pts = omega.support.copy()
        pts[idx] = pts[idx] + s * u
        cand, cert = shifted_measure(omega, pts, p)
        if _in_band(cert, r):
            break
        if cert <= 1e-12:
            s *= 10.0
        else:
            s *= min(max(r / cert, 0.2), 5.0)
    return cand, cert


def _dilation_candidate(omega, r, p, rng):
    """Dilate omega about a random centre c to distance r, with no solve.

    With far = W_p(omega, delta_c), x = c + lam (omega - c) lies at
    W_p(omega, x) = |lam - 1| far for every lam > 0: moving each atom along
    its row is a coupling, and the triangle inequality through delta_c,
    whose only coupling is the product plan, gives W_p(omega, x) >=
    |W_p(x, delta_c) - far| = |lam - 1| far. Both ends are `dirac_value`
    reads. lam = 1 - r / far (a cut of the geodesic toward delta_c) with
    probability 1/2 when r < far, else 1 + r / far. Atoms that merged fall
    back to a solve through `shift_distance`.
    """
    c = (omega.weights.dot(omega.support) + max(r, 0.5) * rng.normal(size=omega.dim))[None, :]
    shrink = rng.random() < 0.5
    far = dirac_value(omega, c, _ONE, p)
    if far == 0.0:
        return None
    lam = 1.0 - r / far if shrink and r < far else 1.0 + r / far
    rows = c + lam * (omega.support - c)
    x = validate_measure(rows, omega.weights)
    lower = abs(dirac_value(x, c, _ONE, p) - far)
    return x, shift_distance(omega, x, rows, p, lower)


# each proposes one (measure, certified distance), or None; taken in turn
_SPHERE_GENERATORS = (_translate_candidate, _atom_shift_candidate, _dilation_candidate)


def sphere_candidates(omega: DiscreteMeasure, r: float, p: float = 2.0,
                      budget: int = 8, rng=None):
    """Lazy stream of the candidates `sphere_sample` returns, in its order.

    The radius and the budget, a whole number of at least 1, are checked
    now, before any solve; each candidate is proposed and certified only
    when it is read. Translations and dilations are certified by their
    construction (a dilation's lower end is the triangle inequality through
    the Dirac at its centre), so only a single-atom shift past a neighbour,
    or a candidate whose atoms merged, solves. Read to the end, the stream
    draws from rng exactly what `sphere_sample` draws, and raises
    `SphereSamplingFailed` if no candidate landed in the band.
    """
    if not 0.0 < r < math.inf:  # nan fails it too
        raise DomainError(f"radius {r} must be finite and positive")
    return _sphere_stream(omega, r, p, check_count(budget, "budget"), ensure_rng(rng))


def check_count(n, name: str) -> int:
    """n as an int if it is a whole number in [1, MAX_COUNT], as 8.0 is 8; else `DomainError`.

    A fractional, non-finite, non-numeric or huge n is refused: a budget of
    nan would keep no sample, and one of inf or 1e18 would never stop.
    """
    try:
        whole = int(n)
    except (TypeError, ValueError, OverflowError):  # not a number, nan, inf
        whole = 0
    if whole != n or not 1 <= whole <= MAX_COUNT:
        raise DomainError(f"{name} {n!r} must be a whole number from 1 to {MAX_COUNT}")
    return whole


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
    alone costs r, and a dilation about a random centre c scaled to land
    exactly at r, whose distance |lam - 1| W_p(omega, delta_c) both the row
    shifts and the triangle inequality through delta_c pin down with no
    solve. Every sample carries the certified distance, which is what
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
    if not eps >= 0.0:  # nan fails it too
        raise DomainError(f"eps {eps} must be a number of at least 0")
    N, K = check_count(N, "N"), check_count(K, "K")
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
    convergence is declared when the last increment is within tol, which
    must be positive. Returns (value, converged, samples) with the full
    (n, a_n) trace.
    """
    if not tol > 0.0:  # nan fails it too
        raise DomainError(f"tolerance {tol} must be positive")
    n_max = check_count(n_max, "n_max")
    if n_max < 2:
        raise DomainError(f"n_max {n_max} must be a whole number of at least 2")
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
