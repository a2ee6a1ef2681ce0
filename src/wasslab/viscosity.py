"""The unit-slope verification toolkit for fields on measure space.

Slope estimators, the sphere-calibration test for unit local slope,
sublevel reachability checks, budgeted greedy descent, and the
horizon-representation check, over the fields of `measure_fields`; the
fields are imported from there or from `wasslab`, not from here.

Search-based verdicts are honest by construction: every candidate carries a
solver-certified distance, and a negative verdict is reported as FAIL only
for field variants whose calibrating candidates are analytically complete
(lifted fields with ray-capable bases, constants, and their finite infima);
otherwise the search reports INCONCLUSIVE. A verdict does its work at a base
point once (`MeasureField.at`) and reads every candidate's value, except the
sphere test, which skips a sphere sample's value where the field's proven
floor shows that it changes nothing the test returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discrete_measure import DiscreteMeasure
from .errors import (
    DescentStalled,
    DomainError,
    InvalidRay,
    NoUsablePairs,
    SphereSamplingFailed,
    UnsupportedField,
)
from .measure_fields import BasePoint, MeasureField, lifted_ray
from .ot_exact import wasserstein_exact
from .wgeom import WassersteinRay, busemann_estimate, check_count, ensure_rng, sphere_candidates

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

_DEGENERATE_PAIR = 1e-10  # pairs closer than this carry no slope information
REFUTE_TOL = 1e-9         # relative excess of a drop over its distance that refutes 1-Lipschitz
CALIBRATION_EPS = 1e-3    # default sphere-test calibration slack
WITNESS_EPS = 1e-6        # default analytic-witness slack
PROBE_TS = (0.0, 1.0, 10.0)  # spans on which representation_check probes each ray
PROBE_TOL = 1e-8             # allowed gap between a probed drop and its span
ESTIMATOR_TOL = 1e-6         # doubling-increment tolerance of horizon estimates
ESTIMATOR_T_MAX = 1e4        # largest span of a horizon estimate in representation_check
REPRESENTATION_TOL = 1e-6    # allowed representation slack and own-ray horizon

def lipschitz_probe(U: MeasureField, pairs) -> float:
    """Max of |U(a) - U(b)| / W_p(a, b) over the supplied pairs.

    Pairs at distance <= 1e-10 carry no information and are skipped.
    """
    best = 0.0
    usable = 0
    for a, b in pairs:
        d = wasserstein_exact(a, b, U.p).value
        if d <= _DEGENERATE_PAIR:
            continue
        usable += 1
        best = max(best, abs(U.evaluate(a) - U.evaluate(b)) / d)
    if usable == 0:
        raise NoUsablePairs("every probe pair was degenerate")
    return best


@dataclass(frozen=True)
class SlopeEstimate:
    """Certified lower bound on a slope, with its replayable witness.

    `witness` is (measure, certified distance, ratio); the true slope is a
    supremum over infinitely many measures, so only lower bounds are
    certifiable by search.
    """

    value: float
    witness: tuple[DiscreteMeasure, float, float] | None
    radii: tuple[float, ...]
    skipped_radii: tuple[float, ...] = ()


class _Scan:
    """The candidates at radius r around a base point, analytic first, then the sphere samples.

    Iterating yields (measure, certified distance, value) over the
    non-degenerate candidates, and builds and certifies each one only when
    it is read; `n_candidates` counts the raw candidates read so far. The
    analytic candidate carries U(measure) from its construction, a sphere
    sample None: its reader evaluates it, unless the sphere test's floor rule
    settles it. The sampler checks r and the budget when the scan is made,
    before any solve.
    """

    def __init__(self, point: BasePoint, r, budget, rng):
        self.point, self.r = point, r
        self.sampled = sphere_candidates(point.omega, r, point.field.p, budget, rng)
        self.n_candidates = 0

    def __iter__(self):
        for x, cert, value in self._raw():
            self.n_candidates += 1
            if cert > _DEGENERATE_PAIR:
                yield x, cert, value

    def _raw(self):
        """(measure, certified distance, value) of each candidate; a sample's value is None."""
        analytic = self.point.candidate(self.r)
        if analytic is not None:
            yield analytic
        try:
            for x, cert in self.sampled:
                yield x, cert, None
        except SphereSamplingFailed:
            pass


def _check_radii(radii: Sequence[float]) -> tuple[float, ...]:
    radii = tuple(radii)
    if not radii or not all(0 < r < math.inf for r in radii) or not all(  # nan fails it too
        radii[k] > radii[k + 1] for k in range(len(radii) - 1)
    ):
        raise DomainError(f"radii must be positive, finite and decreasing, got {radii}")
    return radii


def local_slope_estimate(U: MeasureField, omega: DiscreteMeasure,
                         radii: Sequence[float] = (1.0, 0.5, 0.25),
                         budget: int = 8, rng=None) -> SlopeEstimate:
    """Lower bound on the local slope of U at omega over shrinking radii.

    Radii and budget are checked as `viscosity_sphere_test` checks them.
    """
    radii = _check_radii(radii)
    budget = check_count(budget, "budget")
    check_count(len(radii) * budget, "len(radii) * budget")
    rng = ensure_rng(rng)
    point = U.at(omega)
    base_value = point.value
    best: tuple[float, tuple | None] = (0.0, None)
    skipped = []
    for r in radii:
        scan = _Scan(point, r, budget, rng)
        for x, cert, value in scan:
            if value is None:
                value = U.evaluate(x)
            ratio = max(base_value - value, 0.0) / cert
            if best[1] is None or ratio > best[0]:
                best = (ratio, (x, cert, ratio))
        if not scan.n_candidates:
            skipped.append(r)
    return SlopeEstimate(best[0], best[1], radii, tuple(skipped))


def global_slope_estimate(U: MeasureField, omega: DiscreteMeasure,
                          dictionary: Sequence[DiscreteMeasure]) -> SlopeEstimate:
    """Lower bound on the global slope of U at omega over a dictionary."""
    if not dictionary:
        raise NoUsablePairs("empty dictionary")
    base_value = U.evaluate(omega)
    best: tuple[float, tuple | None] = (0.0, None)
    usable = 0
    for x in dictionary:
        d = wasserstein_exact(omega, x, U.p).value
        if d <= _DEGENERATE_PAIR:
            continue
        usable += 1
        ratio = max(base_value - U.evaluate(x), 0.0) / d
        if best[1] is None or ratio > best[0]:
            best = (ratio, (x, d, ratio))
    if usable == 0:
        raise NoUsablePairs("every dictionary entry coincides with the base measure")
    return SlopeEstimate(best[0], best[1], ())


def _refutes(drop: float, cert: float) -> bool:
    """Whether a value drop exceeds its certified distance, so U is not 1-Lipschitz."""
    return drop - cert > REFUTE_TOL * max(1.0, cert)


def drop_json(found: tuple[DiscreteMeasure, float, float] | None) -> dict | None:
    """A (measure, distance, drop) as JSON, or None; the reports and the CLI share it."""
    if found is None:
        return None
    x, cert, drop = found
    return {"measure": x.to_json_dict(), "distance": cert, "drop": drop}


def gap_json(gap: float) -> float | None:
    """A calibration gap as JSON: None (null) when it is not finite, as on a
    radius without candidates, since strict JSON has no Infinity."""
    return gap if math.isfinite(gap) else None


@dataclass(frozen=True)
class RadiusProbe:
    radius: float
    witness: tuple[DiscreteMeasure, float, float] | None  # (measure, dist, drop)
    best_gap: float
    n_candidates: int
    refuter: tuple[DiscreteMeasure, float, float] | None = None  # (measure, dist, drop)

    def to_json_dict(self) -> dict:
        return {
            "radius": self.radius,
            "witness": drop_json(self.witness),
            "best_gap": gap_json(self.best_gap),
            "n_candidates": self.n_candidates,
            "refuter": drop_json(self.refuter),
        }


@dataclass(frozen=True)
class SphereTestResult:
    verdict: str
    radii: tuple[RadiusProbe, ...]
    params: dict

    def to_json_dict(self) -> dict:
        return {
            "op": "viscosity_sphere_test",
            "verdict": self.verdict,
            "witness": [rp.to_json_dict() for rp in self.radii],
            "params": self.params,
        }


def viscosity_sphere_test(U: MeasureField, omega: DiscreteMeasure,
                          radii: Sequence[float] = (1.0, 0.5, 0.1),
                          eps: float = CALIBRATION_EPS, budget: int = 8,
                          rng=None) -> SphereTestResult:
    """Sphere-calibration test for unit slope.

    At each radius r the test looks for a candidate x at certified distance
    d with drop U(omega) - U(x) >= d (1 - eps). The reverse inequality, a
    drop of at most d, holds for a 1-Lipschitz field, and every candidate
    read is checked against it: the first whose drop exceeds d by more than
    REFUTE_TOL * max(1, d) is the radius's `refuter`. PASS requires a
    witness and no refuter at every radius. A refuter makes the verdict FAIL
    for analytically complete variants and INCONCLUSIVE otherwise, and so
    does a radius without a witness, except that a radius with no candidates
    at all is inconclusive. Radii must be positive and decreasing,
    0 < eps < 1, and the budget a whole number of at least 1 with
    len(radii) * budget at most `wgeom.MAX_COUNT`, all checked before any
    solve. A sphere sample's value is read only where the base point's
    `lower` bound cannot show that it changes no gap, witness or refuter.
    """
    radii = _check_radii(radii)
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps {eps} must lie strictly between 0 and 1")
    budget = check_count(budget, "budget")
    check_count(len(radii) * budget, "len(radii) * budget")
    rng = ensure_rng(rng)
    point = U.at(omega)
    base_value = point.value
    probes: list[RadiusProbe] = []
    for r in radii:
        scan = _Scan(point, r, budget, rng)
        witness = refuter = None
        best_gap = np.inf
        for x, cert, value in scan:
            if value is None:
                hi = base_value - point.lower(x, cert)
                if (cert - hi > best_gap and (witness is not None or hi < cert * (1.0 - eps))
                        and (refuter is not None or not _refutes(hi, cert))):
                    continue  # neither the gap, the witness nor the refuter can change
                value = U.evaluate(x)
            drop = base_value - value
            best_gap = min(best_gap, cert - drop)
            if witness is None and drop >= cert * (1.0 - eps):
                witness = (x, cert, drop)
            if refuter is None and _refutes(drop, cert):
                refuter = (x, cert, drop)
        probes.append(RadiusProbe(float(r), witness, float(best_gap), scan.n_candidates,
                                  refuter))
    # a witness is a candidate, so a radius with one is never empty
    if any(rp.refuter is not None for rp in probes):
        verdict = FAIL if U.exhaustive else INCONCLUSIVE
    elif all(rp.witness is not None for rp in probes):
        verdict = PASS
    elif U.exhaustive and all(rp.n_candidates for rp in probes):
        verdict = FAIL
    else:
        verdict = INCONCLUSIVE
    params = {"radii": list(radii), "eps": eps, "budget": budget, "p": U.p}
    return SphereTestResult(verdict, tuple(probes), params)


@dataclass(frozen=True)
class LevelProbe:
    level: float
    verdict: str
    witness: tuple[DiscreteMeasure, float] | None  # (measure, certified distance)
    refuter: tuple[DiscreteMeasure, float, float] | None = None  # (measure, dist, drop)

    def to_json_dict(self) -> dict:
        w = None
        if self.witness is not None:
            w = {"measure": self.witness[0].to_json_dict(), "distance": self.witness[1]}
        return {"level": self.level, "verdict": self.verdict, "witness": w,
                "refuter": drop_json(self.refuter)}


@dataclass(frozen=True)
class DlgResult:
    verdict: str
    levels: tuple[LevelProbe, ...]
    params: dict

    def to_json_dict(self) -> dict:
        return {
            "op": "dlg_test",
            "verdict": self.verdict,
            "witness": [lp.to_json_dict() for lp in self.levels],
            "params": self.params,
        }


def dlg_test(U: MeasureField, omega: DiscreteMeasure, levels: Sequence[float],
             budget: int = 8, eps: float = WITNESS_EPS, rng=None) -> DlgResult:
    """Sublevel-reachability test: value = level + distance to the sublevel set.

    The lower bound U(omega) >= c + d(omega, sublevel) holds for a
    1-Lipschitz field, so per level c the test searches for a witness x with
    U(x) <= c + 1e-9 at certified distance <= U(omega) - c + eps. Analytic
    variants supply the exact witness at arc length U(omega) - c. Every
    candidate read is checked against the 1-Lipschitz premise as in
    `viscosity_sphere_test`: a refuter rules out PASS at its level, which is
    then FAIL for analytically complete variants and INCONCLUSIVE otherwise,
    like a level without a witness. The scan stops at the first witness or
    refuter, so a level that the analytic candidate settles draws nothing
    from rng, and one settled by a sphere sample leaves rng where that
    sample left it. At least one level is required, and each must lie more
    than 1e-10 below U(omega), so that the analytic and translate
    candidates, both at certified distance about U(omega) - c, are never
    dropped as degenerate, and len(levels) * budget must be at most
    `wgeom.MAX_COUNT`. The budget, a whole number of at least 1, and eps, a
    finite number of at least 0, are checked before any solve.
    """
    budget = check_count(budget, "budget")
    if not 0.0 <= eps < math.inf:  # nan fails it too
        raise DomainError(f"eps {eps} must be a finite number of at least 0")
    if not all(math.isfinite(c) for c in levels):
        raise DomainError(f"levels {list(levels)} must be finite")
    point = U.at(omega)
    base_value = point.value
    if not levels or not all(c < base_value - _DEGENERATE_PAIR for c in levels):
        raise DomainError(f"levels {list(levels)} must be non-empty and each more than "
                          f"{_DEGENERATE_PAIR:g} below the value {base_value}")
    check_count(len(levels) * budget, "len(levels) * budget")
    rng = ensure_rng(rng)
    probes: list[LevelProbe] = []
    for c in levels:
        delta = base_value - c
        witness = refuter = None
        for x, cert, value in _Scan(point, delta, budget, rng):
            if value is None:
                value = U.evaluate(x)
            if _refutes(base_value - value, cert):
                refuter = (x, cert, base_value - value)
            if value <= c + 1e-9 and cert <= delta + eps:
                witness = (x, cert)
            if witness is not None or refuter is not None:
                break
        if witness is not None and refuter is None:
            verdict = PASS
        else:
            verdict = FAIL if U.exhaustive else INCONCLUSIVE
        probes.append(LevelProbe(float(c), verdict, witness, refuter))
    if all(lp.verdict == PASS for lp in probes):
        overall = PASS
    elif any(lp.verdict == FAIL for lp in probes):
        overall = FAIL
    else:
        overall = INCONCLUSIVE
    params = {"levels": list(levels), "eps": eps, "budget": budget, "p": U.p}
    return DlgResult(overall, tuple(probes), params)


@dataclass(frozen=True)
class DescentPolyline:
    """Vertices of a budgeted steepest-descent walk.

    Step k (1-based) may miss perfect calibration by at most epsilon / 2^k,
    so by telescoping U(v_i) - U(v_j) >= (t_j - t_i) - epsilon for every
    recorded i < j, and the walk escapes: W_p(v_0, v_k) >= t_k - epsilon.
    """

    vertices: tuple[DiscreteMeasure, ...]
    times: tuple[float, ...]    # cumulative certified arc length
    drops: tuple[float, ...]    # per-step value drops
    values: tuple[float, ...]   # field values at the vertices
    epsilon: float
    p: float

    def check_inequality(self) -> bool:
        """Both bounds above, each up to 1e-9 of round-off, and the 1-Lipschitz
        bound on every step: no drop exceeds its arc length d by more than
        REFUTE_TOL * max(1, d)."""
        k = len(self.vertices)
        if any(_refutes(self.drops[i], self.times[i + 1] - self.times[i])
               for i in range(k - 1)):
            return False
        for i in range(k):
            for j in range(i + 1, k):
                lhs = self.values[i] - self.values[j]
                rhs = (self.times[j] - self.times[i]) - self.epsilon
                if lhs < rhs - 1e-9:
                    return False
        if k > 1:
            span = wasserstein_exact(self.vertices[0], self.vertices[-1], self.p).value
            if span < self.times[-1] - self.epsilon - 1e-9:
                return False
        return True

    def observed_slack(self) -> float:
        """Worst shortfall of cumulative drop against cumulative arc length.

        Taken over the vertices after the start, so a drop beyond its arc
        length reads negative; a walk of no steps has slack 0.
        """
        return max(
            (self.times[k] - (self.values[0] - self.values[k])
             for k in range(1, len(self.vertices))),
            default=0.0,
        )


def greedy_descent(U: MeasureField, omega: DiscreteMeasure, eps: float,
                   steps: int, step_length: float = 1.0, budget: int = 8,
                   rng=None) -> DescentPolyline:
    """Budgeted steepest descent with geometrically tightening step defects.

    Step k accepts a candidate at certified distance d only when the drop is
    at least d - eps / 2^k and does not refute the 1-Lipschitz premise (a
    drop beyond d by more than REFUTE_TOL * max(1, d), as in the verdicts);
    among admissible candidates the best-calibrated one wins (ties to the
    earliest generated). Raises DescentStalled, with the partial polyline
    and the stalled step's first refuting (measure, distance, drop), if any,
    attached, when no candidate is admissible; this is the expected outcome
    for fields that are not unit-slope. The step count and the budget must
    be whole numbers of at least 1, and steps * budget at most
    `wgeom.MAX_COUNT`.
    """
    if not 0.0 < eps < math.inf:  # nan fails it too
        raise DomainError(f"eps {eps} must be finite and positive")
    steps, budget = check_count(steps, "steps"), check_count(budget, "budget")
    check_count(steps * budget, "steps * budget")
    if not 0.0 < step_length < math.inf:
        raise DomainError(f"step_length {step_length} must be finite and positive")
    rng = ensure_rng(rng)
    point = U.at(omega)
    vertices = [omega]
    values = [point.value]
    times = [0.0]
    drops: list[float] = []
    for k in range(1, steps + 1):
        if k > 1:
            point = U.at(vertices[-1])
        defect = eps / 2.0**k
        best = refuter = None  # best: (margin, x, cert, drop)
        worst_gap = np.inf
        for x, cert, value in _Scan(point, step_length, budget, rng):
            if value is None:
                value = U.evaluate(x)
            drop = values[-1] - value
            margin = drop - cert
            worst_gap = min(worst_gap, cert - drop)
            refutes = _refutes(drop, cert)
            if refutes and refuter is None:
                refuter = (x, cert, drop)
            if not refutes and margin >= -defect and (best is None or margin > best[0]):
                best = (margin, x, cert, drop)
        if best is None:
            raise DescentStalled(
                f"no admissible candidate at step {k} (best gap {worst_gap:.3e}, "
                f"allowed {defect:.3e})",
                step=k,
                best_gap=float(worst_gap),
                polyline=DescentPolyline(tuple(vertices), tuple(times),
                                         tuple(drops), tuple(values), eps, U.p),
                refuter=refuter,
            )
        _, x, cert, drop = best
        vertices.append(x)
        values.append(values[-1] - drop)
        times.append(times[-1] + cert)
        drops.append(drop)
    return DescentPolyline(tuple(vertices), tuple(times), tuple(drops),
                           tuple(values), eps, U.p)


def representation_check(U: MeasureField, omega: DiscreteMeasure,
                         rays: Sequence[WassersteinRay]) -> dict:
    """Horizon representation of U: value = inf over descent rays of
    [value at the ray start + horizon function of the ray].

    Every supplied ray must first pass a calibration probe (unit value drop
    on sampled spans), else InvalidRay. The inequality direction is then
    checked per ray with truncated horizon estimates, which over-estimate
    the limit and therefore never produce a false violation; equality is
    certified through the field's own ray from omega when one is
    constructible.
    """
    ray_reports = []
    passed = True
    for idx, ray in enumerate(rays):
        start = ray.eval(0.0)
        v0 = U.evaluate(start)
        for t in PROBE_TS:
            drop = v0 - U.evaluate(ray.eval(t))
            if abs(drop - t) > PROBE_TOL:
                raise InvalidRay(
                    f"ray {idx} drops {drop} over span {t}; not a descent ray of U"
                )
        b = busemann_estimate(ray, omega, tol=ESTIMATOR_TOL, t_max=ESTIMATOR_T_MAX)
        slack = (v0 + b.value) - U.evaluate(omega)
        ok = slack >= -REPRESENTATION_TOL
        passed = passed and ok
        ray_reports.append({
            "start_value": v0,
            "busemann": b.value,
            "slack": slack,
            "converged": b.converged,
            "ok": ok,
        })
    own_report = None
    try:
        own = lifted_ray(U, omega)
    except UnsupportedField:
        own = None
    if own is not None:
        b_own = busemann_estimate(own, omega, tol=ESTIMATOR_TOL, t_max=ESTIMATOR_T_MAX)
        ok = abs(b_own.value) <= REPRESENTATION_TOL
        passed = passed and ok
        own_report = {"busemann": b_own.value, "ok": ok}
    return {
        "op": "representation_check",
        "verdict": PASS if passed else FAIL,
        "rays": ray_reports,
        "own_ray": own_report,
        "params": {
            "tol": REPRESENTATION_TOL,
            "probe_ts": list(PROBE_TS),
            "estimator_tol": ESTIMATOR_TOL,
            "estimator_t_max": ESTIMATOR_T_MAX,
        },
    }
