"""Scalar fields on measure space and the unit-slope verification toolkit.

The central operator is `lift`: integrating a 1-Lipschitz base field against
a measure gives a 1-Lipschitz field on measure space whose steepest-descent
rays move every atom along the base field's own descent rays. Around it sit
slope estimators, the sphere-calibration test for unit local slope, sublevel
reachability checks, budgeted greedy descent, and the horizon-representation
check.

Search-based verdicts are honest by construction: every candidate carries a
solver-certified distance, and a negative verdict is reported as FAIL only
for field variants whose calibrating candidates are analytically complete
(lifted fields with ray-capable bases, constants, and their finite infima);
otherwise the search reports INCONCLUSIVE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base_space import ScalarField, base_field_from_config
from .discrete_measure import DiscreteMeasure
from .errors import (
    DescentStalled,
    DimensionError,
    DomainError,
    EmptyCollection,
    InvalidRay,
    NoUsablePairs,
    ParseError,
    SphereSamplingFailed,
    UnsupportedField,
    json_numbers,
)
from .ot_exact import wasserstein_exact
from .wgeom import (
    WassersteinRay,
    busemann_estimate,
    displacement_path,
    ensure_rng,
    sphere_candidates,
)

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


class MeasureField:
    """Real function on the space of discrete measures, W_p-1-Lipschitz."""

    p: float

    def evaluate(self, omega: DiscreteMeasure) -> float:
        raise NotImplementedError

    def descent_candidate(self, omega: DiscreteMeasure, t: float) -> DiscreteMeasure | None:
        """Analytic point at arc length t with exact value drop t, if known."""
        return None

    @property
    def exhaustive(self) -> bool:
        """Whether a failed candidate search is a complete (honest) negative."""
        return False

    def __call__(self, omega: DiscreteMeasure) -> float:
        return self.evaluate(omega)


@dataclass(frozen=True, eq=False)
class LiftedField(MeasureField):
    """omega -> integral of the base field against omega."""

    base: ScalarField
    p: float = 2.0

    def evaluate(self, omega: DiscreteMeasure) -> float:
        self._check_dim(omega)
        return float(np.dot(omega.weights, self.base.evaluate_many(omega.support)))

    def _check_dim(self, omega: DiscreteMeasure) -> None:
        if self.base.dim != omega.dim:
            raise DimensionError(f"field dim {self.base.dim} vs measure dim {omega.dim}")

    def descent_candidate(self, omega, t):
        if not self.base.has_analytic_rays:
            return None
        return lifted_ray(self, omega).eval(t)

    @property
    def exhaustive(self) -> bool:
        return self.base.has_analytic_rays


@dataclass(frozen=True, eq=False)
class DistanceToField(MeasureField):
    """omega -> W_p(omega, target) - offset."""

    target: DiscreteMeasure
    offset: float = 0.0
    p: float = 2.0

    def evaluate(self, omega: DiscreteMeasure) -> float:
        return wasserstein_exact(omega, self.target, self.p).value - self.offset

    def descent_candidate(self, omega, t):
        # the geodesic toward the target calibrates exactly, but only up to it
        path = displacement_path(omega, self.target, self.p)
        if t >= path.length - 1e-9:
            return None
        return path.eval(t)


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

    def descent_candidate(self, omega, t):
        values = [m.evaluate(omega) for m in self.members]
        return self.members[int(np.argmin(values))].descent_candidate(omega, t)

    @property
    def exhaustive(self) -> bool:
        return all(m.exhaustive for m in self.members)


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
    if u.lipschitz > 1.0 + 1e-9:
        raise DomainError(f"declared Lipschitz bound {u.lipschitz} exceeds 1")
    return LiftedField(u, p)


def inf_of_fields(fields: Sequence[MeasureField]) -> MeasureField:
    """Pointwise minimum; singletons pass through unchanged."""
    fields = tuple(fields)
    return fields[0] if len(fields) == 1 else InfField(fields)


def lifted_ray(U: MeasureField, omega: DiscreteMeasure) -> WassersteinRay:
    """Per-atom descent ray of a lifted field; exact unit-rate value drop."""
    if not isinstance(U, LiftedField):
        raise UnsupportedField(f"{type(U).__name__} has no lifted descent ray")
    U._check_dim(omega)
    return WassersteinRay(omega, *U.base.descent_rays(omega.support), U.p)


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
    """The candidates at radius r, analytic first, then the sphere samples.

    Iterating yields (measure, certified distance, U(measure)) over the
    non-degenerate candidates, and builds, certifies and evaluates each one
    only when it is read; `n_candidates` counts the raw candidates read so
    far. The sampler checks r and the budget when the scan is made, before
    any solve.
    """

    def __init__(self, U, omega, r, budget, rng):
        self.U, self.omega, self.r = U, omega, r
        self.sampled = sphere_candidates(omega, r, U.p, budget, rng)
        self.n_candidates = 0

    def __iter__(self):
        for x, cert in self._raw():
            self.n_candidates += 1
            if cert > _DEGENERATE_PAIR:
                yield x, cert, self.U.evaluate(x)

    def _raw(self):
        analytic = self.U.descent_candidate(self.omega, self.r)
        if analytic is not None:
            yield analytic, wasserstein_exact(self.omega, analytic, self.U.p).value
        try:
            yield from self.sampled
        except SphereSamplingFailed:
            pass


def _check_radii(radii: Sequence[float]) -> tuple[float, ...]:
    radii = tuple(radii)
    if not radii or not all(r > 0 for r in radii) or not all(  # nan fails it too
        radii[k] > radii[k + 1] for k in range(len(radii) - 1)
    ):
        raise DomainError(f"radii must be positive and decreasing, got {radii}")
    return radii


def local_slope_estimate(U: MeasureField, omega: DiscreteMeasure,
                         radii: Sequence[float] = (1.0, 0.5, 0.25),
                         budget: int = 8, rng=None) -> SlopeEstimate:
    """Lower bound on the local slope of U at omega over shrinking radii."""
    radii = _check_radii(radii)
    rng = ensure_rng(rng)
    base_value = U.evaluate(omega)
    best: tuple[float, tuple | None] = (0.0, None)
    skipped = []
    for r in radii:
        scan = _Scan(U, omega, r, budget, rng)
        for x, cert, value in scan:
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


def _drop_json(found: tuple[DiscreteMeasure, float, float] | None) -> dict | None:
    if found is None:
        return None
    x, cert, drop = found
    return {"measure": x.to_json_dict(), "distance": cert, "drop": drop}


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
            "witness": _drop_json(self.witness),
            "best_gap": self.best_gap,
            "n_candidates": self.n_candidates,
            "refuter": _drop_json(self.refuter),
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
    at all is inconclusive. Radii must be positive and decreasing, and
    0 < eps < 1.
    """
    radii = _check_radii(radii)
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps {eps} must lie strictly between 0 and 1")
    rng = ensure_rng(rng)
    base_value = U.evaluate(omega)
    probes: list[RadiusProbe] = []
    for r in radii:
        scan = _Scan(U, omega, r, budget, rng)
        witness = refuter = None
        best_gap = np.inf
        for x, cert, value in scan:
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
                "refuter": _drop_json(self.refuter)}


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
    dropped as degenerate; budget >= 1 is checked before any candidate is
    solved.
    """
    base_value = U.evaluate(omega)
    if not levels or not all(c < base_value - _DEGENERATE_PAIR for c in levels):
        raise DomainError(f"levels {list(levels)} must be non-empty and each more than "
                          f"{_DEGENERATE_PAIR:g} below the value {base_value}")
    rng = ensure_rng(rng)
    probes: list[LevelProbe] = []
    for c in levels:
        delta = base_value - c
        witness = refuter = None
        for x, cert, value in _Scan(U, omega, delta, budget, rng):
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
        """Both bounds above, each up to 1e-9 of round-off."""
        k = len(self.vertices)
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
        """Worst shortfall of cumulative drop against cumulative arc length."""
        return max(
            (self.times[k] - (self.values[0] - self.values[k]))
            for k in range(len(self.vertices))
        )


def greedy_descent(U: MeasureField, omega: DiscreteMeasure, eps: float,
                   steps: int, step_length: float = 1.0, budget: int = 8,
                   rng=None) -> DescentPolyline:
    """Budgeted steepest descent with geometrically tightening step defects.

    Step k accepts a candidate at certified distance d only when the drop is
    at least d - eps / 2^k; among admissible candidates the best-calibrated
    one wins (ties to the earliest generated). Raises DescentStalled, with
    the partial polyline attached, when no candidate is admissible; this is
    the expected outcome for fields that are not unit-slope.
    """
    if not eps > 0.0:  # nan fails it too
        raise DomainError(f"eps {eps} must be positive")
    if steps < 1:
        raise DomainError(f"steps {steps} must be at least 1")
    if not step_length > 0.0:
        raise DomainError(f"step_length {step_length} must be positive")
    rng = ensure_rng(rng)
    vertices = [omega]
    values = [U.evaluate(omega)]
    times = [0.0]
    drops: list[float] = []
    for k in range(1, steps + 1):
        defect = eps / 2.0**k
        best = None  # (margin, x, cert, drop)
        worst_gap = np.inf
        for x, cert, value in _Scan(U, vertices[-1], step_length, budget, rng):
            drop = values[-1] - value
            margin = drop - cert
            worst_gap = min(worst_gap, cert - drop)
            if margin >= -defect and (best is None or margin > best[0]):
                best = (margin, x, cert, drop)
        if best is None:
            raise DescentStalled(
                f"no admissible candidate at step {k} (best gap {worst_gap:.3e}, "
                f"allowed {defect:.3e})",
                step=k,
                best_gap=float(worst_gap),
                polyline=DescentPolyline(tuple(vertices), tuple(times),
                                         tuple(drops), tuple(values), eps, U.p),
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
        if kind == "inf":
            return inf_of_fields([measure_field_from_config(m, p) for m in cfg["members"]])
    except KeyError as exc:
        raise ParseError(f"{kind} field config is missing the {exc.args[0]!r} entry") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{kind} field config has an entry of the wrong type: {exc}") from exc
    raise DomainError(f"unknown measure field kind {kind!r}")
