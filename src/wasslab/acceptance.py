"""Acceptance battery: the package's exit criteria as one runnable checklist.

Each criterion is a self-contained, seeded check returning (passed, detail).
Tolerances are pinned here, or, for the escaping-family criteria C03-C06, in
the scenarios module whose computations they share with ex3/ex5. The pytest
acceptance module and the CLI `acceptance` subcommand both run exactly this
list; `run_all` is the one loop over it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .base_space import BusemannField, MinField
from .discrete_measure import random_measure, validate_measure
from .errors import DescentStalled, ParseError
from .measure_fields import ConstantField, lift, lifted_ray
from .ot_exact import brute_force_oracle, wasserstein_1d_oracle, wasserstein_exact
from .scenarios import (
    DISTANCE_TOL,
    RAY_DROP_TOL,
    RAY_SPAN_TOL,
    escaping_distances,
    escaping_sphere_cuts,
    flat_limit_sphere,
    lifted_ray_calibration,
    vanishing_decay,
)
from .viscosity import (
    FAIL,
    PASS,
    greedy_descent,
    lipschitz_probe,
    representation_check,
    viscosity_sphere_test,
)
from .wgeom import busemann_estimate, dirac_ray, displacement_path


@dataclass(frozen=True)
class Criterion:
    name: str
    summary: str
    fn: Callable[[], tuple[bool, str]]

    def run(self) -> tuple[bool, str]:
        return self.fn()


def _unit(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _crit_1d_oracle() -> tuple[bool, str]:
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(200):
        p = (1.0, 2.0, 3.0)[k % 3]
        mu = random_measure(rng, 20, 1)
        nu = random_measure(rng, 20, 1)
        gap = abs(wasserstein_exact(mu, nu, p).value
                  - wasserstein_1d_oracle(mu, nu, p).value)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    return ok, f"max solver/quantile gap {worst:.2e} over 200 pairs in {elapsed:.1f}s"


def _crit_bruteforce() -> tuple[bool, str]:
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(100):
        p = (1.0, 2.0, 3.0)[k % 3]
        d = int(rng.integers(1, 4))
        if k % 2 == 0:
            n = int(rng.integers(2, 7))
            mu = validate_measure(rng.uniform(-5, 5, (n, d)), np.full(n, 1.0 / n))
            nu = validate_measure(rng.uniform(-5, 5, (n, d)), np.full(n, 1.0 / n))
        else:
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 10 - n))
            mu = random_measure(rng, n, d, box=5.0, min_atoms=n)
            nu = random_measure(rng, m, d, box=5.0, min_atoms=m)
        gap = abs(wasserstein_exact(mu, nu, p).value
                  - brute_force_oracle(mu, nu, p).value)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    return ok, f"max simplex/enumeration gap {worst:.2e} over 100 instances in {elapsed:.1f}s"


def _crit_escaping_distances() -> tuple[bool, str]:
    worst = max(err for p in (2.0, 3.0) for *_, err in escaping_distances(p))
    return worst <= DISTANCE_TOL, f"max |W_p - n| = {worst:.2e} for n=1..50, p in (2,3)"


def _crit_escaping_noncompact() -> tuple[bool, str]:
    scaled = {}
    verdicts = {}
    for sigma in (1.0, 0.5, 2.0):
        min_gap, rep = escaping_sphere_cuts(2.0, sigma)
        scaled[sigma] = min_gap / sigma
        verdicts[sigma] = rep["verdict"]
    all_fail = all(v == FAIL for v in verdicts.values())
    positive = all(s > 0.0 for s in scaled.values())
    stable = all(abs(scaled[s] - scaled[1.0]) <= 1e-6 for s in (0.5, 2.0))
    ok = all_fail and positive and stable
    return ok, (f"verdicts {sorted(verdicts.values())}, min/sigma "
                f"{scaled[1.0]:.6f} stable to {max(abs(scaled[s] - scaled[1.0]) for s in (0.5, 2.0)):.1e}")


def _crit_vanishing_decay() -> tuple[bool, str]:
    decay = vanishing_decay(200)
    ok = decay.delta1_ok and decay.envelope_ok
    return ok, (f"closed-form gap {decay.delta1_max_err:.2e} (n<=100), "
                f"1/n envelope with C={decay.envelope_constant:.4f}")


def _crit_flat_limit_fails_sphere() -> tuple[bool, str]:
    res, ok = flat_limit_sphere(606)
    gaps = ", ".join(f"{rp.best_gap:.3f}@r={rp.radius}" for rp in res.radii)
    return ok, f"verdict {res.verdict}, gaps {gaps}"


def _crit_lifting() -> tuple[bool, str]:
    p = 2.0
    rng = np.random.default_rng(1007)
    base = MinField((
        BusemannField(_unit(0.4), 0.0),
        BusemannField(_unit(2.3), 0.7),
        BusemannField(_unit(4.9), -0.4),
    ))
    U = lift(base, p)
    measures = [random_measure(rng, 8, 2, box=3.0) for _ in range(20)]

    pairs = [(measures[i], measures[j])
             for i in range(len(measures)) for j in range(i + 1, len(measures))]
    ratio = lipschitz_probe(U, pairs)
    if ratio > 1.0 + 1e-9:
        return False, f"Lipschitz probe ratio {ratio}"

    rows = lifted_ray_calibration(U, measures)
    worst_drop = max(drop_err for *_, drop_err, _ in rows)
    worst_span = max(span_err for *_, span_err in rows)
    if worst_drop > RAY_DROP_TOL or worst_span > RAY_SPAN_TOL:
        return False, f"ray calibration drop_err={worst_drop:.2e} span_err={worst_span:.2e}"

    for omega in measures:
        res = viscosity_sphere_test(U, omega, radii=(1.0, 0.5, 0.1),
                                    eps=1e-3, budget=6, rng=rng)
        if res.verdict != PASS:
            return False, f"sphere test verdict {res.verdict}"
    return True, (f"probe {ratio:.12f}, drop_err {worst_drop:.1e}, "
                  f"span_err {worst_span:.1e}, 20 sphere tests PASS")


def _crit_geodesic_property() -> tuple[bool, str]:
    rng = np.random.default_rng(1008)
    worst = 0.0
    for k in range(50):
        p = (2.0, 3.0)[k % 2]
        d = int(rng.integers(1, 4))
        mu = random_measure(rng, 6, d, box=5.0)
        nu = random_measure(rng, 6, d, box=5.0)
        path = displacement_path(mu, nu, p)
        if path.degenerate:
            continue
        for _ in range(20):
            s, t = np.sort(rng.uniform(0.0, path.length, size=2))
            dist = wasserstein_exact(path.eval(s), path.eval(t), p).value
            worst = max(worst, abs(dist - (t - s)))
    return worst <= 1e-8, f"max |W_p(path(s),path(t)) - |t-s|| = {worst:.2e}"


def _crit_horizon_closed_form() -> tuple[bool, str]:
    # test measures cluster within 0.05 of the ray axis so the 1/(2t)
    # truncation tail at t_max=1e4 sits safely under the 1e-6 budget
    p = 2.0
    rng = np.random.default_rng(1009)
    v = _unit(0.83)
    ray = dirac_ray([0.0, 0.0], v, p)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 6))
        s0 = rng.uniform(-2.0, 2.0)
        pts = s0 * v + rng.uniform(-0.035, 0.035, size=(n, 2))
        w = rng.random(n) + 0.1
        omega = validate_measure(pts, w / w.sum())
        est = busemann_estimate(ray, omega, tol=1e-9, t_max=1e4)
        diffs = np.diff([g for _, g in est.samples])
        if np.any(diffs > 1e-9):
            return False, "non-monotone horizon trace"
        closed = -float(np.dot(omega.weights, omega.support @ v))
        worst = max(worst, abs(est.value - closed))
    return worst <= 1e-6, f"max |estimate - closed form| = {worst:.2e} at t_max=1e4"


def _crit_representation() -> tuple[bool, str]:
    p = 2.0
    rng = np.random.default_rng(1010)
    U = lift(BusemannField(_unit(1.1), 0.3), p)
    rays = [lifted_ray(U, random_measure(rng, 4, 2, box=2.0)) for _ in range(5)]
    worst_own = 0.0
    for _ in range(10):
        omega = random_measure(rng, 4, 2, box=2.0)
        rep = representation_check(U, omega, rays)
        if rep["verdict"] != PASS:
            return False, f"representation check failed at {omega}"
        worst_own = max(worst_own, abs(rep["own_ray"]["busemann"]))
    return True, f"5 rays + own ray on 10 measures, |own-ray horizon| <= {worst_own:.2e}"


def _crit_descent() -> tuple[bool, str]:
    p = 2.0
    rng = np.random.default_rng(1011)
    U = lift(BusemannField(_unit(2.0), 0.0), p)
    omega = random_measure(rng, 4, 2, box=2.0)
    poly = greedy_descent(U, omega, eps=1e-2, steps=20, step_length=1.0,
                          budget=6, rng=rng)
    slack = poly.observed_slack()
    if not (poly.check_inequality() and slack <= 1e-2):
        return False, f"cumulative inequality violated (slack {slack:.2e})"
    try:
        greedy_descent(ConstantField(0.0, p), omega, eps=1e-2, steps=20,
                       step_length=1.0, budget=6, rng=rng)
        return False, "constant field did not stall"
    except DescentStalled as exc:
        if exc.step != 1:
            return False, f"constant field stalled at step {exc.step}, expected 1"
    return True, f"20 unit steps, slack {slack:.2e}; constant field stalls at step 1"


def _crit_kantorovich_rubinstein() -> tuple[bool, str]:
    rng = np.random.default_rng(1012)
    worst = -math.inf
    for k in range(200):
        d = int(rng.integers(1, 4))
        a1, a2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        if d == 1:
            dirs = [np.array([1.0]), np.array([-1.0])]
        else:
            dirs = [_unit(a1), _unit(a2)]
            if d == 3:
                dirs = [np.append(u, 0.0) / np.linalg.norm(np.append(u, 0.0)) for u in dirs]
        field = MinField((BusemannField(dirs[0], 0.0), BusemannField(dirs[1], 0.3)))
        U = lift(field, 1.0)
        mu = random_measure(rng, 8, d, box=5.0)
        nu = random_measure(rng, 8, d, box=5.0)
        w1 = wasserstein_exact(mu, nu, 1.0).value
        worst = max(worst, abs(U.evaluate(mu) - U.evaluate(nu)) - w1)
    return worst <= 1e-9, f"max (|mean gap| - W_1) = {worst:.2e} over 200 pairs"


CRITERIA: tuple[Criterion, ...] = (
    Criterion("C01-1d-oracle",
              "simplex agrees with the monotone quantile coupling on the line",
              _crit_1d_oracle),
    Criterion("C02-bruteforce",
              "simplex agrees with exhaustive vertex enumeration on tiny instances",
              _crit_bruteforce),
    Criterion("C03-escaping-distances",
              "escaping mixtures sit at distance exactly n from the origin Dirac",
              _crit_escaping_distances),
    Criterion("C04-escaping-noncompact",
              "sphere cuts of the escaping family never cluster; verdict FAIL, choice-stable",
              _crit_escaping_noncompact),
    Criterion("C05-vanishing-decay",
              "distance fields of the escaping family vanish at rate 1/n",
              _crit_vanishing_decay),
    Criterion("C06-flat-limit-sphere",
              "the flat limit field fails sphere calibration at every radius",
              _crit_flat_limit_fails_sphere),
    Criterion("C07-lifting",
              "lifted min-of-horizons field: 1-Lipschitz, calibrated rays, sphere PASS",
              _crit_lifting),
    Criterion("C08-geodesic-property",
              "displacement paths are constant-speed geodesics",
              _crit_geodesic_property),
    Criterion("C09-horizon-closed-form",
              "Dirac-ray horizon estimates match the quadratic expansion",
              _crit_horizon_closed_form),
    Criterion("C10-representation",
              "field value = inf over descent rays of start value + horizon",
              _crit_representation),
    Criterion("C11-descent",
              "greedy descent telescopes within eps; flat field stalls immediately",
              _crit_descent),
    Criterion("C12-kantorovich-rubinstein",
              "lifted mean gaps are dominated by W_1",
              _crit_kantorovich_rubinstein),
)


def run_all(only=None) -> list[tuple[str, bool, str]]:
    """Run every criterion, or those whose name contains one of `only`.

    Returns (name, passed, detail) triples; a criterion that raises fails.
    """
    selected = [c for c in CRITERIA if not only or any(w in c.name for w in only)]
    if not selected:
        raise ParseError(f"no criterion matches {sorted(set(only))}")
    results = []
    for crit in selected:
        try:
            ok, detail = crit.run()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((crit.name, ok, detail))
    return results
