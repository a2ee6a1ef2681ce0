"""Output checks for every item of every round.

`attach_references` computes each solve's reference once, from the raw
arrays before any translation; the per-round check then also shows that
translation leaves the value unchanged.  A check returns the number of
failed operations and a list of problems.  A failed operation is one that
raised or came back wrong.  On an extreme-scale solve that is a known
fault of the program, counted rather than hidden.  On any other operation
it is also a problem, which makes the run incorrect and keeps the round
out of the item's time.
"""

from __future__ import annotations

import math

import numpy as np

import refs
from workloads import (
    BUSEMANN_T_MAX,
    DESCENT_EPS,
    DESCENT_STEPS,
    SolveWorkload,
    VerdictWorkload,
)

TOL = 1e-9


def attach_references(workload) -> None:
    if isinstance(workload, SolveWorkload):
        for s in workload.solves:
            if s.kind == "escaping":
                s.reference = refs.escaping_distance(s.escaping_n, s.p)
            else:
                s.reference = refs.w_p(s.x, s.a, s.y, s.b, s.p)


def check(workload, k: int, result) -> tuple[int, list[str]]:
    if isinstance(result, Exception):
        return workload.item_ops(k), [f"{workload.item_name(k)}: raised {result!r}"]
    if isinstance(workload, SolveWorkload):
        return _check_solves(workload, k, result)
    if isinstance(workload, VerdictWorkload):
        return 0, [f"{workload.item_name(k)}: {p}" for p in _verdict_problems(workload, k, result)]
    raise TypeError(f"no checks for {type(workload).__name__}")


def _check_solves(workload: SolveWorkload, k: int, results) -> tuple[int, list[str]]:
    failed = 0
    problems = []
    for idx, res in zip(workload.items[k], results):
        s = workload.solves[idx]
        bad = []
        if isinstance(res, Exception):
            bad.append(f"raised {res!r}")
        elif not refs.value_matches(res.value, s.reference):
            bad.append(f"value {res.value!r} against reference {s.reference!r}")
        else:
            mu, nu = workload.round_measures[idx]
            bad.extend(refs.plan_problems(res, mu, nu))
        failed += bool(bad)
        if bad and s.kind != "extreme":
            problems.append(f"{workload.item_name(k)} solve {idx} (p={s.p}): {'; '.join(bad)}")
    return failed, problems


def _verdict_problems(workload: VerdictWorkload, k: int, result) -> list[str]:
    c, kind = workload.items[k]
    rc = workload.round_cases[c]
    if kind in ("sphere_lifted", "sphere_distance", "dlg"):
        return [] if result.verdict == "PASS" else [f"verdict {result.verdict}, expected PASS"]
    if kind == "sphere_constant":
        return [] if result.verdict == "FAIL" else [f"verdict {result.verdict}, expected FAIL"]
    if kind == "descent":
        return _descent_problems(rc, result)
    return _busemann_problems(rc, result)


def _descent_problems(rc, poly) -> list[str]:
    """U(v_i) - U(v_j) >= (t_j - t_i) - eps and W_2(v_0, v_k) >= t_k - eps.

    Field values are recomputed here from the min-of-Busemann parameters and
    the span from the reference solver, not taken from the polyline.
    """
    if len(poly.vertices) != DESCENT_STEPS + 1:
        return [f"{len(poly.vertices) - 1} steps, expected {DESCENT_STEPS}"]
    out = []
    values = [rc.case.field_value(v.support, v.weights, rc.shift) for v in poly.vertices]
    for got, own in zip(poly.values, values):
        if abs(got - own) > TOL * max(abs(own), 1.0):
            out.append(f"reported field value {got!r}, recomputed {own!r}")
    t = poly.times
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] - values[j] < (t[j] - t[i]) - DESCENT_EPS - TOL:
                out.append(f"descent inequality fails between vertices {i} and {j}")
    first, last = poly.vertices[0], poly.vertices[-1]
    span = refs.w_p(first.support, first.weights, last.support, last.weights, 2.0)
    if span < t[-1] - DESCENT_EPS - TOL:
        out.append(f"span {span!r} below arc length {t[-1]!r} - eps")
    return out


def _busemann_problems(rc, est) -> list[str]:
    """Dirac-ray horizon against -<mean - x0, v>, within the truncation tail.

    With a = <mean - x0, v> and b = E|x - x0|^2 - a^2, the sample at t is
    sqrt((t - a)^2 + b) - t, which exceeds the limit -a by at most
    b / (2 (t - a)).
    """
    omega, x0, v = rc.omega, rc.case.ray_origin + rc.shift, rc.case.ray_direction
    rel = omega.support - x0
    a = float(np.dot(omega.weights, rel @ v))
    b = max(float(np.dot(omega.weights, np.sum(rel * rel, axis=1))) - a * a, 0.0)
    t = est.truncation
    if not a < t <= BUSEMANN_T_MAX:
        return [f"truncated at t={t}, outside ({a}, {BUSEMANN_T_MAX}]"]
    out = []
    sample = math.sqrt((t - a) ** 2 + b) - t
    if abs(est.value - sample) > TOL * max(abs(sample), 1.0):
        out.append(f"estimate {est.value!r}, exact sample {sample!r} at t={t}")
    excess = est.value + a
    if not -TOL <= excess <= b / (2.0 * (t - a)) + TOL:
        out.append(f"estimate {est.value!r} is {excess:.3e} above -<mean - x0, v> = {-a!r}, "
                   f"beyond the tail bound {b / (2.0 * (t - a)):.3e}")
    return out
