"""Reference values computed apart from wasslab.

Every W_p the benchmark checks is recomputed here from the raw support and
weight arrays the workload generator drew, never from a wasslab result:

* a Dirac on either side: the unique product plan, in closed form;
* d = 1: the monotone quantile coupling, optimal for every p >= 1;
* d >= 2: the transport linear program, solved by HiGHS through scipy;
* `escaping_mixture(n, p)` against the origin Dirac: exactly n.

Powers are taken of distances divided by the largest one and the scale is
restored after the root, so values stay finite where d**p would overflow
or underflow.  scipy is required: without it the import fails and so does
the run; no check is ever skipped.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

REL_TOL = 1e-9       # value agreement, relative to max(|reference|, 1)
MARGINAL_TOL = 1e-9  # plan marginals against the measure weights
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
_CERTIFICATE_TOL = 1e-11  # negativity, marginal gap, dual infeasibility, relative duality gap


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    return pts.reshape(-1, 1) if pts.ndim == 1 else pts


def distances(x, y) -> np.ndarray:
    """Euclidean distance matrix between two point sets."""
    x, y = _as_points(x), _as_points(y)
    diff = x[:, None, :] - y[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def scaled_root(dists, masses, p: float) -> float:
    """(sum masses * dists**p) ** (1/p), computed on dists / max(dists)."""
    dists = np.asarray(dists, dtype=float)
    top = float(dists.max()) if dists.size else 0.0
    if top == 0.0:
        return 0.0
    return top * float(np.dot(masses, (dists / top) ** p)) ** (1.0 / p)


def dirac_side(x, a, y, b, p: float) -> float:
    """Closed form when one side is a single atom: the product plan."""
    D = distances(x, y)
    if D.shape[0] == 1:
        return scaled_root(D[0], b, p)
    return scaled_root(D[:, 0], a, p)


def quantile_1d(x, a, y, b, p: float) -> float:
    """Monotone quantile coupling on the line."""
    x, y = _as_points(x)[:, 0], _as_points(y)[:, 0]
    ox, oy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    x, a = x[ox], np.asarray(a, dtype=float)[ox]
    y, b = y[oy], np.asarray(b, dtype=float)[oy]
    ca, cb = np.cumsum(a), np.cumsum(b)
    ca[-1] = cb[-1] = 1.0
    cuts = np.union1d(ca, cb)
    masses = np.diff(np.concatenate(([0.0], cuts)))
    keep = masses > 0.0
    cuts, masses = cuts[keep], masses[keep]
    # the quantile interval ending at each cut lies in these atoms
    i = np.minimum(np.searchsorted(ca, cuts - masses / 2.0), len(x) - 1)
    j = np.minimum(np.searchsorted(cb, cuts - masses / 2.0), len(y) - 1)
    return scaled_root(np.abs(x[i] - y[j]), masses, p)


def lp_value(x, a, y, b, p: float) -> float:
    """Transport linear program solved by HiGHS, with its optimality certified.

    HiGHS's default feasibility tolerance (1e-7) lets plan entries go
    slightly negative, which can under-report the optimum by more than the
    benchmark's 1e-9 agreement; the tolerances are tightened and the
    returned plan and duals are checked before the value is used.
    """
    D = distances(x, y)
    n, m = D.shape
    top = float(D.max())
    if top == 0.0:
        return 0.0
    C = (D / top) ** p
    cells = np.arange(n * m)
    rows = np.concatenate([cells // m, n + cells % m])
    A = coo_matrix((np.ones(2 * n * m), (rows, np.concatenate([cells, cells]))),
                   shape=(n + m, n * m))
    rhs = np.concatenate([a, b])
    res = linprog(C.ravel(), A_eq=A, b_eq=rhs, bounds=(0.0, None), method="highs",
                  options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve a {n}x{m} instance: {res.message}")
    duals = res.eqlin.marginals
    reduced = C - duals[:n, None] - duals[None, n:]
    primal, dual = float(res.fun), float(np.dot(duals, rhs))
    flaws = (-float(res.x.min()), float(np.max(np.abs(A @ res.x - rhs))),
             -float(reduced.min()), abs(primal - dual) / max(primal, 1e-300))
    if max(flaws) > _CERTIFICATE_TOL:
        raise RuntimeError(f"HiGHS optimum on a {n}x{m} instance is not certified: {flaws}")
    return top * max(primal, 0.0) ** (1.0 / p)


def w_p(x, a, y, b, p: float) -> float:
    """Exact W_p between sum a_i delta_{x_i} and sum b_j delta_{y_j}."""
    x, y = _as_points(x), _as_points(y)
    if x.shape[0] == 1 or y.shape[0] == 1:
        return dirac_side(x, a, y, b, p)
    if x.shape[1] == 1:
        return quantile_1d(x, a, y, b, p)
    return lp_value(x, a, y, b, p)


def escaping_distance(n: int, p: float) -> float:
    """W_p(escaping_mixture(n, p), delta_0) = n: the far atom carries n**-p mass at n**2."""
    return float(n)


def value_matches(value: float, reference: float) -> bool:
    return bool(np.isfinite(value)) and abs(value - reference) <= REL_TOL * max(abs(reference), 1.0)


def plan_problems(res, mu, nu) -> list[str]:
    """Properties every returned plan must have, checked on its raw arrays.

    The marginals must match the weights, the masses must be non-negative,
    the plan's own cost must equal the reported cost, and the reported value
    must be the p-th root of the reported cost.
    """
    plan, p = res.plan, float(res.p)
    out = []
    if plan.masses.size and float(plan.masses.min()) < 0.0:
        out.append("negative plan mass")
    rows = np.bincount(plan.rows, weights=plan.masses, minlength=mu.n_atoms)
    cols = np.bincount(plan.cols, weights=plan.masses, minlength=nu.n_atoms)
    gap = max(float(np.max(np.abs(rows - mu.weights))), float(np.max(np.abs(cols - nu.weights))))
    if not gap <= MARGINAL_TOL:
        out.append(f"plan marginals off by {gap:.3e}")
    d = np.sqrt(np.sum((mu.support[plan.rows] - nu.support[plan.cols]) ** 2, axis=1))
    plan_root = scaled_root(d, plan.masses, p)
    if not value_matches(res.cost ** (1.0 / p), plan_root):
        out.append(f"reported cost {res.cost!r} is not the plan's cost")
    root = res.cost if p == 1.0 else res.cost ** (1.0 / p)
    if not (res.value == root or (res.value == 0.0 and root < 1e-12)):
        out.append(f"value {res.value!r} is not cost ** (1/p) = {root!r}")
    return out
